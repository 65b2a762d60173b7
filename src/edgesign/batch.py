"""Batch predictors for edge signs given a training subset of labeled edges.

:data:`METHODS` is the method table: name → model class. A class has a
classmethod ``fit(g, split, tol, max_iter)`` returning the fitted model, an
edge ``score(src, dst)``, a ``threshold`` fixed at fit time,
``predict_split(g, split)`` and a JSON container tagged ``FORMAT``, which
:class:`_FittedModel` writes and reads from the class's dataclass fields.
Every model predicts a test edge as sgn(score − threshold), with sgn(0) = +1.

* ``blc`` — sgn((1−tr̂(i)) + (1−ûn(j)) − 1/2 − τ̂), τ̂ the training positive
  rate; the threshold is 0.
* ``logreg`` — two-feature logistic model on (1−tr̂(i), 1−ûn(j)).
* ``lprop`` — label propagation on the weighted edge-to-node transform,
  solved as a degree-pulled fit of the training edges; scores (p_i+q_j)/2.
* ``unreg`` — the unregularized quadratic over p, q ∈ [0,1] and soft test
  labels y ∈ [−1,1], solved as a box least-squares fit of the training
  edges; scores p_i+q_j−1.

logreg, lprop and unreg tune their threshold by empirical risk minimization
over the training scores (:func:`tune_threshold`). ``tol`` and ``max_iter``
bound the lprop and unreg solvers; blc and logreg ignore them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConvergenceError, DataError, DegenerateFitError
from .features import box_fit_edges, label_targets, troll_trust
from .graph import NUMBER, check_container, number_lists, read_json, write_json, write_rows


# ---------------------------------------------------------------------------
# Threshold tuning and prediction container


def tune_threshold(scores, labels):
    """Empirical-risk-minimizing binarization threshold.

    Candidates are the midpoints of consecutive distinct scores plus −M
    (predict everything +1) and +M (predict everything −1), M the largest
    finite float, so a model file stays strict JSON; predictions are
    sgn(score − threshold) with sgn(0) = +1, and the two sentinels label
    every finite score below M as ±inf would. Ties in mistake count break
    toward the smallest threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.size == 0 or scores.shape != labels.shape:
        raise ValueError("need nonempty score/label vectors of equal length")
    order = np.argsort(scores)
    ordered = scores[order]
    ends = np.flatnonzero(ordered[1:] != ordered[:-1])  # last index of each run but the top one
    # mistakes when everything with score <= ordered[e] is predicted -1:
    # positives up to e plus negatives after it, between the all +1 and all -1 cuts
    pos = np.cumsum(labels[order] == 1)
    neg = np.cumsum(labels[order] == -1)
    mistakes = np.r_[neg[-1], pos[ends] + (neg[-1] - neg[ends]), pos[-1]]
    j = int(np.argmin(mistakes))  # argmin takes the first (= smallest threshold)
    if j == 0:
        return -sys.float_info.max
    if j == mistakes.size - 1:
        return sys.float_info.max
    e = ends[j - 1]
    return float(0.5 * (ordered[e] + ordered[e + 1]))


@dataclass
class Prediction:
    """Scored ±1 predictions for a set of edges."""

    edge_indices: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    threshold: float
    method: str

    def to_csv(self, path_or_file, node_ids=None):
        """Write `src,dst,score,label` rows, assembled as bytes (:func:`graph.write_rows`).

        Endpoints are ``node_ids`` entries when given, else compact ids. Each id
        is encoded once, before anything is written. When the ids' bytes hold a
        comma, a double quote or a line break, each id holding one is quoted as
        in RFC 4180, so the ``csv`` module reads it back intact. A score is its
        shortest round-trip ``repr``, made once per distinct float64 bit pattern
        (which keeps ``-0.0`` apart from ``0.0``), so it reads back as the same
        float64.
        """
        if node_ids is None:
            node_ids = range(max(self.src.max(initial=-1), self.dst.max(initial=-1)) + 1)
        names = [str(t).encode() for t in node_ids]
        ids = b"".join(names)
        if any(c in ids for c in (b",", b'"', b"\r", b"\n")):
            names = [b'"' + t.replace(b'"', b'""') + b'"' if t.translate(None, b',"\r\n') != t
                     else t for t in names]
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        bits, score_index = np.unique(scores.view(np.int64), return_inverse=True)
        texts = [repr(x).encode("ascii") for x in bits.view(np.float64).tolist()]
        write_rows(path_or_file, [(names, self.src), (names, self.dst), (texts, score_index),
                                  ([b"-1", b"1"], (self.labels > 0).view(np.int8))],
                   b",", head=b"src,dst,score,label\n")


class _FittedModel:
    """A model dataclass's container: ``{"format": FORMAT, "version": 1}``, then its fields.

    A field annotated ``np.ndarray`` is a per-node array (read with
    :func:`graph.number_lists`), any other a number (:data:`graph.NUMBER`).
    Keys no field names, such as the ``y_soft`` of older unreg files, are ignored.
    """

    node_count = property(lambda self: next(
        v.size for v in vars(self).values() if isinstance(v, np.ndarray)))

    def to_json_dict(self):
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {"format": self.FORMAT, "version": 1,
                **{k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values}}

    @classmethod
    def from_json_dict(cls, d):
        # annotations are strings here (``from __future__ import annotations``)
        arrays = [f.name for f in fields(cls) if f.type == "np.ndarray"]
        numbers = [f.name for f in fields(cls) if f.name not in arrays]
        check_container(d, cls.FORMAT, keys=arrays, values=dict.fromkeys(numbers, NUMBER))
        return cls(**dict(zip(arrays, number_lists(d, arrays))),
                   **{name: float(d[name]) for name in numbers})

    def _tune_threshold(self, g, split):
        """Set ``threshold`` by :func:`tune_threshold` on the split's training-edge scores."""
        train = split.training_indices()
        self.threshold = tune_threshold(_edge_scores(self.score, g.src, g.dst, train),
                                        g.labels[train])
        return self


def _predict(model, g, split):
    """The split's test edges scored by ``model`` and thresholded at its cut."""
    if model.node_count != g.node_count:
        raise DataError(f"model was fitted on a graph of {model.node_count} nodes, "
                        f"this graph has {g.node_count}")
    test = split.test_indices()
    src, dst = g.src[test], g.dst[test]
    scores = _edge_scores(model.score, src, dst)
    # sgn(score − threshold) with sgn(0) = +1, as int8: for doubles (NaN too)
    # x − t >= 0 holds exactly when x >= t
    labels = np.greater_equal(scores, model.threshold, out=np.empty(scores.size, np.int8))
    labels *= 2
    labels -= 1
    return Prediction(edge_indices=test, src=src, dst=dst, scores=scores, labels=labels,
                      threshold=float(model.threshold), method=model.method)


#: Edges per block of :func:`_edge_scores`; its temporaries grow with this, not |E|.
_SCORE_BLOCK = 1 << 13


def _edge_scores(score, src, dst, edges=None):
    """``score(src[edges], dst[edges])`` (of all of src and dst without ``edges``),
    scored one block of edges at a time.

    Only the result is edge-sized: the endpoints and the score's own
    temporaries are made per block.
    """
    scores = np.empty(src.size if edges is None else edges.size)
    for start in range(0, scores.size, _SCORE_BLOCK):
        block = (slice(start, start + _SCORE_BLOCK) if edges is None
                 else edges[start:start + _SCORE_BLOCK])
        scores[start:start + _SCORE_BLOCK] = score(src[block], dst[block])
    return scores


def _gather_sum(a, src, b, dst):
    """a[src] + b[dst] as a new array (a scalar for scalar endpoints).

    The sum is taken in the gathered a[src], and each score goes on in
    place, so a score costs two arrays of the endpoints' size whatever its
    formula. Per-node terms are formed before the gather: (1 − tr)[src]
    holds the same doubles as 1 − tr[src].
    """
    total = a.take(src)
    total += b.take(dst)
    return total


# ---------------------------------------------------------------------------
# Thresholded trollness/trustworthiness classifier


@dataclass
class BlcModel(_FittedModel):
    """Training-set trollness/trustworthiness plus the positive-rate offset."""

    method = "blc"
    FORMAT = "edgesign-blc"
    threshold = 0.0

    tr: np.ndarray
    un: np.ndarray
    tau: float

    @classmethod
    def fit(cls, g, split, tol=None, max_iter=None):
        return blc_fit(g, split)

    def score(self, src, dst):
        scores = _gather_sum(1.0 - self.tr, src, 1.0 - self.un, dst)
        scores -= 0.5
        scores -= self.tau
        return scores

    def predict_split(self, g, split):
        return blc_predict_split(self, g, split)


def blc_fit(g, split):
    """Estimate tr̂, ûn on the training edges (1/2 where unseen) and
    τ̂ as the fraction of positive training edges."""
    train = split.training_indices()
    if train.size == 0:
        raise DegenerateFitError("cannot fit on an empty training set")
    tr, un = troll_trust(g, split.training_mask)
    tau = float(np.count_nonzero(g.labels[train] == 1) / train.size)
    return BlcModel(tr=tr, un=un, tau=tau)


def blc_predict_split(model, g, split):
    """Predictions of a :class:`BlcModel` for every test edge of the split."""
    return _predict(model, g, split)


# ---------------------------------------------------------------------------
# Two-feature logistic model


@dataclass
class LogRegModel(_FittedModel):
    """Bias + weights on (1−tr̂(i), 1−ûn(j)), with a tuned binarization threshold."""

    method = "logreg"
    FORMAT = "edgesign-logreg"

    w0: float
    w1: float
    w2: float
    threshold: float
    tr: np.ndarray = field(repr=False)
    un: np.ndarray = field(repr=False)

    w2_prime = property(lambda self: self.w2 / self.w1)
    tau_prime = property(lambda self: -(0.5 + self.w0 / self.w1))

    @classmethod
    def fit(cls, g, split, tol=None, max_iter=None):
        return logreg_fit(g, split)

    def score(self, src, dst):
        return _gather_sum(self.w0 + self.w1 * (1.0 - self.tr), src,
                           self.w2 * (1.0 - self.un), dst)

    def predict_split(self, g, split):
        return logreg_predict_split(self, g, split)


def _nll(z, y01, counts, m):
    # mean over edges of log(1+e^z) - y*z, each row standing for ``counts`` edges;
    # stable for large |z|
    return float(counts @ (np.logaddexp(0.0, z) - y01 * z)) / m


def _distinct_rows(tr, un, src, dst, positive):
    """The distinct rows (1−tr(i), 1−un(j), y) of the edges (i, j), and their edge counts.

    Each node's tr (un) value gets a code, the rank of the value among the
    distinct ones; an edge's row is the key (code·K + code)·2 + [y = +1],
    and one sort of the keys groups them.
    """
    tr_values, tr_code = np.unique(tr, return_inverse=True)
    un_values, un_code = np.unique(un, return_inverse=True)
    keys = np.sort((tr_code[src] * un_values.size + un_code[dst]) * 2 + positive)
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    counts = np.diff(first, append=keys.size).astype(np.float64)
    pair, y01 = np.divmod(keys[first], 2)
    X = np.column_stack([np.ones(first.size),
                         1.0 - tr_values[pair // un_values.size],
                         1.0 - un_values[pair % un_values.size]])
    return X, y01.astype(np.float64), counts


def logreg_fit(g, split, tol=1e-8, max_iter=200):
    """Maximum-likelihood logistic fit of training labels on the two features.

    Damped Newton with backtracking on the mean negative log-likelihood,
    stopping at gradient infinity-norm ≤ tol. The features are per-node
    rates, so the training edges take few distinct (1−tr̂(i), 1−ûn(j), y)
    rows. The Newton steps run on those rows, each weighted by the number
    of edges it stands for: the same likelihood as one row per edge, up to
    rounding. The threshold is tuned on the fitted model's score of every
    training edge, as for the other methods. Single-class training labels
    raise DegenerateFitError; budget exhaustion raises ConvergenceError with
    diagnostics.
    """
    train = split.training_indices()
    if train.size == 0:
        raise DegenerateFitError("cannot fit on an empty training set")
    y = g.labels[train]
    positive = y == 1
    if positive.all() or not positive.any():
        raise DegenerateFitError("training labels are single-class")
    tr, un = troll_trust(g, split.training_mask)
    src, dst = g.src[train], g.dst[train]
    X, y01, counts = _distinct_rows(tr, un, src, dst, positive)
    m = train.size
    w = np.zeros(3)
    z = X @ w
    loss = _nll(z, y01, counts, m)
    for it in range(max_iter + 1):
        s = 1.0 / (1.0 + np.exp(-z))
        grad = X.T @ (counts * (s - y01)) / m
        gnorm = np.abs(grad).max()
        if gnorm <= tol:
            break
        if it == max_iter:
            raise ConvergenceError(
                f"logistic fit not converged after {max_iter} iterations "
                f"(|grad|={gnorm:.3g}, tol={tol:.3g})")
        weights = counts * s * (1.0 - s)
        hess = (X * weights[:, None]).T @ X / m
        try:
            step = np.linalg.solve(hess, grad)
            if not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            step = grad
        t = 1.0
        decrease = float(grad @ step)
        while t > 1e-14:
            w_new = w - t * step
            z_new = X @ w_new
            loss_new = _nll(z_new, y01, counts, m)
            if loss_new <= loss - 1e-4 * t * decrease:
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"logistic line search stalled at iteration {it + 1} (|grad|={gnorm:.3g})")
        w, z, loss = w_new, z_new, loss_new
    return LogRegModel(w0=float(w[0]), w1=float(w[1]), w2=float(w[2]),
                       threshold=0.0, tr=tr, un=un)._tune_threshold(g, split)


def logreg_predict_split(model, g, split):
    """Predictions of a :class:`LogRegModel` for every test edge of the split."""
    return _predict(model, g, split)


# ---------------------------------------------------------------------------
# Label propagation on the weighted transform


@dataclass
class LpOptions:
    """``tol`` bounds the gradient infinity norm of the propagation objective."""

    tol: float = 1e-8
    max_iter: int = 1000


def lp_run(g, split, opt=None):
    """Minimize the propagation objective by exact block sweeps over (p, q).

    The objective is the edge fit Σ_E (t − (p_i+q_j)/2)², with t pinned to
    (1+y)/2 on training edges and free on test edges, plus the degree pull
    (1/2)Σ_i [d_out(i)p_i² + d_in(i)q_i²] toward zero. Every test value t_e
    has no box, so at the optimum t_e = (p_i+q_j)/2 and its square drops
    out. What is left is the training-edge fit plus the pull, degrees
    counted over all edges, which :func:`features.box_fit_edges` solves with
    no box: p_i ← (2Σ_tr t − Σ_tr q_j) / (d_tr,out(i) + 2d_out(i)) over
    training out-edges, then q_j from the new p symmetrically. Each step is
    the exact minimizer with the other block held fixed, so the per-sweep
    objective is nonincreasing. The sweeps stop when the gradient infinity
    norm of the objective drops to ``opt.tol``; ``pg_norm`` reports that
    norm (its q and test parts vanish after every sweep, up to rounding),
    ``value`` the objective. A node with edges but no training out-edge
    (in-edge) gets p = 0 (q = 0) in the first sweep; one with zero
    out-degree (in-degree) keeps p (q) at 1/2.

    Returns the kernel's :class:`features.EdgeFit` with ``y_soft`` =
    (p_i+q_j)/2 on the test edges. The kernel's ConvergenceError, raised if
    ``opt.max_iter`` sweeps are exhausted, propagates as it is.
    """
    opt = opt or LpOptions()
    n = g.node_count
    train, test = split.training_indices(), split.test_indices()
    fit = box_fit_edges(n, g.src[train], g.dst[train], label_targets(g.labels[train]),
                        pull=g.degrees, box=False, tol=opt.tol, max_iter=opt.max_iter)
    return replace(fit, y_soft=_edge_scores(LpModel(fit.p, fit.q, 0.0).score, g.src, g.dst, test))


@dataclass
class _PQModel(_FittedModel):
    """Per-node (p, q) and a tuned threshold: the shape lprop and unreg share."""

    p: np.ndarray
    q: np.ndarray
    threshold: float


class LpModel(_PQModel):
    """Label-propagation (p, q); scores an edge as (p_i+q_j)/2."""

    method = "lprop"
    FORMAT = "edgesign-lprop"

    @classmethod
    def fit(cls, g, split, tol=LpOptions.tol, max_iter=LpOptions.max_iter):
        """:func:`lp_run` to ``tol`` in at most ``max_iter`` sweeps, then the cut."""
        fit = lp_run(g, split, LpOptions(tol=tol, max_iter=max_iter))
        return cls(fit.p, fit.q, 0.0)._tune_threshold(g, split)

    def score(self, src, dst):
        scores = _gather_sum(self.p, src, self.q, dst)
        scores *= 0.5
        return scores

    def predict_split(self, g, split):
        return lp_predict(self, g, split)


def lp_predict(model, g, split):
    """Predictions of an :class:`LpModel` for every test edge of the split."""
    return _predict(model, g, split)


# ---------------------------------------------------------------------------
# Unregularized joint quadratic


@dataclass
class UnregOptions:
    """``tol`` bounds the projected-gradient infinity norm of the training-edge fit."""

    tol: float = 1e-6
    max_iter: int = 20000


def unreg_solve(g, split, opt=None):
    """Minimize the unregularized joint quadratic over p, q ∈ [0,1] and test y ∈ [−1,1].

    The objective is Σ_E ((1+y)/2 − (p_i+q_j)/2)², y the label on training
    edges. p_i+q_j−1 always lies in [−1,1], so every minimizer fits each test
    edge exactly with y = p_i+q_j−1. What is left is the box least-squares
    fit of the training edges alone, solved by :func:`features.box_fit_edges`
    to a projected-gradient infinity norm of ``opt.tol``. The minimizer is
    not unique: the objective does not depend on p (q) of a node without a
    training out-edge (in-edge), which keeps 1/2, so test labels depend on
    where the solver starts and stops.

    Returns the kernel's :class:`features.EdgeFit` with ``y_soft`` =
    p_i+q_j−1 on the test edges. The kernel's ConvergenceError, raised if
    ``opt.max_iter`` sweeps are exhausted, propagates as it is.
    """
    opt = opt or UnregOptions()
    train, test = split.training_indices(), split.test_indices()
    fit = box_fit_edges(g.node_count, g.src[train], g.dst[train], label_targets(g.labels[train]),
                        tol=opt.tol, max_iter=opt.max_iter)
    return replace(fit, y_soft=_edge_scores(UnregModel(fit.p, fit.q, 0.0).score,
                                            g.src, g.dst, test))


class UnregModel(_PQModel):
    """Unregularized-quadratic (p, q); scores an edge as p_i+q_j−1."""

    method = "unreg"
    FORMAT = "edgesign-unreg"

    @classmethod
    def fit(cls, g, split, tol=UnregOptions.tol, max_iter=UnregOptions.max_iter):
        """:func:`unreg_solve` to ``tol`` in at most ``max_iter`` sweeps, then the cut."""
        fit = unreg_solve(g, split, UnregOptions(tol=tol, max_iter=max_iter))
        return cls(fit.p, fit.q, 0.0)._tune_threshold(g, split)

    def score(self, src, dst):
        scores = _gather_sum(self.p, src, self.q, dst)
        scores -= 1.0
        return scores

    def predict_split(self, g, split):
        return unreg_predict(self, g, split)


def unreg_predict(model, g, split):
    """Predictions of an :class:`UnregModel` for every test edge of the split."""
    return _predict(model, g, split)


# ---------------------------------------------------------------------------
# The method table and model persistence


#: Model class of each batch method.
METHODS = {"blc": BlcModel, "logreg": LogRegModel, "lprop": LpModel, "unreg": UnregModel}
_FORMATS = {cls.FORMAT: cls for cls in METHODS.values()}


def save_model(model, path):
    write_json(model.to_json_dict(), path)


def load_model(path):
    """The fitted model stored at ``path``, read by the class its format names."""
    d = read_json(path)
    fmt = d.get("format")
    if not isinstance(fmt, str) or fmt not in _FORMATS:
        raise DataError(f"unrecognized model container format {fmt!r}")
    return _FORMATS[fmt].from_json_dict(d)
