"""Independent oracles used by the tests.

Everything here deliberately avoids the solver code paths under test:
record-by-record readers and writers, field-by-field model containers,
mask-compacting degree counts, a per-edge logistic fit,
brute-force enumeration, distinct-value threshold tuning, dense grids, finite differences, plain projected
gradient descent, scipy's bounded-variable least squares, exact-rational
dynamic programming, and the paper's edge-to-node graph transforms. The
closed-form objectives and gradients of the lprop, unreg and likelihood
problems live here too, as the definitions the solvers are checked
against; only :func:`solve_linearized_ml` runs the kernel, for the tests
of its unboxed mode.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from edgesign.batch import tune_threshold
from edgesign.errors import DataError, EdgeListParseError
from edgesign.features import box_fit_edges, troll_trust


def load_edge_list_reference(text, delimiter=None):
    """Record-by-record reading of an edge list under ``load_edge_list``'s rules.

    Returns ``(node_ids, edges, (self_loops, duplicates, conflicts))`` with
    ``edges`` the kept ``(u, v, sign)`` triples in first-seen order, or
    raises EdgeListParseError at the first malformed record.
    """
    ids = {}
    pair_sign = {}  # (u, v) -> sign, or None once a conflicting sign was seen
    order = []
    self_loops = duplicates = conflicts = 0

    def intern(token):
        return ids.setdefault(token, len(ids))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(delimiter)
        if len(parts) != 3:
            raise EdgeListParseError(lineno, f"expected 3 fields, got {len(parts)}")
        sign = {"1": 1, "+1": 1, "-1": -1}.get(parts[2])
        if sign is None:
            raise EdgeListParseError(lineno, f"bad sign token {parts[2]!r}")
        u = intern(parts[0])
        v = intern(parts[1])
        if u == v:
            self_loops += 1
            continue
        prev = pair_sign.get((u, v), 0)
        if prev == 0:
            pair_sign[(u, v)] = sign
            order.append((u, v))
        elif prev is None:
            pass  # already conflicting, stays dropped
        elif prev == sign:
            duplicates += 1
        else:
            pair_sign[(u, v)] = None
            conflicts += 1
    edges = [(u, v, pair_sign[(u, v)]) for u, v in order if pair_sign[(u, v)] is not None]
    return list(ids), edges, (self_loops, duplicates, conflicts)


def prediction_csv_reference(pred, node_ids=None):
    """The text ``Prediction.to_csv`` writes, built one f-string per row.

    Each score is its own ``repr``; an id holding a comma, a double quote,
    a carriage return or a line feed is quoted as in RFC 4180.
    """
    def field(token):
        if any(c in token for c in ',"\r\n'):
            return '"' + token.replace('"', '""') + '"'
        return token

    if node_ids is None:
        src, dst = pred.src.tolist(), pred.dst.tolist()
    else:
        names = [field(str(t)) for t in node_ids]
        src = [names[k] for k in pred.src.tolist()]
        dst = [names[k] for k in pred.dst.tolist()]
    rows = [f"{u},{v},{s!r},{y}\n" for u, v, s, y in
            zip(src, dst, pred.scores.tolist(), pred.labels.tolist())]
    return "src,dst,score,label\n" + "".join(rows)


def blc_container_reference(model, g, mask):
    """The blc model container written field by field, with the node flags it once held.

    ``tr_defined`` (``un_defined``) flags the nodes with a masked outgoing
    (incoming) edge.
    """
    out, into = degree_stats_reference(g, mask)
    return {
        "format": "edgesign-blc", "version": 1,
        "tr": model.tr.tolist(), "un": model.un.tolist(),
        "tr_defined": (out.sum(axis=1) > 0).astype(int).tolist(),
        "un_defined": (into.sum(axis=1) > 0).astype(int).tolist(),
        "tau": model.tau,
    }


def logreg_container_reference(model):
    """The logreg model container written field by field."""
    return {
        "format": "edgesign-logreg", "version": 1,
        "w0": model.w0, "w1": model.w1, "w2": model.w2,
        "threshold": model.threshold,
        "tr": model.tr.tolist(), "un": model.un.tolist(),
    }


def pq_container_reference(fmt, model):
    """The lprop or unreg model container written field by field."""
    return {"format": fmt, "version": 1,
            "p": model.p.tolist(), "q": model.q.tolist(),
            "threshold": model.threshold}


def degree_stats_reference(g, mask=None):
    """Signed (out, into) degree tables by boolean-mask compaction and four bincounts.

    Column 0 of each (n, 2) table counts negative edges, column 1 positive ones.
    """
    n = g.node_count
    if mask is None:
        src, dst, labels = g.src, g.dst, g.labels
    else:
        mask = np.asarray(mask, dtype=bool)
        src, dst, labels = g.src[mask], g.dst[mask], g.labels[mask]
    pos = labels == 1
    d_out = np.bincount(src, minlength=n)
    d_in = np.bincount(dst, minlength=n)
    d_out_plus = np.bincount(src[pos], minlength=n)
    d_in_plus = np.bincount(dst[pos], minlength=n)
    return (np.column_stack([d_out - d_out_plus, d_out_plus]),
            np.column_stack([d_in - d_in_plus, d_in_plus]))


def logreg_fit_reference(g, split, tol=1e-8, max_iter=200):
    """Damped-Newton logistic fit with one design row per training edge.

    Returns ``(w, threshold)``: the weights (w0, w1, w2) and the threshold
    tuned on the per-edge training scores.
    """
    train = np.flatnonzero(split.training_mask)
    y = g.labels[train]
    tr, un = troll_trust(g, split.training_mask)
    X = np.column_stack([np.ones(train.size),
                         1.0 - tr[g.src[train]],
                         1.0 - un[g.dst[train]]])
    y01 = (y == 1).astype(np.float64)
    m = train.size

    def nll(z):
        return float(np.mean(np.logaddexp(0.0, z) - y01 * z))

    w = np.zeros(3)
    z = X @ w
    loss = nll(z)
    for it in range(max_iter + 1):
        s = 1.0 / (1.0 + np.exp(-z))
        grad = X.T @ (s - y01) / m
        if np.abs(grad).max() <= tol:
            break
        assert it < max_iter, "reference logistic fit did not converge"
        hess = (X * (s * (1.0 - s))[:, None]).T @ X / m
        step = np.linalg.solve(hess, grad)
        t = 1.0
        decrease = float(grad @ step)
        while True:
            w_new = w - t * step
            z_new = X @ w_new
            loss_new = nll(z_new)
            if loss_new <= loss - 1e-4 * t * decrease:
                break
            t *= 0.5
        w, z, loss = w_new, z_new, loss_new
    return w, tune_threshold(z, y)


def tune_threshold_reference(scores, labels):
    """``tune_threshold`` by distinct values: ``np.unique`` and per-value label counts."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    values, inverse = np.unique(scores, return_inverse=True)
    k = values.size
    pos = np.bincount(inverse[labels == 1], minlength=k)
    neg = np.bincount(inverse[labels == -1], minlength=k)
    # mistakes when everything with score <= values[j-1] is predicted -1:
    # positives below the cut plus negatives above it
    cum_pos = np.concatenate([[0], np.cumsum(pos)])
    cum_neg = np.concatenate([[0], np.cumsum(neg)])
    mistakes = cum_pos + (cum_neg[-1] - cum_neg)
    j = int(np.argmin(mistakes))  # argmin takes the first (= smallest threshold)
    if j == 0:
        return -sys.float_info.max
    if j == k:
        return sys.float_info.max
    return float(0.5 * (values[j - 1] + values[j]))


def brute_force_threshold_mistakes(scores, labels):
    """Minimum training mistakes over all midpoint/sentinel thresholds."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    values = np.unique(scores)
    candidates = [-np.inf, np.inf]
    candidates += [0.5 * (a + b) for a, b in zip(values[:-1], values[1:])]
    best = None
    for theta in candidates:
        pred = np.where(scores - theta >= 0, 1, -1)
        mistakes = int(np.count_nonzero(pred != labels))
        best = mistakes if best is None else min(best, mistakes)
    return best


def finite_difference(fun, x, h=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        grad[k] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return grad


def _lp_targets(g, split, y_soft=None):
    t = np.full(g.edge_count, 0.5)
    train = split.training_indices()
    t[train] = (1.0 + g.labels[train]) / 2.0
    if y_soft is not None:
        t[split.test_indices()] = y_soft
    return t


def lp_objective(g, split, p, q, y_soft):
    """Quadratic objective the propagation sweeps minimize.

    Edge fit Σ_E (t − (p_i+q_j)/2)² with t pinned to (1+y)/2 on training
    edges and free on test edges, plus the degree-weighted pull
    (1/2)Σ_i [d_out(i)p_i² + d_in(i)q_i²] toward zero.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    t = _lp_targets(g, split, y_soft)
    r = t - 0.5 * (p[g.src] + q[g.dst])
    n = g.node_count
    d_out = np.bincount(g.src, minlength=n)
    d_in = np.bincount(g.dst, minlength=n)
    return float(r @ r + 0.5 * (d_out @ (p * p) + d_in @ (q * q)))


def lp_gradient(g, split, p, q, y_soft):
    """(∂p, ∂q, ∂y_soft) of :func:`lp_objective`."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    t = _lp_targets(g, split, y_soft)
    n = g.node_count
    src, dst = g.src, g.dst
    d_out = np.bincount(src, minlength=n)
    d_in = np.bincount(dst, minlength=n)
    half = 0.5 * (p[src] + q[dst]) - t
    gp = np.bincount(src, weights=half, minlength=n) + d_out * p
    gq = np.bincount(dst, weights=half, minlength=n) + d_in * q
    test = split.test_indices()
    gt = 2.0 * t[test] - (p[src[test]] + q[dst[test]])
    return gp, gq, gt


def unreg_objective(g, split, p, q, y_soft):
    """Joint quadratic: training fit plus test fit with free y ∈ [−1,1]."""
    y = g.labels.astype(np.float64)
    y[split.test_indices()] = y_soft
    r = (1.0 + y) / 2.0 - 0.5 * (np.asarray(p, dtype=np.float64)[g.src]
                                 + np.asarray(q, dtype=np.float64)[g.dst])
    return float(r @ r)


def ml_gradient(p, q, g, split):
    """Gradient of the training log-likelihood w.r.t. (p, q).

    For each node ℓ: Σ over positive training out-edges of 1/(p_ℓ+q_j) minus
    Σ over negative ones of 1/(2−p_ℓ−q_j); symmetrically for q. Requires
    p_i+q_j strictly inside (0, 2) on every training edge.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    train = split.training_indices()
    src, dst, y = g.src[train], g.dst[train], g.labels[train]
    s = p[src] + q[dst]
    bad = np.flatnonzero((s <= 0.0) | (s >= 2.0))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"p+q = {s[k]} on training edge ({src[k]}, {dst[k]}) lies outside (0, 2)")
    n = g.node_count
    pos = y == 1
    terms = np.where(pos, 1.0 / s, -1.0 / (2.0 - s))
    gp = np.bincount(src, weights=terms, minlength=n)
    gq = np.bincount(dst, weights=terms, minlength=n)
    return gp, gq


def solve_linearized_ml(g, split):
    """Solve the per-node linear equations approximating the likelihood optimum.

    For every node with training out-degree d̂_out(ℓ) > 0:
    d̂_out(ℓ)·p_ℓ + Σ q_j = 2·d̂_out⁺(ℓ) over training out-edges, and
    symmetrically for q. These are the stationarity conditions of the
    training-edge fit Σ ((1+y)/2 − (p_i+q_j)/2)², so the system is always
    consistent; it is singular (p + c, q − c on a component solves it too),
    and :func:`edgesign.features.box_fit_edges` with no box and no pull
    returns *a* solution, to a gradient infinity norm of 1e-10, not the
    minimum-norm one. Nodes the training set never touches keep 1/2.
    """
    train = split.training_indices()
    fit = box_fit_edges(g.node_count, g.src[train], g.dst[train],
                        (1.0 + g.labels[train]) / 2.0, box=False, tol=1e-10,
                        max_iter=100000)
    return fit.p, fit.q


def lp_reference_minimize(g, split, iters=400000, check_every=200, tol=1e-11):
    """Projected gradient descent on the propagation objective.

    Fixed step 1/L with the Gershgorin bound L = max(3·max degree, 4); the
    box [-1, 1] on every variable is wide enough to be inactive at the
    minimizer, so this is a plain projected-gradient scheme independent of
    the block sweeps under test.
    """
    n = g.node_count
    d_out = np.bincount(g.src, minlength=n)
    d_in = np.bincount(g.dst, minlength=n)
    L = max(4.0, 3.0 * max(d_out.max(initial=0), d_in.max(initial=0)))
    step = 1.0 / L
    p = np.full(n, 0.5)
    q = np.full(n, 0.5)
    t = np.full(split.test_indices().size, 0.5)
    for k in range(iters):
        gp, gq, gt = lp_gradient(g, split, p, q, t)
        p = np.clip(p - step * gp, -1.0, 1.0)
        q = np.clip(q - step * gq, -1.0, 1.0)
        t = np.clip(t - step * gt, -1.0, 1.0)
        if k % check_every == 0:
            norm = max(np.abs(gp).max(initial=0.0), np.abs(gq).max(initial=0.0),
                       np.abs(gt).max(initial=0.0))
            if norm <= tol:
                break
    return p, q, t


def quadratic_training_loss(p, q, g, split):
    """Σ over training edges of ((1+y)/2 − (p_i+q_j)/2)²."""
    train = split.training_indices()
    t = (1.0 + g.labels[train]) / 2.0
    r = t - 0.5 * (np.asarray(p)[g.src[train]] + np.asarray(q)[g.dst[train]])
    return float(r @ r)


def quadratic_training_grad(p, q, g, split):
    """Gradient of :func:`quadratic_training_loss` w.r.t. (p, q)."""
    train = split.training_indices()
    src, dst = g.src[train], g.dst[train]
    t = (1.0 + g.labels[train]) / 2.0
    half = 0.5 * (np.asarray(p)[src] + np.asarray(q)[dst]) - t
    n = g.node_count
    return (np.bincount(src, weights=half, minlength=n),
            np.bincount(dst, weights=half, minlength=n))


@dataclass
class EdgeNodeTransform:
    """The edge-to-node transform G' (``w`` None) or its weighted variant G''.

    Each original node i becomes two circle copies (i_in, i_out) and each
    directed edge (i, j) a square node carrying the edge's label. G' connects
    i_out — square — j_in; G'' gives those two path edges weight +2 and adds
    the shortcut i_out — j_in at weight −1. Node order is [all i_in][all
    i_out][all squares in edge order].
    """

    original_node_count: int
    original_edge_count: int
    u: np.ndarray
    v: np.ndarray
    square_labels: np.ndarray
    w: np.ndarray = None

    @property
    def node_count(self):
        return 2 * self.original_node_count + self.original_edge_count

    @property
    def edge_count(self):
        return self.u.size

    def in_copy(self, i):
        return i

    def out_copy(self, i):
        return self.original_node_count + i

    def square(self, k):
        return 2 * self.original_node_count + k


def _path_edges(g):
    n, m = g.node_count, g.edge_count
    squares = 2 * n + np.arange(m, dtype=np.int64)
    u = np.concatenate([n + g.src, squares])        # (i_out, e) then (e, j_in)
    v = np.concatenate([squares, g.dst])
    return u, v


def to_gprime(g):
    """G': 2|V|+|E| nodes, 2|E| edges; square node k carries the label of edge k."""
    u, v = _path_edges(g)
    return EdgeNodeTransform(g.node_count, g.edge_count, u, v, g.labels.copy())


def to_gsecond(g):
    """G'': the 2|E| path edges at +2 plus |E| shortcuts at −1; its +2 part is G'."""
    n, m = g.node_count, g.edge_count
    pu, pv = _path_edges(g)
    u = np.concatenate([pu, n + g.src])
    v = np.concatenate([pv, g.dst])
    w = np.concatenate([np.full(2 * m, 2.0), np.full(m, -1.0)])
    return EdgeNodeTransform(n, m, u, v, g.labels.copy(), w)


def cutsize(gp, node_labels):
    """Number of transform edges whose endpoint labels disagree.

    Requires every node (circles included) to carry a ±1 label.
    """
    labels = np.asarray(node_labels)
    if labels.shape != (gp.node_count,):
        raise DataError(f"need one label per node ({gp.node_count}), got {labels.size}")
    if not np.all(np.abs(labels) == 1):
        raise DataError("node labels must be +1 or -1")
    return int(np.count_nonzero(labels[gp.u] != labels[gp.v]))


def grid_axes(bounds, step):
    return [np.arange(lo, hi + 0.5 * step, step) for lo, hi in bounds]


def grid_minimum(fun_batch, bounds, step, chunk=1 << 16):
    """Exhaustive grid search; returns (best value, best point).

    ``fun_batch`` maps a (k, d) array of grid points to their k values. The
    points are visited in ``itertools.product`` order, ``chunk`` at a time,
    and the first of equal minima wins.
    """
    axes = grid_axes(bounds, step)
    shape = tuple(a.size for a in axes)
    total = math.prod(shape)
    best = (np.inf, None)
    for start in range(0, total, chunk):
        index = np.unravel_index(np.arange(start, min(start + chunk, total)), shape)
        points = np.column_stack([a[i] for a, i in zip(axes, index)])
        values = fun_batch(points)
        k = int(np.argmin(values))
        if values[k] < best[0]:
            best = (float(values[k]), points[k])
    return best


def grid_sample(bounds, step, count, seed=0):
    """``count`` distinct points drawn from the grid of :func:`grid_minimum`."""
    axes = grid_axes(bounds, step)
    shape = tuple(a.size for a in axes)
    flat = np.random.default_rng(seed).choice(math.prod(shape), size=count, replace=False)
    return np.column_stack([a[i] for a, i in zip(axes, np.unravel_index(flat, shape))])


def batch_mismatch(fun, fun_batch, bounds, step, count=128, seed=0):
    """Largest |fun(x) − fun_batch(x)| over ``count`` sampled grid points."""
    points = grid_sample(bounds, step, count, seed)
    scalar = np.array([fun(x) for x in points])
    return float(np.abs(scalar - fun_batch(points)).max())


def lp_objective_batch(g, split, P, Q, T):
    """The propagation objective at each row of P, Q (k × |V|) and T (k × test edges).

    Edge fit Σ_E (t − (p_i+q_j)/2)², t = (1+y)/2 on training edges and T on
    test edges, plus (1/2)Σ_i [d_out(i)p_i² + d_in(i)q_i²].
    """
    train = split.training_mask
    t = np.empty((P.shape[0], g.edge_count))
    t[:, train] = (1.0 + g.labels[train]) / 2.0
    t[:, ~train] = T
    r = t - 0.5 * (P[:, g.src] + Q[:, g.dst])
    d_out = np.bincount(g.src, minlength=g.node_count)
    d_in = np.bincount(g.dst, minlength=g.node_count)
    return np.einsum("ke,ke->k", r, r) + 0.5 * ((P * P) @ d_out + (Q * Q) @ d_in)


def unreg_objective_batch(g, split, P, Q, Y):
    """The unregularized objective Σ_E ((1+y)/2 − (p_i+q_j)/2)² at each row,
    y the label on training edges and Y on test edges."""
    train = split.training_mask
    y = np.empty((P.shape[0], g.edge_count))
    y[:, train] = g.labels[train]
    y[:, ~train] = Y
    r = (1.0 + y) / 2.0 - 0.5 * (P[:, g.src] + Q[:, g.dst])
    return np.einsum("ke,ke->k", r, r)


def unreg_box_lsq_minimum(g, split):
    """Minimum of the training-edge box least-squares fit by scipy's BVLS.

    Unknowns are p of each node with a training out-edge and q of each node
    with a training in-edge, boxed in [0, 1]; each training edge (i, j)
    contributes the row (p_i + q_j)/2 ≈ (1+y)/2.
    """
    from scipy.optimize import lsq_linear

    train = split.training_indices()
    src, dst = g.src[train], g.dst[train]
    p_nodes, p_col = np.unique(src, return_inverse=True)
    q_nodes, q_col = np.unique(dst, return_inverse=True)
    A = np.zeros((train.size, p_nodes.size + q_nodes.size))
    rows = np.arange(train.size)
    A[rows, p_col] = 0.5
    A[rows, p_nodes.size + q_col] = 0.5
    b = (1.0 + g.labels[train]) / 2.0
    fit = lsq_linear(A, b, bounds=(0.0, 1.0), method="bvls", tol=1e-14)
    r = A @ fit.x - b
    return float(r @ r)


def mrc_recurrence_table(r_max, c_max):
    """m(r, c) via the defining recurrence, in exact rationals.

    m(r, 1) = 2^-r; m(c, c) = 2^-c; m(r, c) = (m(r-1, c) + m(r-1, c-1)) / 2.
    """
    table = {}
    for r in range(1, r_max + 1):
        table[(r, 1)] = Fraction(1, 2 ** r)
    for c in range(2, c_max + 1):
        for r in range(c, r_max + 1):
            if r == c:
                table[(r, c)] = Fraction(1, 2 ** r)
            else:
                prev_same = table.get((r - 1, c), Fraction(0))
                prev_less = table.get((r - 1, c - 1), Fraction(0))
                table[(r, c)] = (prev_same + prev_less) / 2
    return table


def rwm_two_expert_mistakes(labels):
    """Hand simulation of one two-expert instance's expected mistakes.

    Experts predict constant +1 / -1; weights exp(-eta * loss) with
    eta = min(1/2, sqrt(ln2 / (1 + best loss))). Returns the sum over rounds
    of the probability mass on the wrong expert before each reveal.
    """
    loss_plus = 0
    loss_minus = 0
    total = 0.0
    for y in labels:
        eta = min(0.5, math.sqrt(math.log(2.0) / (1.0 + min(loss_plus, loss_minus))))
        w_plus = math.exp(-eta * loss_plus)
        w_minus = math.exp(-eta * loss_minus)
        p_plus = w_plus / (w_plus + w_minus)
        total += (1.0 - p_plus) if y == 1 else p_plus
        if y == 1:
            loss_minus += 1
        else:
            loss_plus += 1
    return total
