"""Troll-trust node features and the two label-regularity measures.

Trollness tr(i) is the fraction of node i's outgoing edges labeled −1,
untrustworthiness un(j) the fraction of j's incoming edges labeled −1.
Regularity is measured two ways: the combinatorial count psi_g (summed
per-node minority sign counts, minimized over edge direction) and the
quadratic psi2 (best box-constrained fit of the (p_i+q_j)/2 edge model to
the full labeling).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError
from .graph import degree_stats


#: tr and un of a node with no masked out- (in-) edge: the uninformed rate 1/2.
UNSEEN_RATE = 0.5


def troll_trust(g, mask=None):
    """(tr, un): trollness and untrustworthiness over the masked edge set.

    Each is a side's negative count over its total (:func:`graph.degree_stats`);
    nodes with no masked outgoing (incoming) edges get :data:`UNSEEN_RATE`.
    """
    tr, un = np.full(g.node_count, UNSEEN_RATE), np.full(g.node_count, UNSEEN_RATE)
    for rate, counts in zip((tr, un), degree_stats(g, mask)):
        total = counts[:, 0] + counts[:, 1]
        np.divide(counts[:, 0], total, out=rate, where=total > 0)
    return tr, un


def psi_g(g, labels=None):
    """(psi_in, psi_out, psi_g): summed per-node minority sign counts.

    psi_in = Σ_j min(d_in^-(j), d_in^+(j)), psi_out symmetrically over
    outgoing edges, psi_g = min of the two. The labels are ``labels`` on
    g's topology when given, else g's own.
    """
    out, into = degree_stats(g if labels is None else g.with_labels(labels))
    p_in = int(np.minimum(into[:, 0], into[:, 1]).sum())
    p_out = int(np.minimum(out[:, 0], out[:, 1]).sum())
    return p_in, p_out, min(p_in, p_out)


@dataclass
class EdgeFit:
    """A fit of the edge quadratic: the one record every edge-quadratic solver returns.

    ``value`` is the objective at (p, q), ``pg_norm`` the stationarity
    measure the sweeps stopped on. ``y_soft`` holds the soft values of the
    test edges for :func:`batch.lp_run` and :func:`batch.unreg_solve`, ordered
    like ``split.test_indices()``; it is None for a bare kernel fit and for
    the record a ConvergenceError carries.
    """

    p: np.ndarray
    q: np.ndarray
    value: float
    iterations: int
    pg_norm: float
    y_soft: np.ndarray | None = None


def label_targets(labels):
    """The fit target (1+y)/2 of each ±1 label y, as a new float array."""
    targets = labels.astype(np.float64)
    targets += 1.0
    targets /= 2.0
    return targets


def box_fit_edges(n, src, dst, targets, pull=None, box=True, tol=1e-8, max_iter=10000,
                  callback=None):
    """Minimize Σ_e (t_e − (p_i+q_j)/2)² + ½Σ_i [w_out(i)p_i² + w_in(i)q_i²] over p, q.

    ``src``, ``dst`` and ``targets`` list the fitted edges e = (i, j);
    ``pull`` is the pair (w_out, w_in) of nonnegative per-node weights, zero
    when omitted. With ``box`` every p_i and q_i is held in [0, 1], else they
    are free. Alternating exact block minimization: given q, every p_i has
    the closed-form optimum (2Σ_out t − Σ_out q_j) / (d_out(i) + 2w_out(i)),
    clipped to [0, 1] with ``box``, and symmetrically for q given the new p.
    No block step can raise the objective, so its per-sweep value is
    nonincreasing; ``callback(p, q)``, when given, sees every sweep's
    iterate. A node with neither a fitted out-edge nor an out-pull keeps p
    at its start value 1/2, and likewise for q.

    After its own step the q block is stationary, so the (projected)
    gradient infinity norm of the p block is the stationarity measure; it
    comes from the Σ_out q_j that the next p step needs anyway. Stops when
    it drops to ``tol``. Returns an :class:`EdgeFit`; raises ConvergenceError
    carrying the last iterate and its value as an :class:`EdgeFit`
    (``state``) if ``max_iter`` sweeps are exhausted.
    """
    # np.bincount and np.take copy an index array they cannot write to on every
    # call; a graph's own ids are read-only, so they are copied once here instead
    src = np.require(src, np.intp, "W")
    dst = np.require(dst, np.intp, "W")
    # denominators of the block steps: fitted degree plus twice the pull
    den_p = np.bincount(src, minlength=n).astype(np.float64)
    den_q = np.bincount(dst, minlength=n).astype(np.float64)
    if pull is not None:
        den_p += 2.0 * pull[0]
        den_q += 2.0 * pull[1]
    has_out = den_p > 0
    has_in = den_q > 0
    p = np.full(n, 0.5)
    q = np.full(n, 0.5)
    # every gather of p[src] or q[dst] lands in this one buffer, so the sweeps
    # allocate no edge-sized array; mode="wrap" never wraps the ids (all below n),
    # and unlike the default "raise" it writes into ``out`` without a buffered copy
    gathered = np.empty(len(src))

    def gather(values, ids):
        return values.take(ids, out=gathered, mode="wrap")

    def value():
        r = q.take(dst, mode="wrap")
        r += gather(p, src)
        r *= 0.5
        np.subtract(targets, r, out=r)
        if pull is None:
            return float(r @ r)
        return float(r @ r + 0.5 * (pull[0] @ (p * p) + pull[1] @ (q * q)))

    if not (has_out.any() or has_in.any()):
        return EdgeFit(p, q, value(), 0, 0.0)
    sum_out_t = np.bincount(src, weights=targets, minlength=n)
    twice_out_t = 2.0 * sum_out_t
    twice_in_t = 2.0 * np.bincount(dst, weights=targets, minlength=n)
    sum_out_q = np.bincount(src, weights=gather(q, dst), minlength=n)
    # node-sized work arrays, filled in place; p and q are new arrays every
    # sweep, so an iterate the callback keeps is never overwritten
    num = np.empty(n)
    grad = np.empty(n)
    pg = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        np.subtract(twice_out_t, sum_out_q, out=num)
        np.divide(num, den_p, out=num, where=has_out)
        if box:
            np.clip(num, 0.0, 1.0, out=num)
        p = np.where(has_out, num, p)
        np.subtract(twice_in_t, np.bincount(dst, weights=gather(p, src), minlength=n), out=num)
        np.divide(num, den_q, out=num, where=has_in)
        if box:
            np.clip(num, 0.0, 1.0, out=num)
        q = np.where(has_in, num, q)
        sum_out_q = np.bincount(src, weights=gather(q, dst), minlength=n)
        # the p-block gradient 0.5·(den_p·p + Σ_out q) − Σ_out t, projected with ``box``
        np.multiply(den_p, p, out=grad)
        grad += sum_out_q
        grad *= 0.5
        grad -= sum_out_t
        if box:
            np.subtract(p, grad, out=grad)
            np.clip(grad, 0.0, 1.0, out=grad)
            np.subtract(p, grad, out=grad)
        pg = np.abs(grad, out=grad).max()
        if callback is not None:
            callback(p, q)
        if pg <= tol:
            return EdgeFit(p, q, value(), it, float(pg))
    raise ConvergenceError(
        f"edge-quadratic fit not stationary after {max_iter} sweeps (gradient {pg:.3g})",
        state=EdgeFit(p, q, value(), it, float(pg)))


def minimize_edge_quadratic(g, tol=1e-8, max_iter=10000, callback=None):
    """Minimize Σ_E ((1+y)/2 − (p_i+q_j)/2)² over p, q ∈ [0,1]^|V|.

    :func:`box_fit_edges` on every edge of g with its label target.
    """
    return box_fit_edges(g.node_count, g.src, g.dst, label_targets(g.labels), tol=tol,
                         max_iter=max_iter, callback=callback)


def psi2(g):
    """Quadratic regularity: min over (p,q) ∈ [0,1]² of the full-graph fit."""
    return minimize_edge_quadratic(g).value


@dataclass
class RegularityReport:
    """Both regularity measures plus their per-edge rates; ``psi2`` is None when not computed."""

    psi_in: int
    psi_out: int
    psi_g: int
    psi2: float | None
    psi_g_rate: float
    psi2_rate: float | None

    def to_json_dict(self):
        return asdict(self)


def regularity_report(g, include_psi2=True):
    """Compute the regularity report for a labeled graph; without ``include_psi2``
    its ``psi2`` and ``psi2_rate`` are None."""
    p_in, p_out, p_g = psi_g(g)
    m = max(g.edge_count, 1)
    value = psi2(g) if include_psi2 else None
    return RegularityReport(
        psi_in=p_in, psi_out=p_out, psi_g=p_g, psi2=value,
        psi_g_rate=p_g / m, psi2_rate=None if value is None else value / m,
    )
