"""Troll-trust node features and the two label-regularity measures.

Trollness tr(i) is the fraction of node i's outgoing edges labeled −1,
untrustworthiness un(j) the fraction of j's incoming edges labeled −1.
Regularity is measured two ways: the combinatorial count psi_g (summed
per-node minority sign counts, minimized over edge direction) and the
quadratic psi2 (best box-constrained fit of the (p_i+q_j)/2 edge model to
the full labeling).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .graph import degree_stats


@dataclass
class TrollTrust:
    """Per-node trollness/untrustworthiness with measured-vs-default flags."""

    tr: np.ndarray
    un: np.ndarray
    tr_defined: np.ndarray
    un_defined: np.ndarray
    default: float


def troll_trust(g, mask=None, default=0.5):
    """Trollness and untrustworthiness over the masked edge set.

    Nodes with no masked outgoing (incoming) edges get ``default`` and a
    False presence flag.
    """
    if not 0.0 <= default <= 1.0:
        raise ValueError(f"default must lie in [0, 1], got {default}")
    stats = degree_stats(g, mask)
    tr_defined = stats.d_out > 0
    un_defined = stats.d_in > 0
    tr = np.full(g.node_count, default, dtype=np.float64)
    un = np.full(g.node_count, default, dtype=np.float64)
    np.divide(stats.d_out_minus, stats.d_out, out=tr, where=tr_defined)
    np.divide(stats.d_in_minus, stats.d_in, out=un, where=un_defined)
    return TrollTrust(tr=tr, un=un, tr_defined=tr_defined, un_defined=un_defined,
                      default=float(default))


def psi_g(g):
    """(psi_in, psi_out, psi_g): summed per-node minority sign counts.

    psi_in = Σ_j min(d_in^-(j), d_in^+(j)), psi_out symmetrically over
    outgoing edges, psi_g = min of the two.
    """
    return psi_g_for_labels(g, g.labels)


def psi_g_for_labels(g, labels):
    """Same measures for an alternative labeling of g's topology."""
    labels = np.asarray(labels)
    n = g.node_count
    pos = labels == 1
    d_out = np.bincount(g.src, minlength=n)
    d_in = np.bincount(g.dst, minlength=n)
    d_out_plus = np.bincount(g.src[pos], minlength=n)
    d_in_plus = np.bincount(g.dst[pos], minlength=n)
    p_in = int(np.minimum(d_in - d_in_plus, d_in_plus).sum())
    p_out = int(np.minimum(d_out - d_out_plus, d_out_plus).sum())
    return p_in, p_out, min(p_in, p_out)


@dataclass
class BoxLsResult:
    """Solution of the box-constrained edge quadratic fit."""

    value: float
    p: np.ndarray
    q: np.ndarray
    iterations: int
    pg_norm: float
    trace: list


def _edge_quadratic_value(targets, src, dst, p, q):
    r = targets - 0.5 * (p[src] + q[dst])
    return float(r @ r)


def _edge_quadratic_pg_norm(targets, src, dst, p, q, n):
    # residual convention: grad_p[i] = sum over out-edges of ((p_i+q_j)/2 - t)
    half = 0.5 * (p[src] + q[dst]) - targets
    gp = np.bincount(src, weights=half, minlength=n)
    gq = np.bincount(dst, weights=half, minlength=n)
    pg_p = p - np.clip(p - gp, 0.0, 1.0)
    pg_q = q - np.clip(q - gq, 0.0, 1.0)
    return max(np.abs(pg_p).max(initial=0.0), np.abs(pg_q).max(initial=0.0))


def box_fit_edges(n, src, dst, targets, tol=1e-8, max_iter=10000, keep_trace=True):
    """Minimize Σ_e (t_e − (p_i+q_j)/2)² over p, q ∈ [0,1]^n for edges e = (i, j).

    ``src``, ``dst`` and ``targets`` list the fitted edges. Alternating exact
    block minimization: given q, every p_i has the closed-form constrained optimum
    clip(mean_j(2t_ij − q_j), 0, 1), and symmetrically for q given p. Each
    block update can only decrease the objective, so the per-sweep value
    trace is monotone. Nodes with no fitted out-edge (in-edge) keep p (q) at
    its start value 1/2. Stops when the projected-gradient infinity norm
    drops to ``tol``.

    Raises ConvergenceError carrying the last iterate as a :class:`BoxLsResult`
    (``state``) and its value (``best_value``) if ``max_iter`` sweeps are
    exhausted.
    """
    d_out = np.bincount(src, minlength=n).astype(np.float64)
    d_in = np.bincount(dst, minlength=n).astype(np.float64)
    has_out = d_out > 0
    has_in = d_in > 0
    p = np.full(n, 0.5)
    q = np.full(n, 0.5)
    trace = []
    if len(src) == 0:
        return BoxLsResult(0.0, p, q, 0, 0.0, trace)
    sum_out_t = np.bincount(src, weights=targets, minlength=n)
    sum_in_t = np.bincount(dst, weights=targets, minlength=n)
    pg = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        num_p = 2.0 * sum_out_t - np.bincount(src, weights=q[dst], minlength=n)
        np.clip(np.divide(num_p, d_out, out=num_p, where=has_out), 0.0, 1.0, out=num_p)
        p = np.where(has_out, num_p, p)
        num_q = 2.0 * sum_in_t - np.bincount(dst, weights=p[src], minlength=n)
        np.clip(np.divide(num_q, d_in, out=num_q, where=has_in), 0.0, 1.0, out=num_q)
        q = np.where(has_in, num_q, q)
        if keep_trace:
            trace.append(_edge_quadratic_value(targets, src, dst, p, q))
        pg = _edge_quadratic_pg_norm(targets, src, dst, p, q, n)
        if pg <= tol:
            return BoxLsResult(_edge_quadratic_value(targets, src, dst, p, q),
                               p, q, it, float(pg), trace)
    value = _edge_quadratic_value(targets, src, dst, p, q)
    raise ConvergenceError(
        f"box-constrained fit not stationary after {max_iter} sweeps (pg={pg:.3g})",
        state=BoxLsResult(value, p, q, it, float(pg), trace), best_value=value)


def minimize_edge_quadratic(g, tol=1e-8, max_iter=10000, keep_trace=True):
    """Minimize Σ_E ((1+y)/2 − (p_i+q_j)/2)² over p, q ∈ [0,1]^|V|.

    :func:`box_fit_edges` on every edge of g with its label target.
    """
    targets = (1.0 + g.labels.astype(np.float64)) / 2.0
    return box_fit_edges(g.node_count, g.src, g.dst, targets, tol=tol,
                         max_iter=max_iter, keep_trace=keep_trace)


def psi2(g, tol=1e-8, max_iter=10000):
    """Quadratic regularity: min over (p,q) ∈ [0,1]² of the full-graph fit."""
    return minimize_edge_quadratic(g, tol=tol, max_iter=max_iter, keep_trace=False).value


@dataclass
class RegularityReport:
    """Both regularity measures plus their per-edge rates."""

    psi_in: int
    psi_out: int
    psi_g: int
    psi2: float
    psi_g_rate: float
    psi2_rate: float

    def to_json_dict(self):
        return {
            "psi_in": self.psi_in,
            "psi_out": self.psi_out,
            "psi_g": self.psi_g,
            "psi2": self.psi2,
            "psi_g_rate": self.psi_g_rate,
            "psi2_rate": self.psi2_rate,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def regularity_report(g, tol=1e-8, max_iter=10000, include_psi2=True):
    """Compute the full regularity report for a labeled graph."""
    p_in, p_out, p_g = psi_g(g)
    m = max(g.edge_count, 1)
    value = psi2(g, tol=tol, max_iter=max_iter) if include_psi2 else float("nan")
    return RegularityReport(
        psi_in=p_in, psi_out=p_out, psi_g=p_g, psi2=value,
        psi_g_rate=p_g / m, psi2_rate=value / m,
    )
