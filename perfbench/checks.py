"""Output checks that do not depend on how the program computes its answers.

Every quantity here is recomputed with plain NumPy from the graph, the split
and the returned values, so a later change of solver passes as long as it
returns a correct answer. Each check returns a list of problem strings; an
empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

#: A stationarity residual counts as small when it is within this multiple of
#: the solver tolerance (times the largest degree where the residual is a sum
#: over a node's edges).
SLACK = 10.0


def mcc(predicted, truth):
    """Matthews correlation of two ±1 arrays (0 when a margin is empty)."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    tp = int(np.count_nonzero((predicted == 1) & (truth == 1)))
    tn = int(np.count_nonzero((predicted == -1) & (truth == -1)))
    fp = int(np.count_nonzero((predicted == 1) & (truth == -1)))
    fn = int(np.count_nonzero((predicted == -1) & (truth == 1)))
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    return 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)


def oracle_mcc(params, g, edges):
    """MCC of the Bayes rule sgn(p_i + q_j − 1), sgn(0) = +1, on the given edges."""
    margin = params.p[g.src[edges]] + params.q[g.dst[edges]] - 1.0
    return mcc(np.where(margin >= 0, 1, -1), g.labels[edges])


def psi(g, labels):
    """Smaller of the summed per-node minority sign counts, in and out."""
    n = g.node_count
    pos = np.asarray(labels) == 1
    sides = []
    for ends in (g.src, g.dst):
        total = np.bincount(ends, minlength=n)
        plus = np.bincount(ends[pos], minlength=n)
        sides.append(int(np.minimum(plus, total - plus).sum()))
    return min(sides)


def max_degree(g):
    return int(max(np.bincount(g.src).max(initial=0), np.bincount(g.dst).max(initial=0)))


def prediction_coverage(pred, g, split):
    """The prediction scores exactly the split's test edges, once each, with ±1 labels."""
    test = np.flatnonzero(~np.asarray(split.training_mask))
    edges = np.asarray(pred.edge_indices)
    problems = []
    if not np.array_equal(np.sort(edges), test):
        problems.append(f"{pred.method}: predicted edges differ from the split's test edges")
    elif not (np.array_equal(pred.src, g.src[edges]) and np.array_equal(pred.dst, g.dst[edges])):
        problems.append(f"{pred.method}: predicted endpoints do not match the graph")
    if len(pred.labels) != edges.size or not np.all(np.abs(pred.labels) == 1):
        problems.append(f"{pred.method}: labels are not one ±1 value per test edge")
    return problems


def lp_gradient_norm(g, split, p, q, y_soft):
    """Infinity norm of the gradient of the label-propagation objective.

    The objective is Σ_E (t − (p_i+q_j)/2)² + ½Σ_i [d_out(i)p_i² + d_in(i)q_i²]
    with t = (1+y)/2 on training edges and t free (``y_soft``) on test edges.
    """
    n = g.node_count
    train = np.asarray(split.training_mask)
    t = np.where(train, (1.0 + g.labels) / 2.0, 0.0)
    t[~train] = y_soft
    half = 0.5 * (p[g.src] + q[g.dst]) - t
    gp = np.bincount(g.src, weights=half, minlength=n) + np.bincount(g.src, minlength=n) * p
    gq = np.bincount(g.dst, weights=half, minlength=n) + np.bincount(g.dst, minlength=n) * q
    gt = -2.0 * half[~train]
    return max(np.abs(gp).max(initial=0.0), np.abs(gq).max(initial=0.0),
               np.abs(gt).max(initial=0.0))


def unreg_projected_gradient(g, split, p, q, y_soft):
    """Box-projected gradient norm of Σ_E ((1+y)/2 − (p_i+q_j)/2)².

    y is the label on training edges and free in [−1, 1] on test edges;
    p and q are boxed in [0, 1].
    """
    n = g.node_count
    train = np.asarray(split.training_mask)
    y = g.labels.astype(np.float64)
    y[~train] = y_soft
    half = 0.5 * (p[g.src] + q[g.dst]) - (1.0 + y) / 2.0
    gp = np.bincount(g.src, weights=half, minlength=n)
    gq = np.bincount(g.dst, weights=half, minlength=n)
    gy = -half[~train]
    ys = np.asarray(y_soft)
    return max(np.abs(p - np.clip(p - gp, 0.0, 1.0)).max(initial=0.0),
               np.abs(q - np.clip(q - gq, 0.0, 1.0)).max(initial=0.0),
               np.abs(ys - np.clip(ys - gy, -1.0, 1.0)).max(initial=0.0))


def box_fit_projected_gradient(g, p, q):
    """Box-projected gradient norm of the full-graph fit behind psi2."""
    n = g.node_count
    half = 0.5 * (p[g.src] + q[g.dst]) - (1.0 + g.labels) / 2.0
    gp = np.bincount(g.src, weights=half, minlength=n)
    gq = np.bincount(g.dst, weights=half, minlength=n)
    return max(np.abs(p - np.clip(p - gp, 0.0, 1.0)).max(initial=0.0),
               np.abs(q - np.clip(q - gq, 0.0, 1.0)).max(initial=0.0))


def relabeled_equal(h, g):
    """h holds g's edges and signs, with g's node ids as tokens in any order."""
    if h.node_count != g.node_count or h.edge_count != g.edge_count:
        return False
    original = np.asarray([int(token) for token in h.node_ids], dtype=np.int64)
    n = np.int64(g.node_count)
    ours = original[h.src] * n + original[h.dst]
    theirs = g.src * n + g.dst
    a, b = np.argsort(ours), np.argsort(theirs)
    return (np.array_equal(ours[a], theirs[b])
            and np.array_equal(h.labels[a], g.labels[b]))
