"""Edge-to-node graph transformations and the cutsize diagnostic.

Both transforms replace each original node i by two circle copies (i_in,
i_out) and each directed edge (i, j) by a square node carrying the edge's
label. The unweighted variant connects i_out — square — j_in; the weighted
variant additionally shortcuts i_out — j_in with weight −1 while the two
path edges get weight +2. Node ordering is [all i_in][all i_out][all
squares in edge order], so index arithmetic is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class GPrime:
    """Unweighted edge-to-node transform: 2|V|+|E| nodes, 2|E| edges."""

    original_node_count: int
    original_edge_count: int
    u: np.ndarray
    v: np.ndarray
    square_labels: np.ndarray

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


@dataclass
class GSecond:
    """Weighted variant: the 2|E| path edges at +2 plus |E| shortcuts at −1."""

    original_node_count: int
    original_edge_count: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    square_labels: np.ndarray

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
    """Build the unweighted transform; square node k carries label of edge k."""
    u, v = _path_edges(g)
    return GPrime(g.node_count, g.edge_count, u, v, g.labels.copy())


def to_gsecond(g):
    """Build the weighted transform; restricted to +2 edges it equals to_gprime."""
    n, m = g.node_count, g.edge_count
    pu, pv = _path_edges(g)
    u = np.concatenate([pu, n + g.src])
    v = np.concatenate([pv, g.dst])
    w = np.concatenate([np.full(2 * m, 2.0), np.full(m, -1.0)])
    return GSecond(n, m, u, v, w, g.labels.copy())


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

