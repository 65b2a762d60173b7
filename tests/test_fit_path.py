"""The batch fit path against its per-edge references.

``degree_stats`` counts with one keyed ``bincount`` per side, ``logreg_fit``
runs Newton on the distinct feature rows of the training edges, and
``EdgeSplit`` computes its index arrays once; ``tests/oracles.py`` holds the
mask-compacting counts and the per-edge logistic fit they replace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesign.batch import LogRegModel, _distinct_rows, logreg_fit, logreg_predict_split
from edgesign.features import troll_trust
from edgesign.genmodel import TwoPointPrior, UniformPrior, make_synthetic
from edgesign.graph import EdgeSplit, degree_stats, sample_split

from conftest import random_graph
from oracles import degree_stats_reference, logreg_fit_reference


@st.composite
def graphs_and_masks(draw):
    n = draw(st.integers(2, 30))
    m = draw(st.integers(0, 80))
    g = random_graph(n, m, seed=draw(st.integers(0, 2 ** 16)),
                     neg_rate=draw(st.sampled_from([0.0, 0.3, 1.0])))
    kind = draw(st.sampled_from(["none", "all-false", "all-true", "random"]))
    if kind == "none":
        return g, None
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        return g, rng.random(g.edge_count) < draw(st.floats(0.0, 1.0))
    return g, np.full(g.edge_count, kind == "all-true")


class TestDegreeStats:
    @settings(max_examples=200, deadline=None)
    @given(graphs_and_masks())
    def test_counts_equal_the_mask_compacting_reference(self, case):
        g, mask = case
        ours, ref = degree_stats(g, mask), degree_stats_reference(g, mask)
        assert len(ours) == 2
        for side, table, expected in zip(("out", "into"), ours, ref):
            assert table.shape == (g.node_count, 2), side
            assert np.array_equal(table, expected), side


def _synthetic(n, prior):
    return make_synthetic(n, prior, 10, seed=0)[0]


GRAPHS = {"uniform-20k": lambda: _synthetic(20000, UniformPrior()),
          "two-point-20k": lambda: _synthetic(20000, TwoPointPrior(0.1, 0.9)),
          "uniform-500": lambda: _synthetic(500, UniformPrior()),
          "two-point-500": lambda: _synthetic(500, TwoPointPrior(0.1, 0.9))}


@pytest.fixture(scope="module", params=list(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


class TestGroupedLogReg:
    @pytest.mark.parametrize("fraction", [0.05, 0.15, 0.25])
    def test_matches_the_per_edge_fit(self, graph, fraction):
        split = sample_split(graph, fraction, seed=1)
        model = logreg_fit(graph, split)
        w, threshold = logreg_fit_reference(graph, split)
        ours = np.array([model.w0, model.w1, model.w2])
        # the per-edge gradient and Hessian of the mean negative log-likelihood
        train = split.training_indices()
        X = np.column_stack([np.ones(train.size), 1.0 - model.tr[graph.src[train]],
                             1.0 - model.un[graph.dst[train]]])
        y01 = graph.labels[train] == 1
        s = 1.0 / (1.0 + np.exp(-(X @ ours)))
        assert np.abs(X.T @ (s - y01) / train.size).max() <= 1e-8  # logreg_fit's tol
        s = 1.0 / (1.0 + np.exp(-(X @ w)))
        hess = (X * (s * (1.0 - s))[:, None]).T @ X / train.size
        # summation order moves a solution by about cond(H)·eps; 1e-12 unless H is
        # ill-conditioned, as on a nearly separable training set
        rel = max(1e-12, np.finfo(float).eps * np.linalg.cond(hess))
        assert np.all(np.abs(ours - w) <= rel * np.abs(w))
        assert abs(model.threshold - threshold) <= rel * max(1.0, abs(threshold))
        reference = LogRegModel(w0=w[0], w1=w[1], w2=w[2], threshold=threshold,
                                tr=model.tr, un=model.un)
        assert np.array_equal(logreg_predict_split(model, graph, split).labels,
                              logreg_predict_split(reference, graph, split).labels)

    @pytest.mark.parametrize("fraction", [0.05, 0.25])
    def test_distinct_rows_expand_to_the_edge_rows(self, graph, fraction):
        split = sample_split(graph, fraction, seed=2)
        train = split.training_indices()
        tr, un = troll_trust(graph, split.training_mask)
        src, dst, y = graph.src[train], graph.dst[train], graph.labels[train]
        X, y01, counts = _distinct_rows(tr, un, src, dst, y == 1)
        rows = np.column_stack([X[:, 1:], y01])
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]  # distinct
        assert np.all(X[:, 0] == 1.0) and np.all(counts >= 1)
        edges = np.column_stack([1.0 - tr[src], 1.0 - un[dst], (y == 1).astype(float)])
        expanded = np.repeat(rows, counts.astype(int), axis=0)
        assert np.array_equal(expanded[np.lexsort(expanded.T)], edges[np.lexsort(edges.T)])


class TestEdgeSplit:
    def test_arrays_refuse_writes_and_the_callers_mask_does_not(self):
        mask = np.array([True, False, True, False, False])
        split = EdgeSplit(mask, 0.4, 0)
        for array in (split.training_mask, split.training_indices(), split.test_indices()):
            with pytest.raises(ValueError):
                array[0] = array[1]
        mask[1] = True  # still the caller's own, writable array
        assert split.training_indices().tolist() == [0, 2]

    def test_indices_are_computed_once_and_equal_flatnonzero(self):
        g = random_graph(30, 120, seed=3)
        split = sample_split(g, 0.3, seed=4)
        assert split.training_indices() is split.training_indices()
        assert split.test_indices() is split.test_indices()
        assert np.array_equal(split.training_indices(), np.flatnonzero(split.training_mask))
        assert np.array_equal(split.test_indices(), np.flatnonzero(~split.training_mask))
        assert split.n_training == split.training_indices().size
