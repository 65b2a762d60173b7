"""The batch fit path against its per-edge references.

``degree_stats`` counts with one keyed ``bincount`` per side, ``logreg_fit``
runs Newton on the distinct feature rows of the training edges, and
``EdgeSplit`` computes its index arrays once; ``tests/oracles.py`` holds the
mask-compacting counts and the per-edge logistic fit they replace. The
models score in place and label with one comparison; the plain expressions
and ``sign_with_tie`` here are the references.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesign import batch
from edgesign.batch import (BlcModel, LogRegModel, LpModel, UnregModel, _distinct_rows,
                            logreg_fit, logreg_predict_split, lp_run, unreg_solve)
from edgesign.features import box_fit_edges, label_targets, minimize_edge_quadratic, troll_trust
from edgesign.genmodel import TwoPointPrior, UniformPrior, make_synthetic, sign_with_tie
from edgesign.graph import EdgeSplit, degree_stats, sample_split

from conftest import make_split, random_graph
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


def models_on(n, rng):
    """One model of each method with per-node values from a small grid, so
    that many scores tie exactly, and a NaN on node 0's out-side."""
    def grid():
        values = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)
        values[0] = np.nan
        return values

    return [BlcModel(tr=grid(), un=grid(), tau=0.25),
            LogRegModel(w0=-0.5, w1=1.5, w2=0.5, threshold=0.0, tr=grid(), un=grid()),
            LpModel(grid(), grid(), 0.0),
            UnregModel(grid(), grid(), 0.0)]


def reference_scores(model, src, dst):
    """Each method's score as the plain expression of its docstring."""
    if isinstance(model, BlcModel):
        return (1.0 - model.tr[src]) + (1.0 - model.un[dst]) - 0.5 - model.tau
    if isinstance(model, LogRegModel):
        return model.w0 + model.w1 * (1.0 - model.tr[src]) + model.w2 * (1.0 - model.un[dst])
    if isinstance(model, LpModel):
        return 0.5 * (model.p[src] + model.q[dst])
    return model.p[src] + model.q[dst] - 1.0


class TestPredictPath:
    @pytest.mark.parametrize("seed", range(3))
    def test_scores_equal_the_plain_expressions_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(40, 300, seed)
        for model in models_on(g.node_count, rng):
            scores = model.score(g.src, g.dst)
            assert scores.dtype == np.float64
            assert np.array_equal(scores, reference_scores(model, g.src, g.dst), equal_nan=True)

    def test_score_takes_scalar_endpoints(self):
        rng = np.random.default_rng(4)
        g = random_graph(12, 60, 4)
        for model in models_on(g.node_count, rng):
            scores = model.score(g.src, g.dst)
            for e in range(g.edge_count):
                one = model.score(int(g.src[e]), int(g.dst[e]))
                assert np.ndim(one) == 0
                assert np.array_equal(one, scores[e], equal_nan=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_labels_are_the_sign_of_score_minus_threshold(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(40, 300, seed)
        split = make_split(rng.random(g.edge_count) < 0.3)
        for model in models_on(g.node_count, rng):
            scores = model.score(g.src, g.dst)
            finite = np.unique(scores[np.isfinite(scores)])
            # every score as a cut, so each one ties with some test edge, plus the sentinels
            cuts = [*finite, 0.0, sys.float_info.max, -sys.float_info.max]
            for cut in cuts:
                model.threshold = float(cut)
                pred = model.predict_split(g, split)
                assert pred.labels.dtype == np.int8
                expected = sign_with_tie(pred.scores - model.threshold).astype(np.int8)
                assert np.array_equal(pred.labels, expected)
            assert np.isnan(pred.scores).any() and pred.labels[np.isnan(pred.scores)].max() == -1

    def test_predictions_do_not_depend_on_the_score_block(self):
        rng = np.random.default_rng(5)
        g = random_graph(40, 300, seed=5)
        split = make_split(rng.random(g.edge_count) < 0.3)
        for model in models_on(g.node_count, rng):
            model.threshold = 0.25
            whole = model.predict_split(g, split)
            with mock.patch.object(batch, "_SCORE_BLOCK", 7):
                blocks = model.predict_split(g, split)
            test = split.test_indices()
            reference = reference_scores(model, g.src[test], g.dst[test])
            for pred in (whole, blocks):
                assert np.array_equal(pred.scores, reference, equal_nan=True)
                assert np.array_equal(pred.src, g.src[test])
                assert np.array_equal(pred.dst, g.dst[test])
            assert np.array_equal(whole.labels, blocks.labels)

    @pytest.mark.parametrize("solver", [lp_run, unreg_solve])
    def test_soft_values_and_cut_do_not_depend_on_the_score_block(self, solver):
        g, _ = make_synthetic(300, TwoPointPrior(0.1, 0.9), 6, seed=2)
        split = sample_split(g, 0.2, seed=3)
        method = LpModel if solver is lp_run else UnregModel
        whole = solver(g, split)
        model = method.fit(g, split)
        with mock.patch.object(batch, "_SCORE_BLOCK", 7):
            blocks = solver(g, split)
            assert method.fit(g, split).threshold == model.threshold
        test = split.test_indices()
        reference = reference_scores(method(whole.p, whole.q, 0.0), g.src[test], g.dst[test])
        assert np.array_equal(whole.y_soft, reference)
        assert np.array_equal(blocks.y_soft, reference)


class TestKernelIterates:
    @pytest.mark.parametrize("box", [True, False])
    def test_callback_iterates_stay_as_they_were_seen(self, box):
        g = random_graph(30, 200, seed=5)
        seen, copies = [], []

        def record(p, q):
            seen.append((p, q))
            copies.append((p.copy(), q.copy()))

        pull = (np.bincount(g.src, minlength=30), np.bincount(g.dst, minlength=30))
        fit = box_fit_edges(g.node_count, g.src, g.dst, label_targets(g.labels),
                            pull=None if box else pull, box=box, callback=record)
        assert len(seen) == fit.iterations > 2
        for (p, q), (p0, q0) in zip(seen, copies):
            assert np.array_equal(p, p0) and np.array_equal(q, q0)
        assert np.array_equal(seen[-1][0], fit.p) and np.array_equal(seen[-1][1], fit.q)

    def test_read_only_and_writable_ids_fit_alike(self):
        g = random_graph(30, 200, seed=6)
        assert not g.src.flags.writeable
        fit = minimize_edge_quadratic(g)
        again = box_fit_edges(g.node_count, g.src.copy(), g.dst.copy(), label_targets(g.labels))
        assert np.array_equal(fit.p, again.p) and fit.value == again.value
