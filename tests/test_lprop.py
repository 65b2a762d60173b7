import inspect
import sys
from dataclasses import replace

import numpy as np
import pytest

from edgesign.batch import (LpModel, LpOptions, UnregModel, UnregOptions, lp_predict, lp_run,
                            unreg_predict, unreg_solve)
from edgesign.errors import ConvergenceError
from edgesign.features import EdgeFit, minimize_edge_quadratic
from edgesign.graph import SignedDigraph, load_edge_list, sample_split

from conftest import make_split, random_graph
from oracles import (batch_mismatch, finite_difference, grid_minimum, lp_gradient, lp_objective,
                     lp_objective_batch, lp_reference_minimize, unreg_box_lsq_minimum,
                     unreg_objective, unreg_objective_batch)


def lp_run_partial(g, split, opt):
    """The fit after ``opt.max_iter`` sweeps, converged or not.

    An unconverged fit carries no ``y_soft``; it gets the lprop score
    (p_i+q_j)/2 of each test edge, which is what :func:`lp_run` returns.
    """
    try:
        return lp_run(g, split, opt)
    except ConvergenceError as err:
        test = split.test_indices()
        model = LpModel(err.state.p, err.state.q, 0.0)
        return replace(err.state, y_soft=model.score(g.src[test], g.dst[test]))


def joint_projected_gradient(g, split, result):
    """Box-projected gradient infinity norm of the unregularized objective in
    (p, q, test y) at ``result``."""
    test = split.test_indices()
    y = g.labels.astype(np.float64)
    y[test] = result.y_soft
    p, q, ys = result.p, result.q, result.y_soft
    half = 0.5 * (p[g.src] + q[g.dst]) - (1.0 + y) / 2.0
    gp = np.bincount(g.src, weights=half, minlength=g.node_count)
    gq = np.bincount(g.dst, weights=half, minlength=g.node_count)
    gy = -half[test]
    return max(np.abs(p - np.clip(p - gp, 0.0, 1.0)).max(),
               np.abs(q - np.clip(q - gq, 0.0, 1.0)).max(),
               np.abs(ys - np.clip(ys - gy, -1.0, 1.0)).max(initial=0.0))


def random_case(n, m, seed, fraction):
    g = random_graph(n, m, seed=seed)
    return g, sample_split(g, fraction, seed=seed + 50)


class TestLpRun:
    def test_single_training_edge_fixed_point(self):
        g = load_edge_list("a\tb\t1\n")
        split = make_split([True])
        state = lp_run(g, split)
        assert abs(state.p[0] - 0.5) <= 1e-12
        assert abs(state.q[1] - 0.5) <= 1e-12
        # fixed point of p = (2 - q)/3, q = (2 - p)/3
        assert abs(state.p[0] - (2.0 - state.q[1]) / 3.0) <= 1e-8

    def test_no_edges(self):
        g = SignedDigraph(3, [], [], [])
        split = make_split(np.zeros(0, dtype=bool))
        state = lp_run(g, split)
        assert state.iterations == 0
        assert np.all(state.p == 0.5) and np.all(state.q == 0.5)

    def test_zero_degree_sides_keep_init(self):
        g = load_edge_list("a\tb\t1\n")
        state = lp_run(g, make_split([True]))
        assert state.q[0] == 0.5  # node a has no incoming edges
        assert state.p[1] == 0.5  # node b has no outgoing edges

    def test_gradient_vanishes_at_fixed_point(self):
        for seed in range(5):
            g = random_graph(15, 50, seed=seed)
            split = sample_split(g, 0.4, seed=seed + 100)
            state = lp_run(g, split, LpOptions(tol=1e-10))
            gp, gq, gt = lp_gradient(g, split, state.p, state.q, state.y_soft)
            assert max(np.abs(gp).max(initial=0), np.abs(gq).max(initial=0),
                       np.abs(gt).max(initial=0)) <= 1e-6

    def test_objective_matches_finite_difference_gradient(self):
        g = random_graph(8, 20, seed=6)
        split = sample_split(g, 0.5, seed=7)
        rng = np.random.default_rng(8)
        n_test = split.test_indices().size
        x0 = rng.uniform(0.1, 0.6, size=16 + n_test)

        def fun(x):
            return lp_objective(g, split, x[:8], x[8:16], x[16:])

        gp, gq, gt = lp_gradient(g, split, x0[:8], x0[8:16], x0[16:])
        fd = finite_difference(fun, x0, h=1e-6)
        assert np.abs(np.concatenate([gp, gq, gt]) - fd).max() <= 1e-5

    def test_objective_nonincreasing_over_sweeps(self):
        g = random_graph(12, 45, seed=9)
        split = sample_split(g, 0.3, seed=10)
        values = []
        for sweeps in range(1, 12):
            state = lp_run_partial(g, split, LpOptions(tol=0.0, max_iter=sweeps))
            assert state.iterations == sweeps
            values.append(lp_objective(g, split, state.p, state.q, state.y_soft))
            assert state.value == pytest.approx(values[-1], rel=1e-12)
        assert np.all(np.diff(values) <= 1e-10)

    @pytest.mark.parametrize("g, split", [
        random_case(12, 45, seed=21, fraction=0.3),
        random_case(12, 45, seed=22, fraction=0.3),
        random_case(12, 45, seed=23, fraction=0.3),
        random_case(40, 160, seed=24, fraction=0.05),
        # c→a and d→e→f touch no training edge, so they are pinned at zero
        # from the start; d has no in-edge and f no out-edge
        (load_edge_list("a\tb\t1\nb\tc\t-1\nc\ta\t1\na\tc\t-1\nd\te\t-1\ne\tf\t1\n"),
         make_split([True, True, False, False, False, False])),
    ], ids=["seed21", "seed22", "seed23", "train5pct", "untrained-component"])
    def test_objective_nonincreasing_on_more_splits(self, g, split):
        values = []
        for sweeps in range(1, 16):
            state = lp_run_partial(g, split, LpOptions(tol=0.0, max_iter=sweeps))
            assert state.iterations <= sweeps
            values.append(lp_objective(g, split, state.p, state.q, state.y_soft))
            assert state.value == pytest.approx(values[-1], rel=1e-12, abs=1e-15)
        assert np.all(np.diff(values) <= 1e-10)

    def test_matches_reference_minimizer(self):
        for seed in range(6):
            g = random_graph(10, 30, seed=seed + 20)
            split = sample_split(g, 0.4, seed=seed + 200)
            state = lp_run(g, split, LpOptions(tol=1e-12, max_iter=20000))
            p, q, t = lp_reference_minimize(g, split)
            assert np.abs(state.p - p).max() <= 1e-6
            assert np.abs(state.q - q).max() <= 1e-6
            if t.size:
                assert np.abs(state.y_soft - t).max() <= 1e-6

    def test_two_variable_instance_matches_grid(self):
        g = load_edge_list("a\tb\t1\n")
        split = make_split([True])

        def fun(x):
            return lp_objective(g, split, np.array([x[0], 0.5]),
                                np.array([0.5, x[1]]), np.zeros(0))

        def fun_batch(x):
            half = np.full(len(x), 0.5)
            return lp_objective_batch(g, split, np.column_stack([x[:, 0], half]),
                                      np.column_stack([half, x[:, 1]]), np.zeros((len(x), 0)))

        bounds = [(-1, 1), (-1, 1)]
        assert batch_mismatch(fun, fun_batch, bounds, 0.001) <= 1e-12
        best_val, best_point = grid_minimum(fun_batch, bounds, 0.001)
        state = lp_run(g, split, LpOptions(tol=1e-12))
        assert abs(state.p[0] - best_point[0]) <= 5e-4
        assert abs(state.q[1] - best_point[1]) <= 5e-4

    def test_untrained_component_settles_at_zero(self):
        g = load_edge_list("a\tb\t1\nc\td\t-1\n")
        split = make_split([True, False])
        state = lp_run(g, split)
        assert state.p[2] == 0.0 and state.q[3] == 0.0
        assert state.y_soft[0] == 0.0
        # and this is where the reference minimizer goes too
        p, q, t = lp_reference_minimize(g, split)
        assert abs(p[2]) <= 1e-6 and abs(q[3]) <= 1e-6 and abs(t[0]) <= 1e-6

    def test_empty_training_set_settles_at_zero(self):
        g = load_edge_list("a\tb\t1\nb\tc\t-1\n")
        state = lp_run(g, make_split([False, False]))
        assert state.iterations == 1
        assert state.p.tolist() == [0.0, 0.0, 0.5] and state.q.tolist() == [0.5, 0.0, 0.0]
        assert state.y_soft.tolist() == [0.0, 0.0] and state.value == 0.0

    def test_untrained_side_in_trained_component_is_exactly_zero(self):
        # one trained component: b's only out-edge and both of c's in-edges
        # are test edges
        g = load_edge_list("a\tb\t1\nb\tc\t-1\nc\ta\t1\na\tc\t-1\nc\td\t1\n")
        split = make_split([True, False, True, False, True])
        state = lp_run(g, split)
        b, c = 1, 2
        assert state.p[b] == 0.0 and state.q[c] == 0.0
        assert state.p[0] != 0.0 and state.q[b] != 0.0
        assert state.p[3] == 0.5  # d has no out-edge
        p, q, _ = lp_reference_minimize(g, split)
        assert abs(p[b]) <= 1e-6 and abs(q[c]) <= 1e-6

    def test_residual_is_the_gradient_norm(self):
        g, split = random_case(30, 120, seed=25, fraction=0.3)
        state = lp_run(g, split, LpOptions(tol=1e-9))
        gp, gq, gt = lp_gradient(g, split, state.p, state.q, state.y_soft)
        norm = max(np.abs(gp).max(), np.abs(gq).max(), np.abs(gt).max(initial=0.0))
        assert state.pg_norm <= 1e-9
        assert abs(norm - state.pg_norm) <= 1e-14

    def test_max_sweeps_error_carries_state(self):
        g = random_graph(20, 80, seed=11)
        split = sample_split(g, 0.3, seed=12)
        with pytest.raises(ConvergenceError) as err:
            lp_run(g, split, LpOptions(tol=1e-14, max_iter=2))
        assert err.value.state is not None
        assert err.value.state.iterations == 2


class TestLpPredict:
    def test_positive_soft_value_with_zero_threshold(self):
        g = load_edge_list("a\tb\t1\na\tc\t1\nb\tc\t-1\nc\ta\t1\n")
        split = make_split([True, True, True, False])
        state = lp_run(g, split)
        pred = lp_predict(LpModel.fit(g, split), g, split)
        assert pred.labels[0] in (-1, 1)
        assert pred.scores[0] == state.y_soft[0]

    def test_all_positive_training_predicts_positive(self):
        g = load_edge_list("a\tb\t1\nb\tc\t1\nc\td\t1\nd\ta\t1\na\tc\t1\n")
        split = make_split([True, True, True, True, False])
        pred = lp_predict(LpModel.fit(g, split), g, split)
        assert pred.threshold == -sys.float_info.max
        assert np.all(pred.labels == 1)

    def test_persisted_model_reproduces_scores_bitwise(self, tmp_path):
        from edgesign.batch import load_model, save_model
        g = random_graph(15, 60, seed=13)
        split = sample_split(g, 0.4, seed=14)
        model = LpModel.fit(g, split)
        pred = lp_predict(model, g, split)
        path = tmp_path / "lp.json"
        save_model(model, path)
        again = load_model(path)
        pred2 = again.predict_split(g, split)
        assert np.array_equal(pred.scores, pred2.scores)
        assert np.array_equal(pred.labels, pred2.labels)


class TestUnreg:
    def test_single_training_edge_objective_vanishes(self):
        g = load_edge_list("a\tb\t1\n")
        split = make_split([True])
        result = unreg_solve(g, split)
        assert result.value <= 1e-12
        assert abs(result.p[0] - 1.0) <= 1e-6
        assert abs(result.q[1] - 1.0) <= 1e-6

    def test_below_lp_unregularized_value(self):
        # the box-constrained optimum cannot exceed the value at the
        # (clipped) propagation fixed point
        for seed in range(5):
            g = random_graph(10, 35, seed=seed + 40)
            split = sample_split(g, 0.5, seed=seed + 400)
            state = lp_run(g, split, LpOptions(tol=1e-10))
            result = unreg_solve(g, split, UnregOptions(tol=1e-8))
            p_clip = np.clip(state.p, 0.0, 1.0)
            q_clip = np.clip(state.q, 0.0, 1.0)
            y_clip = np.clip(2.0 * state.y_soft - 1.0, -1.0, 1.0)
            lp_value = unreg_objective(g, split, p_clip, q_clip, y_clip)
            assert result.value <= lp_value + 1e-9

    def test_two_variable_instance_matches_grid(self):
        g = load_edge_list("a\tb\t1\n")
        split = make_split([True])

        def fun(x):
            return unreg_objective(g, split, np.array([x[0], 0.5]),
                                   np.array([0.5, x[1]]), np.zeros(0))

        def fun_batch(x):
            half = np.full(len(x), 0.5)
            return unreg_objective_batch(g, split, np.column_stack([x[:, 0], half]),
                                         np.column_stack([half, x[:, 1]]), np.zeros((len(x), 0)))

        bounds = [(0, 1), (0, 1)]
        assert batch_mismatch(fun, fun_batch, bounds, 0.001) <= 1e-12
        best_val, _ = grid_minimum(fun_batch, bounds, 0.001)
        result = unreg_solve(g, split)
        assert result.value <= best_val + 1e-9

    def test_four_variable_instance_matches_refined_grid(self):
        # one training edge (a,b,+), one test edge (a,c): vars p_a,q_b,q_c,y
        g = load_edge_list("a\tb\t1\na\tc\t1\n")
        split = make_split([True, False])

        def fun(x):
            return unreg_objective(g, split, np.array([x[0], 0.5, 0.5]),
                                   np.array([0.5, x[1], x[2]]), x[3:])

        def fun_batch(x):
            half = np.full(len(x), 0.5)
            return unreg_objective_batch(g, split, np.column_stack([x[:, 0], half, half]),
                                         np.column_stack([half, x[:, 1], x[:, 2]]), x[:, 3:])

        bounds = [(0, 1), (0, 1), (0, 1), (-1, 1)]
        assert batch_mismatch(fun, fun_batch, bounds, 0.1) <= 1e-12
        coarse_val, coarse_pt = grid_minimum(fun_batch, bounds, 0.1)
        fine_bounds = [(x - 0.1, x + 0.1) for x in coarse_pt]
        assert batch_mismatch(fun, fun_batch, fine_bounds, 0.01) <= 1e-12
        fine_val, _ = grid_minimum(fun_batch, fine_bounds, 0.01)
        result = unreg_solve(g, split)
        assert result.value <= fine_val + 1e-9

    @pytest.mark.parametrize("n, m, seed, fraction", [
        (12, 40, 31, 0.3), (15, 60, 32, 0.5), (20, 50, 33, 0.2), (25, 120, 34, 0.1),
        (30, 150, 35, 0.4)])
    def test_matches_box_lsq_oracle(self, n, m, seed, fraction):
        g, split = random_case(n, m, seed, fraction)
        tol = 1e-10
        result = unreg_solve(g, split, UnregOptions(tol=tol))
        assert abs(result.value - unreg_box_lsq_minimum(g, split)) <= 1e-9
        test, train = split.test_indices(), split.training_indices()
        assert np.array_equal(result.y_soft,
                              result.p[g.src[test]] + result.q[g.dst[test]] - 1.0)
        assert abs(result.value - unreg_objective(g, split, result.p, result.q,
                                                      result.y_soft)) <= 1e-12
        assert joint_projected_gradient(g, split, result) <= tol
        no_out = np.bincount(g.src[train], minlength=n) == 0
        no_in = np.bincount(g.dst[train], minlength=n) == 0
        assert no_out.any() and no_in.any()
        assert np.all(result.p[no_out] == 0.5) and np.all(result.q[no_in] == 0.5)

    def test_budget_exhaustion_carries_result(self):
        g, split = random_case(20, 80, 36, 0.4)
        with pytest.raises(ConvergenceError) as err:
            unreg_solve(g, split, UnregOptions(tol=1e-14, max_iter=2))
        state = err.value.state
        assert isinstance(state, EdgeFit)
        assert state.iterations == 2 and state.pg_norm > 1e-14
        assert state.y_soft is None

    def test_stationarity(self):
        g = random_graph(12, 40, seed=15)
        split = sample_split(g, 0.5, seed=16)
        result = unreg_solve(g, split, UnregOptions(tol=1e-9))
        assert result.pg_norm <= 1e-9

    def test_predict_uses_consistent_scales(self):
        g = random_graph(12, 50, seed=17)
        split = sample_split(g, 0.5, seed=18)
        result = unreg_solve(g, split)
        pred = unreg_predict(UnregModel.fit(g, split), g, split)
        assert np.array_equal(pred.scores, result.y_soft)
        assert set(np.unique(pred.labels)) <= {-1, 1}


@pytest.mark.parametrize("solve", [
    lambda g, split: minimize_edge_quadratic(g, tol=0.0, max_iter=2),
    lambda g, split: lp_run(g, split, LpOptions(tol=0.0, max_iter=2)),
    lambda g, split: unreg_solve(g, split, UnregOptions(tol=0.0, max_iter=2)),
], ids=["psi2", "lprop", "unreg"])
def test_convergence_error_carries_the_kernel_record(solve):
    g, split = random_case(20, 80, 36, 0.4)
    with pytest.raises(ConvergenceError) as err:
        solve(g, split)
    state = err.value.state
    assert type(state) is EdgeFit
    assert state.iterations == 2 and state.y_soft is None


@pytest.mark.parametrize("model, options", [(LpModel, LpOptions), (UnregModel, UnregOptions)])
def test_fit_defaults_are_the_options_defaults(model, options):
    params = inspect.signature(model.fit).parameters
    assert params["tol"].default == options().tol
    assert params["max_iter"].default == options().max_iter
