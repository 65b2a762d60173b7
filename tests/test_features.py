import numpy as np
import pytest

from edgesign.errors import ConvergenceError
from edgesign.features import (minimize_edge_quadratic, psi2, psi_g, regularity_report,
                               troll_trust)
from edgesign.genmodel import TwoPointPrior, UniformPrior, eq1_rates, make_synthetic, sample_labels
from edgesign.graph import SignedDigraph, degree_stats, load_edge_list

from conftest import make_split, random_graph
from oracles import batch_mismatch, grid_minimum, unreg_objective


class TestTrollTrust:
    def test_hand_graph(self, hand_graph):
        tr, un = troll_trust(hand_graph)
        a, b, c = 0, 1, 2
        assert tr[a] == 0.5
        assert tr[c] == 1.0
        assert un[b] == 0.5

    def test_default_on_uncovered_node(self, hand_graph):
        tr, un = troll_trust(hand_graph)
        out, into = degree_stats(hand_graph)
        # node a has no incoming edges
        assert un[0] == 0.5
        assert into[0].sum() == 0
        assert out[0].sum() > 0

    def test_all_positive_graph(self):
        g = load_edge_list("a\tb\t1\nb\tc\t1\nc\ta\t1\n")
        tr, _ = troll_trust(g)
        out, _ = degree_stats(g)
        assert np.all(tr[out.sum(axis=1) > 0] == 0.0)

    @pytest.mark.parametrize("prior", [UniformPrior(), TwoPointPrior(0.1, 0.9)],
                             ids=["uniform", "two-point"])
    def test_expected_trust_is_the_eq1_rate_of_every_node(self, prior):
        # E[1 - tr(i)] is the out rate of Eq. (1) and E[1 - un(j)] the in rate:
        # each is a mean of d independent +1 indicators with rates eta_e
        g, params = make_synthetic(200, prior, 8, seed=11)
        rounds = 400
        trust = np.zeros(g.node_count)
        trusted = np.zeros(g.node_count)
        for seed in range(rounds):
            tr, un = troll_trust(g.with_labels(sample_labels(g, params, seed=seed)))
            trust += 1.0 - tr
            trusted += 1.0 - un
        eta = 0.5 * (params.p[g.src] + params.q[g.dst])
        n = g.node_count
        for ends, mean, rate in ((g.src, trust / rounds, eq1_rates(g, params)[0]),
                                 (g.dst, trusted / rounds, eq1_rates(g, params)[1])):
            d = np.bincount(ends, minlength=n)
            seen = d > 0
            assert np.array_equal(seen, ~np.isnan(rate))
            var = np.bincount(ends, weights=eta * (1.0 - eta), minlength=n)[seen] / (
                d[seen] ** 2 * rounds)
            assert np.all(np.abs(mean[seen] - rate[seen]) <= 5.0 * np.sqrt(var))



class TestPsiG:
    def test_hand_graph(self, hand_graph):
        psi_in, psi_out, psi = psi_g(hand_graph)
        assert (psi_in, psi_out, psi) == (2, 1, 1)

    def test_all_positive(self):
        g = load_edge_list("a\tb\t1\nb\tc\t1\n")
        assert psi_g(g)[2] == 0

    def test_global_flip_invariance(self):
        g = random_graph(20, 80, seed=0)
        flipped = g.with_labels(-g.labels)
        assert psi_g(g)[2] == psi_g(flipped)[2]

    def test_range(self):
        g = random_graph(15, 60, seed=1)
        _, _, psi = psi_g(g)
        assert 0 <= psi <= g.edge_count // 2

    @pytest.mark.parametrize("seed", range(3))
    def test_explicit_labeling_is_the_relabeled_graphs(self, seed):
        g = random_graph(30, 120, seed=seed)
        labels = np.random.default_rng(seed + 10).choice(np.array([-1, 1], dtype=np.int8),
                                                         g.edge_count)
        assert not np.array_equal(labels, g.labels)
        assert psi_g(g, labels) == psi_g(g.with_labels(labels))


class TestPsi2:
    def test_single_positive_edge_vanishes(self):
        g = load_edge_list("a\tb\t1\n")
        assert psi2(g) < 1e-12

    def test_two_edge_instance_matches_grid(self):
        # independent 0.01-grid oracle over (p_a, q_b, q_c)
        g = load_edge_list("a\tb\t1\na\tc\t-1\n")

        def objective(x):
            pa, qb, qc = x.T
            return (1.0 - (pa + qb) / 2) ** 2 + (0.0 - (pa + qc) / 2) ** 2

        every_edge_trains = make_split([True, True])

        def fit_value(x):
            return unreg_objective(g, every_edge_trains, np.array([x[0], 0.5, 0.5]),
                                   np.array([0.5, x[1], x[2]]), np.zeros(0))

        bounds = [(0, 1)] * 3
        assert batch_mismatch(fit_value, objective, bounds, 0.01) <= 1e-12
        best, _ = grid_minimum(objective, bounds, 0.01)
        value = psi2(g)
        assert abs(value - best) <= 1e-4
        assert abs(value - 0.125) <= 1e-9

    def test_never_exceeds_explicit_point(self):
        # at p = q = 1/2 the objective equals |E|/4
        for seed in range(3):
            g = random_graph(15, 50, seed=seed)
            assert psi2(g) <= g.edge_count / 4 + 1e-9

    def test_monotone_descent_trace(self):
        g = random_graph(20, 90, seed=3)
        t = (1.0 + g.labels) / 2.0
        trace = []

        def record(p, q):
            trace.append(float(np.sum((t - 0.5 * (p[g.src] + q[g.dst])) ** 2)))

        result = minimize_edge_quadratic(g, callback=record)
        assert len(trace) == result.iterations
        assert trace[-1] == pytest.approx(result.value, rel=1e-12)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_majority_construction_upper_bound(self):
        # the solution can only improve on the majority-vote point
        for seed in range(3):
            g = random_graph(12, 40, seed=seed)
            out, into = degree_stats(g)
            p = np.where(out[:, 1] >= out[:, 0], 1.0, 0.0)
            q = np.where(into[:, 1] >= into[:, 0], 1.0, 0.0)
            t = (1.0 + g.labels) / 2.0
            explicit = float(np.sum((t - 0.5 * (p[g.src] + q[g.dst])) ** 2))
            assert psi2(g) <= explicit + 1e-12

    def test_nonconvergence_carries_best_value(self):
        g = random_graph(30, 120, seed=4)
        with pytest.raises(ConvergenceError) as err:
            minimize_edge_quadratic(g, tol=0.0, max_iter=2)
        assert err.value.state.value <= g.edge_count / 4 + 1e-9


class TestRegularityReport:
    def test_fields_consistent(self):
        g = random_graph(20, 70, seed=5)
        rep = regularity_report(g)
        assert rep.psi_g == min(rep.psi_in, rep.psi_out)
        assert rep.psi_g_rate == rep.psi_g / g.edge_count
        assert rep.psi2_rate == rep.psi2 / g.edge_count
        payload = rep.to_json_dict()
        assert set(payload) == {"psi_in", "psi_out", "psi_g", "psi2",
                                "psi_g_rate", "psi2_rate"}
