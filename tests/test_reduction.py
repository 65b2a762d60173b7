import numpy as np
import pytest

from edgesign.errors import DataError
from edgesign.graph import load_edge_list, sample_split

from conftest import random_graph
from oracles import cutsize, lp_objective, to_gprime, to_gsecond


class TestToGPrime:
    def test_sizes(self, hand_graph):
        gp = to_gprime(hand_graph)
        assert gp.node_count == 2 * 3 + 4 == 10
        assert gp.edge_count == 8

    def test_square_labels_copied(self, hand_graph):
        gp = to_gprime(hand_graph)
        assert np.array_equal(gp.square_labels, hand_graph.labels)

    def test_isolated_copies_for_untouched_node(self):
        g = load_edge_list("a\tb\t1\n")
        # add an isolated node by loading a conflict pair that registers c, d
        g2 = load_edge_list("a\tb\t1\nc\td\t1\nc\td\t-1\n")
        gp = to_gprime(g2)
        deg = np.bincount(np.concatenate([gp.u, gp.v]), minlength=gp.node_count)
        assert deg[gp.in_copy(2)] == 0 and deg[gp.out_copy(2)] == 0

    def test_empty_edge_set(self):
        g = load_edge_list("a\tb\t1\na\tb\t-1\n")
        gp = to_gprime(g)
        assert gp.node_count == 2 * g.node_count
        assert gp.edge_count == 0

    def test_degrees(self):
        g = random_graph(12, 40, seed=0)
        gp = to_gprime(g)
        deg = np.bincount(np.concatenate([gp.u, gp.v]), minlength=gp.node_count)
        n = g.node_count
        for k in range(g.edge_count):
            assert deg[gp.square(k)] == 2
        d_out = np.bincount(g.src, minlength=n)
        d_in = np.bincount(g.dst, minlength=n)
        for i in range(n):
            assert deg[gp.out_copy(i)] == d_out[i]
            assert deg[gp.in_copy(i)] == d_in[i]


class TestToGSecond:
    def test_sizes_and_weights(self, hand_graph):
        gs = to_gsecond(hand_graph)
        assert gs.edge_count == 12
        assert np.count_nonzero(gs.w == 2.0) == 8
        assert np.count_nonzero(gs.w == -1.0) == 4

    def test_single_edge_structure(self):
        g = load_edge_list("a\tb\t1\n")
        gs = to_gsecond(g)
        triples = set(zip(gs.u.tolist(), gs.v.tolist(), gs.w.tolist()))
        a_out, b_in, e = gs.out_copy(0), gs.in_copy(1), gs.square(0)
        assert triples == {(a_out, e, 2.0), (e, b_in, 2.0), (a_out, b_in, -1.0)}

    def test_one_shortcut_per_edge(self):
        g = random_graph(10, 35, seed=1)
        gs = to_gsecond(g)
        assert np.count_nonzero(gs.w == -1.0) == g.edge_count

    def test_positive_part_is_gprime(self):
        g = random_graph(10, 35, seed=2)
        gp = to_gprime(g)
        gs = to_gsecond(g)
        keep = gs.w == 2.0
        assert np.array_equal(gs.u[keep], gp.u)
        assert np.array_equal(gs.v[keep], gp.v)


@pytest.mark.parametrize("seed", range(20))
def test_lp_objective_is_the_gsecond_energy_plus_degree_pull(seed):
    # label propagation on G'': f = [q | p | t] over in-copies, out-copies and
    # squares; the +2 path edges and the -1 shortcut of edge (i, j) give
    # 2(p_i - t)^2 + 2(t - q_j)^2 - (p_i - q_j)^2 = 4(t - (p_i + q_j)/2)^2
    rng = np.random.default_rng(seed)
    g = random_graph(int(rng.integers(5, 40)), int(rng.integers(10, 150)), seed=seed)
    split = sample_split(g, 0.3, seed=seed + 1)
    n = g.node_count
    p, q = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    y_soft = rng.uniform(-1.0, 1.0, split.test_indices().size)
    t = (1.0 + g.labels) / 2.0
    t[split.test_indices()] = y_soft
    f = np.concatenate([q, p, t])
    gs = to_gsecond(g)
    energy = 0.25 * float(gs.w @ (f[gs.u] - f[gs.v]) ** 2)
    pull = 0.5 * float(np.bincount(g.src, minlength=n) @ p ** 2
                       + np.bincount(g.dst, minlength=n) @ q ** 2)
    value = lp_objective(g, split, p, q, y_soft)
    assert abs(value - (energy + pull)) <= 1e-12 * value


class TestCutsize:
    def test_all_positive_zero(self, hand_graph):
        gp = to_gprime(hand_graph)
        assert cutsize(gp, np.ones(gp.node_count, dtype=int)) == 0

    def test_single_edge_path(self):
        g = load_edge_list("a\tb\t1\n")
        gp = to_gprime(g)
        labels = np.ones(gp.node_count, dtype=int)
        labels[gp.square(0)] = -1
        assert cutsize(gp, labels) == 2

    def test_matches_brute_force(self):
        g = random_graph(8, 25, seed=3)
        gp = to_gprime(g)
        rng = np.random.default_rng(0)
        labels = rng.choice([-1, 1], size=gp.node_count)
        brute = sum(1 for a, b in zip(gp.u, gp.v) if labels[a] != labels[b])
        assert cutsize(gp, labels) == brute

    def test_flip_invariance(self):
        g = random_graph(8, 25, seed=4)
        gp = to_gprime(g)
        rng = np.random.default_rng(1)
        labels = rng.choice([-1, 1], size=gp.node_count)
        assert cutsize(gp, labels) == cutsize(gp, -labels)

    def test_requires_full_labels(self, hand_graph):
        gp = to_gprime(hand_graph)
        with pytest.raises(DataError):
            cutsize(gp, np.ones(3))
        with pytest.raises(DataError):
            cutsize(gp, np.zeros(gp.node_count))

