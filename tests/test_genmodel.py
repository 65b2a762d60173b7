import numpy as np
import pytest

from edgesign.genmodel import (BetaPrior, GenParams, TwoPointPrior, UniformPrior,
                               bayes_scores, eq1_rates, make_synthetic,
                               sample_labels, sample_params, sample_topology,
                               sign_with_tie)
from edgesign.errors import DataError
from edgesign.graph import SignedDigraph

from conftest import random_graph


class TestPriors:
    def test_uniform_mean_band(self):
        n = 4000
        params = sample_params(n, UniformPrior(), seed=0)
        half_width = 3.0 / np.sqrt(12 * n)
        assert abs(params.p.mean() - 0.5) <= half_width
        assert abs(params.q.mean() - 0.5) <= half_width

    def test_two_point_support(self):
        params = sample_params(500, TwoPointPrior(0.0, 1.0, 0.5), seed=1)
        assert set(np.unique(params.p)) <= {0.0, 1.0}
        assert set(np.unique(params.q)) <= {0.0, 1.0}

    def test_two_point_separate_q_side(self):
        prior = TwoPointPrior(0.1, 0.9, 0.5, q_lo=0.5, q_hi=0.5)
        params = sample_params(200, prior, seed=2)
        assert set(np.unique(params.p)) <= {0.1, 0.9}
        assert np.all(params.q == 0.5)

    def test_empty(self):
        params = sample_params(0, UniformPrior(), seed=0)
        assert params.p.size == 0 and params.q.size == 0

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            sample_params(5, BetaPrior(0.0, 1.0, 1.0, 1.0), seed=0)
        with pytest.raises(ValueError):
            sample_params(5, TwoPointPrior(0.9, 0.1, 0.5), seed=0)
        with pytest.raises(ValueError):
            sample_params(5, TwoPointPrior(0.1, 0.9, 1.5), seed=0)

    def test_deterministic(self):
        a = sample_params(100, BetaPrior(2.0, 3.0, 1.0, 1.0), seed=7)
        b = sample_params(100, BetaPrior(2.0, 3.0, 1.0, 1.0), seed=7)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)

    def test_json_roundtrip(self, tmp_path):
        params = sample_params(10, TwoPointPrior(0.2, 0.8, 0.3), seed=3)
        path = tmp_path / "params.json"
        params.save(path)
        again = GenParams.load(path)
        assert np.array_equal(again.p, params.p)
        assert again.prior.to_json_dict() == params.prior.to_json_dict()
        assert again.seed == params.seed

    @pytest.mark.parametrize("change", [
        {"q": [0.5, 0.5]}, {"p": "x"}, {"p": ["0.5", "0.5", "0.5"]}, {"p": [[0.5], [0.5], [0.5]]},
        {"q": [True, False, True]}, {"p": None}, {"q": [0.5, float("nan"), 0.5]}, {"seed": "x"},
        {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": None},
    ], ids=["lengths-differ", "p-text", "p-strings", "p-nested", "q-booleans", "p-null", "q-nan",
            "seed-text", "seed-negative", "seed-fraction", "seed-true", "seed-null"])
    def test_damaged_container_is_a_data_error(self, change):
        d = sample_params(3, UniformPrior(), seed=1).to_json_dict()
        with pytest.raises(DataError):
            GenParams.from_json_dict({**d, **change})


class TestSampleLabels:
    def test_deterministic_extremes(self):
        g = random_graph(20, 80, seed=0)
        ones = GenParams(np.ones(20), np.ones(20), None, 0)
        assert np.all(sample_labels(g, ones, seed=0) == 1)
        zeros = GenParams(np.zeros(20), np.zeros(20), None, 0)
        assert np.all(sample_labels(g, zeros, seed=0) == -1)

    def test_balanced_rate_band(self):
        g = random_graph(400, 100000, seed=1)
        params = GenParams(np.full(400, 0.5), np.full(400, 0.5), None, 0)
        labels = sample_labels(g, params, seed=2)
        rate = np.count_nonzero(labels == 1) / labels.size
        assert abs(rate - 0.5) <= 0.005

    def test_per_node_rates_match_eq_rates(self):
        # out-rate over resampled labelings converges to the closed form
        g = random_graph(12, 60, seed=3)
        params = sample_params(12, UniformPrior(), seed=4)
        node = int(g.src[0])
        outs = np.flatnonzero(g.src == node)
        d = outs.size
        rounds = 3000
        hits = 0
        for seed in range(rounds):
            labels = sample_labels(g, params, seed=seed)
            hits += np.count_nonzero(labels[outs] == 1)
        out_rate = eq1_rates(g, params)[0][node]
        sigma = np.sqrt(out_rate * (1 - out_rate) / (rounds * d))
        assert abs(hits / (rounds * d) - out_rate) <= max(3 * sigma, 1e-3)


class TestBayesPredict:
    def test_simple_values(self):
        params = GenParams(np.array([0.9, 0.2]), np.array([0.3, 0.2]), None, 0)
        assert np.array_equal(sign_with_tie(bayes_scores(params, [0, 1], [0, 1])),
                              [1, -1])  # eta = 0.6, 0.2

    def test_tie_rule(self):
        params = GenParams(np.array([0.4]), np.array([0.6]), None, 0)
        assert sign_with_tie(bayes_scores(params, [0], [0])).tolist() == [1]

    def test_monotone_reparameterization_keeps_sign(self):
        rng = np.random.default_rng(5)
        p = rng.random(50)
        q = rng.random(50)
        src = rng.integers(0, 50, 200)
        dst = rng.integers(0, 50, 200)
        base = sign_with_tie(bayes_scores(GenParams(p, q, None, 0), src, dst))
        scaled = sign_with_tie(3.0 * (p[src] + q[dst] - 1.0))
        assert np.array_equal(base, scaled)

    def test_beats_constant_predictors(self):
        # 3-sigma dominance at |E| >= 1e4 when every |eta - 1/2| >= 0.1
        prior = TwoPointPrior(0.2, 0.8, 0.5, q_lo=0.5, q_hi=0.5)
        g, params = make_synthetic(500, prior, 20, seed=6, kind="ring")
        assert g.edge_count >= 10000
        eta = 0.5 * (params.p[g.src] + params.q[g.dst])
        assert np.all(np.abs(eta - 0.5) >= 0.1)
        labels = g.labels
        bayes = sign_with_tie(bayes_scores(params, g.src, g.dst))
        rng = np.random.default_rng(7)
        coin = rng.choice([-1, 1], size=g.edge_count)
        acc = {
            "bayes": np.mean(bayes == labels),
            "plus": np.mean(labels == 1),
            "minus": np.mean(labels == -1),
            "coin": np.mean(coin == labels),
        }
        sigma = 3.0 / (2.0 * np.sqrt(g.edge_count))  # 3-sigma of a mean of ±1 coins
        for name in ("plus", "minus", "coin"):
            assert acc["bayes"] >= acc[name] + sigma, (name, acc)


class TestEq1Rates:
    def test_single_neighbor(self):
        g = SignedDigraph(2, [0], [1], [1])
        params = GenParams(np.array([0.4, 0.0]), np.array([0.0, 0.8]), None, 0)
        out_rate, in_rate = eq1_rates(g, params)
        assert abs(out_rate[0] - 0.6) < 1e-15
        assert np.isnan(in_rate[0])

    def test_constant_params(self):
        g = random_graph(10, 40, seed=8)
        params = GenParams(np.full(10, 0.3), np.full(10, 0.3), None, 0)
        out_rates, in_rates = eq1_rates(g, params)
        for node in range(10):
            out_rate, in_rate = out_rates[node], in_rates[node]
            if not np.isnan(out_rate):
                assert abs(out_rate - 0.3) < 1e-15
            if not np.isnan(in_rate):
                assert abs(in_rate - 0.3) < 1e-15

    def test_matches_brute_force_average(self):
        g = random_graph(9, 30, seed=9)
        params = sample_params(9, UniformPrior(), seed=10)
        out_rates, in_rates = eq1_rates(g, params)
        for node in range(9):
            out_rate, in_rate = out_rates[node], in_rates[node]
            outs = np.flatnonzero(g.src == node)
            if outs.size:
                probs = 0.5 * (params.p[g.src[outs]] + params.q[g.dst[outs]])
                assert abs(out_rate - probs.mean()) < 1e-12
            else:
                assert np.isnan(out_rate)
            ins = np.flatnonzero(g.dst == node)
            if ins.size:
                probs = 0.5 * (params.p[g.src[ins]] + params.q[g.dst[ins]])
                assert abs(in_rate - probs.mean()) < 1e-12
            else:
                assert np.isnan(in_rate)


def unique_topology(n, out_degree, seed, kind):
    """sample_topology's draws, deduplicated with ``np.unique``: the reference."""
    rng = np.random.default_rng(seed)
    if kind == "ring":
        src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
        return src, (src + np.tile(np.arange(1, out_degree + 1, dtype=np.int64), n)) % n
    if kind == "fixed":
        src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
        dst = rng.integers(0, n - 1, size=src.size, dtype=np.int64)
    else:
        m = rng.binomial(n * (n - 1), min(1.0, out_degree / (n - 1)))
        src = rng.integers(0, n, size=m, dtype=np.int64)
        dst = rng.integers(0, n - 1, size=m, dtype=np.int64)
    dst += dst >= src
    keys = np.unique(src * np.int64(n) + dst)
    return keys // n, keys % n


class TestTopology:
    def test_ring_exact_degrees(self):
        src, dst = sample_topology(50, 7, seed=0, kind="ring")
        assert np.all(np.bincount(src, minlength=50) == 7)
        assert np.all(np.bincount(dst, minlength=50) == 7)

    def test_no_self_loops_or_duplicates(self):
        for kind in ("fixed", "er"):
            src, dst = sample_topology(60, 8, seed=1, kind=kind)
            assert np.all(src != dst)
            keys = src * 60 + dst
            assert np.unique(keys).size == keys.size

    @pytest.mark.parametrize("kind", ["fixed", "er", "ring"])
    @pytest.mark.parametrize("n,out_degree", [(2, 1), (3, 1), (3, 2), (4, 3), (57, 9),
                                              (400, 12), (3000, 10)])
    def test_equals_the_np_unique_dedup(self, kind, n, out_degree):
        for seed in range(4):
            src, dst = sample_topology(n, out_degree, seed, kind=kind)
            ref_src, ref_dst = unique_topology(n, out_degree, seed, kind)
            assert src.dtype == ref_src.dtype == np.int64
            assert np.array_equal(src, ref_src) and np.array_equal(dst, ref_dst)

    @pytest.mark.parametrize("kind", ["fixed", "er", "ring"])
    def test_make_synthetic_does_not_call_np_unique(self, kind, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", refuse)
        g, _ = make_synthetic(500, UniformPrior(), 8, seed=2, kind=kind)
        assert g.edge_count > 0

    def test_make_synthetic_replayable(self):
        prior = UniformPrior()
        g1, p1 = make_synthetic(40, prior, 5, seed=11)
        g2, p2 = make_synthetic(40, prior, 5, seed=11)
        assert g1 == g2
        assert np.array_equal(p1.p, p2.p)
