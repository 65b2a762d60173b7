import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesign.batch import (BlcModel, LogRegModel, blc_fit, blc_predict_split, load_model,
                            logreg_fit, logreg_predict_split, save_model, tune_threshold)
from edgesign.errors import ConvergenceError, DegenerateFitError
from edgesign.features import box_fit_edges, troll_trust
from edgesign.genmodel import TwoPointPrior, UniformPrior, bayes_scores, make_synthetic, sign_with_tie
from edgesign.graph import SignedDigraph, degree_stats, load_edge_list, sample_split
from edgesign.metrics import confusion

from conftest import make_split, random_graph
from oracles import (brute_force_threshold_mistakes, finite_difference, ml_gradient,
                     quadratic_training_grad, quadratic_training_loss, solve_linearized_ml,
                     tune_threshold_reference)


class TestTuneThreshold:
    def test_separating_midpoint(self):
        theta = tune_threshold([0.1, 0.9], [-1, 1])
        assert 0.1 < theta < 0.9
        assert theta == 0.5

    def test_all_positive_sentinel(self):
        assert tune_threshold([0.3, 0.7, 0.1], [1, 1, 1]) == -sys.float_info.max

    def test_all_negative_sentinel(self):
        assert tune_threshold([0.3, 0.7], [-1, -1]) == sys.float_info.max

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            scores = np.round(rng.normal(size=100), 2)  # force some score ties
            labels = rng.choice([-1, 1], size=100)
            theta = tune_threshold(scores, labels)
            pred = np.where(scores - theta >= 0, 1, -1)
            mistakes = int(np.count_nonzero(pred != labels))
            assert mistakes == brute_force_threshold_mistakes(scores, labels)

    def test_tie_breaks_toward_smallest(self):
        # both cuts around the middle value are optimal; smallest wins
        theta = tune_threshold([0.0, 1.0], [1, -1])
        assert theta == -sys.float_info.max

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tune_threshold([], [])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.integers(1, 40), single_class=st.sampled_from([None, 1, -1]))
    def test_matches_the_distinct_value_reference(self, data, size, single_class):
        # a small pool forces ties, and 0.0 and -0.0 tie with each other
        pool = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, -0.25, 1e-300, -3.5, 7.0])
                                  | st.floats(-1e6, 1e6), min_size=1, max_size=6))
        scores = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        labels = ([single_class] * size if single_class else
                  data.draw(st.lists(st.sampled_from([1, -1]), min_size=size, max_size=size)))
        assert repr(tune_threshold(scores, labels)) == repr(tune_threshold_reference(scores, labels))


class TestBlc:
    def test_hand_example(self, hand_graph):
        # training {(a,b,+),(a,c,-),(c,b,-)}
        split = make_split([True, True, False, True])
        model = blc_fit(hand_graph, split)
        assert model.tr[0] == 0.5
        assert model.un[2] == 1.0
        assert abs(model.tau - 1.0 / 3.0) < 1e-15
        score = model.score(1, 2)
        sign = sign_with_tie(score)
        assert abs(score - (-1.0 / 3.0)) < 1e-15
        assert sign == -1

    def test_all_positive_training(self, hand_graph):
        g = load_edge_list("a\tb\t1\nb\tc\t1\nc\ta\t1\na\tc\t1\n")
        split = make_split([True, True, True, False])
        model = blc_fit(g, split)
        assert model.tau == 1.0
        tr, _ = troll_trust(g, split.training_mask)
        out, _ = degree_stats(g, split.training_mask)
        assert np.array_equal(model.tr, tr)
        assert np.all(model.tr[out.sum(axis=1) > 0] == 0.0)

    def test_uncovered_node_defaults(self, hand_graph):
        split = make_split([True, False, False, False])
        model = blc_fit(hand_graph, split)
        assert model.tr[1] == 0.5 and model.un[2] == 0.5

    def test_score_extremes(self):
        model = BlcModel(tr=np.array([0.0]), un=np.array([0.0]), tau=0.5)
        score = model.score(0, 0)
        sign = sign_with_tie(score)
        assert score == 1.0 and sign == 1
        model2 = BlcModel(tr=np.array([1.0]), un=np.array([1.0]), tau=0.0)
        score2 = model2.score(0, 0)
        sign2 = sign_with_tie(score2)
        assert score2 == -0.5 and sign2 == -1

    def test_empty_training_errors(self, hand_graph):
        with pytest.raises(DegenerateFitError):
            blc_fit(hand_graph, make_split([False] * 4))

    def test_permutation_equivariance(self):
        g = random_graph(15, 60, seed=0)
        split = sample_split(g, 0.5, seed=1)
        model = blc_fit(g, split)
        perm = np.random.default_rng(2).permutation(15)
        g2 = SignedDigraph(15, perm[g.src], perm[g.dst], g.labels, validate=False)
        model2 = blc_fit(g2, split)
        scores1 = model.score(g.src, g.dst)
        scores2 = model2.score(perm[g.src], perm[g.dst])
        assert np.allclose(scores1, scores2, atol=1e-14)

    def test_json_roundtrip(self, tmp_path, hand_graph):
        split = make_split([True, True, True, False])
        model = blc_fit(hand_graph, split)
        path = tmp_path / "blc.json"
        save_model(model, path)
        again = load_model(path)
        assert isinstance(again, BlcModel)
        assert np.array_equal(again.tr, model.tr)
        assert again.tau == model.tau

    def test_agrees_with_oracle_on_dense_polarized_graph(self):
        # well-sampled nodes, rates bounded away from 1/2 on every edge
        prior = TwoPointPrior(0.1, 0.9, 0.5, q_lo=0.5, q_hi=0.5)
        g, params = make_synthetic(120, prior, 60, seed=3, kind="ring")
        split = sample_split(g, 0.5, seed=4)
        model = blc_fit(g, split)
        test = split.test_indices()
        blc_labels = sign_with_tie(model.score(g.src[test], g.dst[test]))
        bayes_labels = sign_with_tie(bayes_scores(params, g.src[test], g.dst[test]))
        agreement = np.mean(blc_labels == bayes_labels)
        assert agreement >= 0.95


class TestLogReg:
    def test_separable_toy_reaches_zero_training_error(self):
        # one troll, one saint, labels follow the source node exactly
        g = load_edge_list(
            "s\ta\t1\ns\tb\t1\ns\tc\t1\nt\ta\t-1\nt\tb\t-1\nt\tc\t-1\n")
        split = make_split([True] * 6)
        model = logreg_fit(g, split, tol=1e-6)
        pred_scores = model.score(g.src, g.dst)
        labels = sign_with_tie(pred_scores - model.threshold)
        assert np.array_equal(labels, g.labels)

    def test_single_class_raises(self):
        g = load_edge_list("a\tb\t1\nb\tc\t1\n")
        with pytest.raises(DegenerateFitError):
            logreg_fit(g, make_split([True, True]))

    def test_gradient_vanishes_at_fit(self):
        g = random_graph(40, 300, seed=5)
        split = sample_split(g, 0.6, seed=6)
        model = logreg_fit(g, split, tol=1e-10)
        # recompute the mean-likelihood gradient at the returned weights
        tr, un = troll_trust(g, split.training_mask)
        train = split.training_indices()
        X = np.column_stack([np.ones(train.size),
                             1.0 - tr[g.src[train]],
                             1.0 - un[g.dst[train]]])
        y01 = (g.labels[train] == 1).astype(float)
        z = X @ np.array([model.w0, model.w1, model.w2])
        grad = X.T @ (1 / (1 + np.exp(-z)) - y01) / train.size
        assert np.abs(grad).max() <= 1e-10

    def test_symmetric_features_give_balanced_weights(self):
        # exchangeable feature design: |w1 - w2| small relative to |w1|
        ratios = []
        for seed in range(20):
            prior = UniformPrior()
            g, _ = make_synthetic(80, prior, 16, seed=seed, kind="ring")
            split = sample_split(g, 0.6, seed=seed + 1000)
            try:
                model = logreg_fit(g, split)
            except DegenerateFitError:
                continue
            ratios.append(abs(model.w1 - model.w2) / abs(model.w1))
        assert np.mean(ratios) <= 0.05

    def test_normalized_coefficients_consistent(self):
        g = random_graph(40, 300, seed=7)
        split = sample_split(g, 0.6, seed=8)
        model = logreg_fit(g, split)
        assert abs(model.w2_prime - model.w2 / model.w1) < 1e-15
        assert abs(model.tau_prime - (-(0.5 + model.w0 / model.w1))) < 1e-15

    def test_json_roundtrip(self, tmp_path):
        g = random_graph(30, 200, seed=9)
        split = sample_split(g, 0.5, seed=10)
        model = logreg_fit(g, split)
        path = tmp_path / "lr.json"
        save_model(model, path)
        again = load_model(path)
        assert isinstance(again, LogRegModel)
        pred1 = logreg_predict_split(model, g, split)
        pred2 = logreg_predict_split(again, g, split)
        assert np.array_equal(pred1.scores, pred2.scores)
        assert np.array_equal(pred1.labels, pred2.labels)


class TestMlGradient:
    def test_single_positive_edge(self):
        g = load_edge_list("a\tb\t1\n")
        split = make_split([True])
        gp, gq = ml_gradient(np.array([0.5, 0.5]), np.array([0.5, 0.5]), g, split)
        assert abs(gp[0] - 1.0) < 1e-15
        assert abs(gq[1] - 1.0) < 1e-15

    def test_untouched_node_zero(self, hand_graph):
        split = make_split([True, False, False, False])
        gp, gq = ml_gradient(np.full(3, 0.4), np.full(3, 0.4), hand_graph, split)
        assert gp[2] == 0.0 and gq[2] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            g = random_graph(8, 24, seed=trial)
            split = sample_split(g, 0.7, seed=trial + 50)
            p = rng.uniform(0.2, 0.8, 8)
            q = rng.uniform(0.2, 0.8, 8)
            gp, gq = ml_gradient(p, q, g, split)

            train = split.training_indices()
            src, dst, y = g.src[train], g.dst[train], g.labels[train]

            def loglik(x):
                pp, qq = x[:8], x[8:]
                s = 0.5 * (pp[src] + qq[dst])
                return float(np.sum(np.where(y == 1, np.log(s), np.log(1 - s))))

            fd = finite_difference(loglik, np.concatenate([p, q]), h=1e-5)
            assert np.abs(np.concatenate([gp, gq]) - fd).max() <= 1e-6

    def test_domain_error_identifies_edge(self):
        g = load_edge_list("a\tb\t1\n")
        split = make_split([True])
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            ml_gradient(np.array([1.0, 0.0]), np.array([0.0, 1.0]), g, split)


class TestLinearizedMl:
    def test_solution_zeroes_quadratic_gradient(self):
        for seed in range(8):
            g = random_graph(5, 12, seed=seed)
            split = sample_split(g, 0.7, seed=seed + 10)
            if split.n_training == 0:
                continue
            p, q = solve_linearized_ml(g, split)
            gp, gq = quadratic_training_grad(p, q, g, split)
            assert max(np.abs(gp).max(), np.abs(gq).max()) <= 1e-8

    @pytest.mark.parametrize("n, m, seed, fraction, split_seed",
                             [(5, 12, s, 0.7, s + 10) for s in range(8)] + [(10, 40, 20, 0.5, 21)])
    def test_unboxed_unpulled_kernel_is_stationary(self, n, m, seed, fraction, split_seed):
        g = random_graph(n, m, seed=seed)
        split = sample_split(g, fraction, seed=split_seed)
        train = split.training_indices()
        fit = box_fit_edges(n, g.src[train], g.dst[train], (1.0 + g.labels[train]) / 2.0,
                            box=False, tol=1e-10)
        gp, gq = quadratic_training_grad(fit.p, fit.q, g, split)
        assert max(np.abs(gp).max(), np.abs(gq).max()) <= 1e-8
        assert fit.value == pytest.approx(quadratic_training_loss(fit.p, fit.q, g, split),
                                          rel=1e-12, abs=1e-15)
        untouched = (np.bincount(g.src[train], minlength=n) == 0)
        assert np.all(fit.p[untouched] == 0.5)

    def test_stationary_value_not_above_init(self):
        g = random_graph(10, 40, seed=20)
        split = sample_split(g, 0.5, seed=21)
        p, q = solve_linearized_ml(g, split)
        v_star = quadratic_training_loss(p, q, g, split)
        v_init = quadratic_training_loss(np.full(10, 0.5), np.full(10, 0.5), g, split)
        assert v_star <= v_init + 1e-12
