import math

import numpy as np
import pytest

from edgesign.batch import METHODS
from edgesign.genmodel import TwoPointPrior, bayes_scores, make_synthetic, sign_with_tie
from edgesign.graph import sample_split
from edgesign.harness import ExperimentSpec, SyntheticSpec, paired_t_test, run_experiment
from edgesign.metrics import confusion, mcc

from oracles import student_t_two_sided_p


@pytest.mark.parametrize("size,shift,seed", [(2, 0.1, 0), (5, 0.0, 1), (12, 0.3, 2),
                                             (30, -0.05, 3)])
def test_paired_t_test_matches_quadrature(size, shift, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=size)
    b = a - shift + 0.2 * rng.normal(size=size)
    result = paired_t_test(a, b)
    d = a - b
    t = d.mean() / (d.std(ddof=1) / math.sqrt(size))
    assert not result.degenerate
    assert result.t_statistic == pytest.approx(t, rel=1e-12)
    assert result.p_value == pytest.approx(student_t_two_sided_p(t, size - 1),
                                           rel=1e-6, abs=1e-10)


def test_zero_variance_differences_are_degenerate():
    a = np.array([0.25, 0.5, 1.75])  # exact binary fractions: every difference is 0.25
    same = paired_t_test(a, a)
    assert same.degenerate and same.p_value == 1.0 and same.t_statistic == 0.0
    shifted = paired_t_test(a + 0.25, a)
    assert shifted.degenerate and shifted.p_value == 0.0
    assert math.isnan(shifted.t_statistic)


@pytest.mark.parametrize("a,b", [([1.0], [2.0]), ([1.0, 2.0], [1.0, 2.0, 3.0])])
def test_paired_t_test_rejects_short_or_unequal_vectors(a, b):
    with pytest.raises(ValueError):
        paired_t_test(a, b)


@pytest.mark.parametrize("methods, fractions, message", [
    (("blc", "blc"), (0.5,), "repeated methods"),
    (("blc", "lprop", "blc"), (0.1, 0.5), "repeated methods"),
    (("blc",), (0.5, 0.5), "repeated fractions"),
    ((), (0.5,), "methods must not be empty"),
    (("blc",), (), "fractions must not be empty"),
    ((), (), "methods must not be empty"),
])
def test_spec_rejects_repeated_or_empty_methods_and_fractions(methods, fractions, message):
    spec = ExperimentSpec(source=SyntheticSpec(20, TwoPointPrior(0.1, 0.9), seed=5),
                          methods=methods, fractions=fractions, repetitions=1)
    with pytest.raises(ValueError, match=message):
        spec.validate()
    with pytest.raises(ValueError, match=message):
        run_experiment(spec)


def test_sweep_cells_are_the_method_tables_predictions():
    spec = ExperimentSpec(source=SyntheticSpec(300, TwoPointPrior(0.1, 0.9), seed=5),
                          methods=(*METHODS, "bayes-oracle"), fractions=(0.1, 0.3),
                          repetitions=3, base_seed=11)
    report = run_experiment(spec)
    g, params = make_synthetic(300, TwoPointPrior(0.1, 0.9), 10, 5)
    for cell in report.cells:
        assert not cell.failures
        expected = []
        for rep in range(spec.repetitions):
            split = sample_split(g, cell.fraction, spec.base_seed ^ rep)
            test = split.test_indices()
            if cell.method == "bayes-oracle":
                labels = sign_with_tie(bayes_scores(params, g.src[test], g.dst[test]))
            else:
                labels = METHODS[cell.method].fit(g, split).predict_split(g, split).labels
            expected.append(mcc(confusion(labels, g.labels[test])))
        assert cell.mcc_values == expected, cell.method

    def untimed(r):
        d = r.to_json_dict()
        for c in d["cells"]:
            del c["seconds_mean"]
        return d

    assert untimed(run_experiment(spec, threads=2)) == untimed(report)
