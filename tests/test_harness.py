import pytest

from edgesign.batch import METHODS
from edgesign.genmodel import TwoPointPrior, bayes_scores, make_synthetic, sign_with_tie
from edgesign.graph import sample_split
from edgesign.harness import ExperimentSpec, SyntheticSpec, run_experiment
from edgesign.metrics import confusion, mcc


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
