import threading

import numpy as np
import pytest

from edgesign import features, harness
from edgesign.batch import METHODS
from edgesign.errors import ConvergenceError
from edgesign.features import troll_trust
from edgesign.genmodel import TwoPointPrior, bayes_scores, eq1_rates, make_synthetic, sign_with_tie
from edgesign.graph import sample_split
from edgesign.harness import Cell, ExperimentReport, ExperimentSpec, SyntheticSpec, run_experiment
from edgesign.metrics import confusion, mcc


def untimed(report):
    """The report's JSON dict without the one timed entry, ``seconds_mean``."""
    d = report.to_json_dict()
    for c in d["cells"]:
        del c["seconds_mean"]
    return d


@pytest.mark.parametrize("methods, fractions, message", [
    (("blc", "blc"), (0.5,), "repeated methods"),
    (("blc", "lprop", "blc"), (0.1, 0.5), "repeated methods"),
    (("blc",), (0.5, 0.5), "repeated fractions"),
    ((), (0.5,), "methods must not be empty"),
    (("blc",), (), "fractions must not be empty"),
    ((), (), "methods must not be empty"),
    (("blc",), (0.0,), "fractions must lie strictly in"),
    (("blc",), (0.5, 1.0), "fractions must lie strictly in"),
    (("blc", "tree"), (0.5,), "unknown methods: .'tree'."),
])
def test_spec_rejects_repeated_or_empty_methods_and_fractions(methods, fractions, message):
    spec = ExperimentSpec(source=SyntheticSpec(20, TwoPointPrior(0.1, 0.9), seed=5),
                          methods=methods, fractions=fractions, repetitions=1)
    with pytest.raises(ValueError, match=message):
        spec.validate()
    with pytest.raises(ValueError, match=message):
        run_experiment(spec)


def test_spec_rejects_zero_repetitions():
    spec = ExperimentSpec(source=SyntheticSpec(20, TwoPointPrior(0.1, 0.9), seed=5),
                          methods=("blc",), fractions=(0.5,), repetitions=0)
    with pytest.raises(ValueError, match="repetitions must be at least 1"):
        spec.validate()


def test_bayes_oracle_on_a_dataset_fails_in_its_cell_and_the_other_methods_run(tmp_path):
    path = tmp_path / "g.json"
    make_synthetic(60, TwoPointPrior(0.1, 0.9), 6, seed=2)[0].save(path)
    report = run_experiment(ExperimentSpec(source=str(path), methods=("blc", "bayes-oracle"),
                                           fractions=(0.5,), repetitions=2, include_psi2=False))
    cells = {c.method: c for c in report.cells}
    assert cells["bayes-oracle"].failures == [
        f"rep {r}: DataError: bayes-oracle needs generative parameters (synthetic runs only)"
        for r in range(2)]
    assert cells["bayes-oracle"].mcc_values == []
    assert len(cells["blc"].mcc_values) == 2 and cells["blc"].failures == []


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
    assert untimed(run_experiment(spec, threads=2)) == untimed(report)


OVERLAP_SPEC = ExperimentSpec(source=SyntheticSpec(300, TwoPointPrior(0.1, 0.9), seed=5),
                              methods=("blc", "lprop", "unreg"), fractions=(0.1, 0.3),
                              repetitions=3, base_seed=7)
#: the edge count of OVERLAP_SPEC's graph
SMALL_EDGES = make_synthetic(300, TwoPointPrior(0.1, 0.9), 10, 5)[0].edge_count


def force_overlap(monkeypatch, on):
    """Make the small sweep take the overlapped path (``on``) or the serial one."""
    monkeypatch.setattr(harness, "OVERLAP_EDGES", SMALL_EDGES if on else SMALL_EDGES + 1)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2 if on else 1)


@pytest.mark.parametrize("threshold, cpus, include_psi2, overlapped", [
    (SMALL_EDGES, 2, True, True),
    (SMALL_EDGES + 1, 2, True, False),
    (SMALL_EDGES, 1, True, False),
    (SMALL_EDGES, 2, False, False),
], ids=["overlapped", "below-threshold", "one-cpu", "no-psi2"])
def test_report_overlaps_the_cells_only_with_psi2_on_a_large_graph_and_two_cpus(
        monkeypatch, threshold, cpus, include_psi2, overlapped):
    monkeypatch.setattr(harness, "OVERLAP_EDGES", threshold)
    monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
    seen = []

    def spy(g, include_psi2=True):
        seen.append((threading.current_thread() is threading.main_thread(), include_psi2))
        return features.regularity_report(g, include_psi2=include_psi2)

    monkeypatch.setattr(harness, "regularity_report", spy)
    spec = ExperimentSpec(source=OVERLAP_SPEC.source, methods=("blc",), fractions=(0.3,),
                          repetitions=1, include_psi2=include_psi2)
    report = run_experiment(spec)
    assert seen == [(not overlapped, include_psi2)]
    assert (report.regularity.psi2 is not None) == include_psi2


@pytest.mark.parametrize("threads", [1, 2])
def test_overlapped_and_serial_sweeps_report_the_same_and_stop_their_threads(monkeypatch,
                                                                           threads):
    before = threading.active_count()
    reports = []
    for on in (True, False):
        force_overlap(monkeypatch, on)
        reports.append(untimed(run_experiment(OVERLAP_SPEC, threads=threads)))
        assert threading.active_count() == before
    assert reports[0] == reports[1]
    assert reports[0]["regularity"]["psi2"] is not None


@pytest.mark.parametrize("on", [True, False], ids=["overlapped", "serial"])
def test_a_failing_report_leaves_the_sweep_and_stops_its_thread(monkeypatch, on):
    force_overlap(monkeypatch, on)

    def stuck(g, include_psi2=True):
        raise ConvergenceError("edge-quadratic fit not stationary")

    monkeypatch.setattr(harness, "regularity_report", stuck)
    before = threading.active_count()
    with pytest.raises(ConvergenceError, match="not stationary"):
        run_experiment(OVERLAP_SPEC)
    assert threading.active_count() == before


@pytest.mark.parametrize("seed", range(3))
def test_heuristics_approach_the_bayes_oracle_as_degree_grows(seed):
    # The paper's approximation claim: as the degree grows, 1 - tr^ on the
    # training edges tends to each node's Eq. (1) out rate, and blc and lprop
    # tend to the Bayes rule. On these graphs the feature error is about
    # 0.29, 0.17 and 0.08, and the oracle's MCC about 0.52 at every degree.
    feature_error, blc_gap, lprop_gap = [], [], []
    for degree in (5, 20, 80):
        g, params = make_synthetic(2000, TwoPointPrior(0.05, 0.95), degree, seed)
        split = sample_split(g, 0.25, seed + 1)
        tr, _ = troll_trust(g, split.training_mask)
        feature_error.append(np.mean(np.abs((1.0 - tr) - eq1_rates(g, params)[0])))
        test = split.test_indices()
        truth = g.labels[test]
        bayes = mcc(confusion(sign_with_tie(bayes_scores(params, g.src[test], g.dst[test])), truth))
        for gap, method in ((blc_gap, "blc"), (lprop_gap, "lprop")):
            labels = METHODS[method].fit(g, split).predict_split(g, split).labels
            gap.append(bayes - mcc(confusion(labels, truth)))
    for name, values in (("feature error", feature_error), ("blc gap", blc_gap),
                         ("lprop gap", lprop_gap)):
        assert values[0] > values[1] > values[2], (name, values)


def test_fewer_than_one_thread_is_refused_before_the_source_is_read(tmp_path):
    spec = ExperimentSpec(source=str(tmp_path / "missing.json"))
    for threads in (0, -2):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_experiment(spec, threads=threads)


def test_report_encodes_every_cell_once_for_json_and_markdown():
    report = ExperimentReport(
        cells=[Cell("lprop", 0.25, mcc_values=[0.5, 0.25], acc_values=[0.75, 0.5],
                    seconds=[1.0, 3.0]),
               Cell("blc", 0.25, mcc_values=[0.125], acc_values=[0.625], seconds=[2.0],
                    failures=["rep 1: ConvergenceError: stuck"]),
               Cell("blc", 0.1, failures=["rep 0: DataError: a", "rep 1: DataError: b"]),
               Cell("lprop", 0.1, mcc_values=[-0.5, 0.5], acc_values=[0.25, 0.75],
                    seconds=[0.5, 0.5])],
        regularity=None, repetitions=2, base_seed=0, node_count=10, edge_count=30)
    assert report.to_markdown() == (
        "| fraction | blc | lprop |\n"
        "|---|---|---|\n"
        "| 0.1 | nan ± 0.00 | 0.00 ± 70.71 |\n"
        "| 0.25 | 12.50 ± 0.00 | 37.50 ± 17.68 |\n")
    assert report.to_json_dict()["cells"] == [
        {"method": "blc", "fraction": 0.1, "mcc_mean": None, "mcc_std": 0.0, "acc_mean": None,
         "mcc_values": [], "failures": ["rep 0: DataError: a", "rep 1: DataError: b"],
         "seconds_mean": None},
        {"method": "lprop", "fraction": 0.1, "mcc_mean": 0.0, "mcc_std": 0.7071067811865476,
         "acc_mean": 0.5, "mcc_values": [-0.5, 0.5], "failures": [], "seconds_mean": 0.5},
        {"method": "blc", "fraction": 0.25, "mcc_mean": 0.125, "mcc_std": 0.0,
         "acc_mean": 0.625, "mcc_values": [0.125], "failures": ["rep 1: ConvergenceError: stuck"],
         "seconds_mean": 2.0},
        {"method": "lprop", "fraction": 0.25, "mcc_mean": 0.375, "mcc_std": 0.1767766952966369,
         "acc_mean": 0.625, "mcc_values": [0.5, 0.25], "failures": [], "seconds_mean": 2.0},
    ]
