"""Tests of the benchmark itself, on workloads small enough to run in seconds.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from edgesign import batch, cli, errors  # noqa: E402


def tiny_workloads():
    return [
        workloads.SweepWorkload("tiny-sweep", 300, workloads._two_point,
                                ("blc", "logreg", "lprop"), (0.1, 0.25)),
        workloads.SweepWorkload("tiny-unreg", 200, workloads._two_point,
                                ("blc", "unreg"), (0.25,), graphs=2),
        workloads.OnlineWorkload("tiny-online", node_count=1000, replay_nodes=300,
                                 budget=200, rounds=2000),
        workloads.PipelineWorkload("tiny-pipeline", node_count=500,
                                   noise={"comments": 5, "self_loops": 3,
                                          "duplicates": 10, "conflicts": 4}),
    ]


def run_tiny(workload, tmp_path, trace=False, seed=3):
    return runner.measure(workload, seed, 0.01, trace, str(tmp_path))


# ---------------------------------------------------------------------------
# Percentile rule


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (50000, 99.9), (100000, 99.99)])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    samples = np.arange(n, dtype=float)
    p, value, count = runner.tail_percentile(samples)
    assert count == n
    assert p == expected
    if p is None:
        assert value is None
    else:
        assert np.count_nonzero(samples > value) >= 10
        assert value == pytest.approx(np.percentile(samples, p))


# ---------------------------------------------------------------------------
# Spans and self time


def test_self_time_on_hand_built_span_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, None, "r"),
        spans.Span("a", 1.0, 4.0, 0, "r"),
        spans.Span("b", 3.0, 6.0, 0, "r"),  # overlaps a: covered once
        spans.Span("leaf", 1.0, 2.0, 1, "r"),
        spans.Span("b", 7.0, 8.0, 0, "r"),
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 1])
    totals = spans.layer_totals(tree)["r"]
    assert totals["b"] == pytest.approx([2, 4.0, 4.0])
    assert totals["root"] == pytest.approx([1, 10.0, 4.0])


def test_tracer_records_parents_and_restores_originals(monkeypatch):
    module = types.ModuleType("toy_layer")

    class Store:
        @classmethod
        def load(cls, x):
            return module.inner(x) + 1

    module.inner = lambda x: 2 * x
    module.outer = lambda x: Store.load(x) + module.inner(x)
    module.Store = Store
    monkeypatch.setitem(sys.modules, "toy_layer", module)
    originals = (module.inner, module.outer, Store.__dict__["load"])
    ticks = iter(range(100))
    tracer = spans.Tracer((("toy_layer:outer", "outer"), ("toy_layer:inner", "inner"),
                           ("toy_layer:Store.load", "load")), clock=lambda: next(ticks))
    with tracer.recording("run1"):
        assert module.outer(3) == 13
    assert (module.inner, module.outer, Store.__dict__["load"]) == originals
    assert [(s.name, s.parent, s.run) for s in tracer.spans] == [
        ("outer", None, "run1"), ("load", 0, "run1"), ("inner", 1, "run1"), ("inner", 0, "run1")]
    module.outer(1)
    assert len(tracer.spans) == 4


# ---------------------------------------------------------------------------
# Metric names


def test_metric_names_are_valid_and_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [name for name, _ in runner.END_TO_END] + [n for n, _, _ in layers.per_layer_specs()]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == \
        layers.per_layer_specs()
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(runner.END_TO_END)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# Whole runs on tiny workloads


@pytest.mark.parametrize("workload", tiny_workloads(), ids=lambda w: w.name)
def test_tiny_workload_passes_every_check(workload, tmp_path):
    result, lines = run_tiny(workload, tmp_path)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name for name, _ in runner.END_TO_END} == set(result["metrics"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    workload = tiny_workloads()[3]
    result, lines = run_tiny(workload, tmp_path, trace=True)
    assert result["correct"], lines
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _, _ in layers.per_layer_specs()]
    assert metrics["cli.eval.s"]["value"] >= metrics["cli.eval.self_s"]["value"] > 0
    assert metrics["graph.load_edge_list.s"]["value"] > 0
    assert metrics["batch.lp_run.s"]["value"] == 0
    span_file = tmp_path / f"spans-{workload.name}-seed3.jsonl"
    recorded = [json.loads(line) for line in span_file.read_text().splitlines()]
    assert {"cli.main", "cli.ingest", "genmodel.make_synthetic"} <= {s["name"] for s in recorded}


def test_failing_check_makes_the_command_exit_nonzero(monkeypatch, tmp_path, capsys):
    original = batch.blc_predict_split

    def drops_an_edge(model, g, split):
        pred = original(model, g, split)
        pred.edge_indices = pred.edge_indices[:-1]
        return pred

    monkeypatch.setattr(batch, "blc_predict_split", drops_an_edge)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny-sweep", tiny_workloads()[0])
    monkeypatch.setattr(runner, "SETUP_SECONDS", 0.0)
    assert runner.main("tiny-sweep", 1, 0.01, False, str(tmp_path)) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


@pytest.mark.parametrize("index, target, expected_rate", [
    (0, "lp_run", 2 / 6),      # the lprop fit of both fractions, of six fits
    (3, "cmd_stats", 1 / 9),   # one CLI command of nine
])
def test_failing_operation_raises_fail_rate_without_aborting(monkeypatch, tmp_path,
                                                             index, target, expected_rate):
    def broken(*args, **kwargs):
        raise errors.ConvergenceError("deliberate failure")

    monkeypatch.setattr(batch if target == "lp_run" else cli, target, broken)
    result, lines = run_tiny(tiny_workloads()[index], tmp_path)
    assert result["failed"] / result["attempted"] == pytest.approx(expected_rate), lines
    assert result["correct"], lines
    assert result["metrics"]["error_rate"]["value"] > 0


def test_command_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "online-20k",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
