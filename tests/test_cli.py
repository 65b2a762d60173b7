import csv
import io
import json
import math
import os
import subprocess
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from edgesign import batch, cli, graph
from edgesign.batch import (METHODS, Prediction, UnregModel, UnregOptions, blc_fit,
                            blc_predict_split, load_model, save_model, unreg_predict,
                            unreg_solve)
from edgesign.errors import DataError
from edgesign.genmodel import (BetaPrior, GenParams, TwoPointPrior, UniformPrior, make_synthetic,
                               prior_from_json_dict)
from edgesign.features import psi_g
from edgesign.graph import (EdgeSplit, SignedDigraph, load_graph, read_json, sample_split,
                            write_edge_list)
from edgesign.metrics import confusion, mcc
from edgesign.online import adversary_generate, run_online

from conftest import run_python
from oracles import prediction_csv_reference


@pytest.fixture
def graph_path(tmp_path):
    g, _ = make_synthetic(80, TwoPointPrior(0.1, 0.9), 6, seed=3)
    path = tmp_path / "graph.json"
    g.save(path)
    return path


@pytest.fixture
def split_file(tmp_path):
    """``split_file(graph, fraction, seed)``: the path of a split file of the graph
    file ``graph``, holding ``sample_split(g, fraction, seed)`` as ``split`` writes it."""
    def write(graph, fraction=0.3, seed=1):
        path = tmp_path / f"split-{graph.stem}-{fraction}-{seed}.json"
        sample_split(load_graph(graph), fraction, seed).save(path)
        return path
    return write


def run_cli_online(graph_path, tmp_path, *flags):
    out = tmp_path / "online.json"
    code = cli.main(["online", str(graph_path), "--trials", "2", "--seed", "5",
                     "-o", str(out), *flags])
    assert code == 0
    with open(out, encoding="utf-8") as f:
        return json.load(f)


class TestOnlineCommand:
    def test_random_trials_equal_direct_runs(self, graph_path, tmp_path):
        payload = run_cli_online(graph_path, tmp_path)
        g = SignedDigraph.load(graph_path)
        direct = [run_online(g, labeling=g.labels, order="random", seed=5 + t)
                  for t in range(2)]
        assert payload["trials"] == [r.to_json_dict() for r in direct]
        assert payload["mean_expected_mistakes"] == pytest.approx(
            sum(r.expected_mistakes for r in direct) / 2, rel=1e-15)
        assert payload["mean_realized_mistakes"] == sum(r.realized_mistakes for r in direct) / 2

    @staticmethod
    def check_adversary_trials(graph_path, tmp_path, full_pass):
        flags = ["--full-pass"] if full_pass else []
        payload = run_cli_online(graph_path, tmp_path, "--adversary-k", "7", *flags)
        g = SignedDigraph.load(graph_path)
        direct = [run_online(g, order=adversary_generate(g, 7, 5 + t, include_tail=full_pass),
                             seed=5 + t) for t in range(2)]
        assert payload["trials"] == [r.to_json_dict() for r in direct]
        for trial in payload["trials"]:
            assert trial["order"] == "adversary(K=7)"
            if full_pass:
                assert trial["edges_predicted"] == g.edge_count
                assert "tail_expected" in trial
            else:
                assert trial["edges_predicted"] == trial["forced_len"] < g.edge_count
                assert not {"tail_realized", "tail_expected"} & trial.keys()

    def test_adversary_full_pass_trials_equal_direct_runs(self, graph_path, tmp_path):
        self.check_adversary_trials(graph_path, tmp_path, full_pass=True)

    def test_adversary_forced_only_trials_equal_direct_runs(self, graph_path, tmp_path):
        self.check_adversary_trials(graph_path, tmp_path, full_pass=False)

    def test_budget_above_half_the_edges_is_an_argument_error(self, graph_path, tmp_path,
                                                              capsys):
        m = SignedDigraph.load(graph_path).edge_count
        code = cli.main(["online", str(graph_path), "--adversary-k", str(m // 2 + 1),
                         "--seed", "1", "-o", str(tmp_path / "out.json")])
        assert code == cli.EXIT_ARGUMENT == 2
        assert "budget" in capsys.readouterr().err

    def test_zero_trials_is_an_argument_error(self, graph_path, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = cli.main(["online", str(graph_path), "--trials", "0", "--seed", "1",
                         "-o", str(out)])
        assert code == cli.EXIT_ARGUMENT
        assert not out.exists()
        assert "--trials" in capsys.readouterr().err


def read_predictions(path):
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split(",") for line in f.readlines()[1:]]
    return np.array([float(r[2]) for r in rows]), np.array([int(r[3]) for r in rows])


@pytest.mark.parametrize("method", list(METHODS))
def test_train_and_predict_are_the_method_tables_fit_and_predict(graph_path, tmp_path,
                                                                  split_file, method):
    model_path, pred_path = tmp_path / "model.json", tmp_path / "pred.csv"
    assert cli.main(["train", str(graph_path), "--method", method,
                     "--split", str(split_file(graph_path, 0.3, 1)), "-o", str(model_path)]) == 0
    assert type(load_model(model_path)) is METHODS[method]
    assert cli.main(["predict", str(graph_path), str(model_path),
                     "--split", str(split_file(graph_path, 0.3, 2)), "-o", str(pred_path)]) == 0
    g = SignedDigraph.load(graph_path)
    # without --tol and --max-iter, train fits with the method's own defaults
    model = METHODS[method].fit(g, sample_split(g, 0.3, 1))
    expected = model.predict_split(g, sample_split(g, 0.3, 2))
    scores, labels = read_predictions(pred_path)
    assert np.array_equal(scores, expected.scores)
    assert np.array_equal(labels, expected.labels)


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("bound", [("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"),
                                   ("--tol", "inf"), ("--max-iter", "-3"), ("--max-iter", "0")],
                         ids=lambda b: " ".join(b))
def test_train_bound_outside_its_range_is_an_argument_error(tmp_path, capsys, method, bound):
    # neither the graph file nor the split file is JSON, so reading either first would exit 3
    graph, split, model = tmp_path / "graph.json", tmp_path / "split.json", tmp_path / "model.json"
    graph.write_text("not a graph")
    split.write_text("not a split")
    code = run_cli("train", graph, "--method", method, "--split", split, *bound, "-o", model)
    assert code == cli.EXIT_ARGUMENT
    assert f"{bound[0]} must be" in capsys.readouterr().err
    assert not model.exists()


class TestUnregModel:
    def test_predict_on_another_split_scores_that_split(self, graph_path, tmp_path, split_file):
        model_path, pred_path = tmp_path / "unreg.json", tmp_path / "pred.csv"
        assert cli.main(["train", str(graph_path), "--method", "unreg",
                         "--split", str(split_file(graph_path, 0.3, 1)),
                         "--tol", str(UnregOptions.tol), "-o", str(model_path)]) == 0
        # a second split file: same test-set size, different edges
        assert cli.main(["predict", str(graph_path), str(model_path),
                         "--split", str(split_file(graph_path, 0.3, 2)),
                         "-o", str(pred_path)]) == 0
        g = SignedDigraph.load(graph_path)
        fitted = unreg_solve(g, sample_split(g, 0.3, 1))
        model = load_model(model_path)
        assert isinstance(model, UnregModel)
        assert np.array_equal(model.p, fitted.p) and np.array_equal(model.q, fitted.q)
        test = sample_split(g, 0.3, 2).test_indices()
        expected = fitted.p[g.src[test]] + fitted.q[g.dst[test]] - 1.0
        scores, labels = read_predictions(pred_path)
        assert np.array_equal(scores, expected)
        assert np.array_equal(labels, np.where(expected >= model.threshold, 1, -1))

    def test_file_with_y_soft_round_trips(self, graph_path, tmp_path):
        g = SignedDigraph.load(graph_path)
        split = sample_split(g, 0.3, 1)
        result = unreg_solve(g, split)
        pred = unreg_predict(UnregModel.fit(g, split, tol=UnregOptions.tol), g, split)
        old = tmp_path / "old.json"
        with open(old, "w", encoding="utf-8") as f:
            json.dump({"format": "edgesign-unreg", "version": 1,
                       "p": result.p.tolist(), "q": result.q.tolist(),
                       "y_soft": result.y_soft.tolist(), "threshold": pred.threshold}, f)
        model = load_model(old)
        assert isinstance(model, UnregModel) and model.threshold == pred.threshold
        again = model.predict_split(g, split)
        assert np.array_equal(again.scores, pred.scores)
        assert np.array_equal(again.labels, pred.labels)
        new = tmp_path / "new.json"
        save_model(model, new)
        with open(new, encoding="utf-8") as f:
            assert "y_soft" not in json.load(f)
        reloaded = load_model(new)
        assert np.array_equal(reloaded.p, model.p) and np.array_equal(reloaded.q, model.q)
        assert reloaded.threshold == model.threshold


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestPredictChecksTheModel:
    @pytest.mark.parametrize("method", ["blc", "logreg", "lprop", "unreg"])
    @pytest.mark.parametrize("other_nodes", [200, 60])
    def test_model_for_another_node_count_is_a_data_error(self, graph_path, tmp_path, capsys,
                                                         split_file, method, other_nodes):
        model = tmp_path / f"{method}.json"
        assert run_cli("train", graph_path, "--method", method, "--split", split_file(graph_path),
                       "-o", model) == 0
        other = tmp_path / "other.json"
        make_synthetic(other_nodes, TwoPointPrior(0.1, 0.9), 6, seed=4)[0].save(other)
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        code = run_cli("predict", other, model, "--split", split_file(other), "-o", out)
        assert code == cli.EXIT_DATA == 3
        assert "80 nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_model_files_are_dispatched_on_format(self, graph_path, tmp_path, capsys, split_file):
        model, split = tmp_path / "m.json", split_file(graph_path)
        assert run_cli("train", graph_path, "--method", "lprop", "--split", split,
                       "-o", model) == 0
        d = json.loads(model.read_text())
        cases = {"edgesign-tree": {**d, "format": "edgesign-tree"},
                 "version 2": {**d, "version": 2},
                 "lacks q": {k: v for k, v in d.items() if k != "q"},
                 "q must be a list of numbers as long as p": {**d, "q": d["q"][:-1]},
                 "p must be a list of numbers": {**d, "p": ["x"] * len(d["p"])}}
        for expected, payload in cases.items():
            model.write_text(json.dumps(payload))
            with pytest.raises(DataError, match=expected):
                load_model(model)
            assert run_cli("predict", graph_path, model, "--split", split,
                           "-o", tmp_path / "p.csv") == cli.EXIT_DATA
        model.write_text("[]")
        with pytest.raises(DataError, match="not a JSON container"):
            load_model(model)


@pytest.mark.parametrize("command", ["stats", "split"])
def test_a_closed_stdout_pipe_exits_141_quietly(graph_path, tmp_path, command):
    extra = ["--fraction", "0.3", "--seed", "1", "-o", str(tmp_path / "s.json")]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = run_python(["-m", "edgesign.cli", command, str(graph_path),
                           *(extra if command == "split" else [])],
                          stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""


def test_importing_the_package_leaves_scipy_stats_unloaded():
    code = "import sys, edgesign, edgesign.cli; sys.exit('scipy.stats' in sys.modules)"
    assert run_python(["-c", code]).returncode == 0


class TestGraphFiles:
    def test_truncated_container_reports_its_own_error(self, graph_path, capsys):
        text = graph_path.read_text()
        graph_path.write_text(text[: len(text) // 2])
        capsys.readouterr()
        assert run_cli("split", graph_path, "--fraction", "0.3", "--seed", "1",
                       "-o", graph_path.parent / "s.json") == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "not a JSON container" in err and "fields" not in err

    def test_edge_list_is_still_read_as_text(self, tmp_path, capsys):
        path = tmp_path / "g.tsv"
        path.write_text("  # header\na\tb\t1\nb\tc\t-1\nc\ta\t1\n")
        assert run_cli("split", path, "--fraction", "0.5", "--seed", "1",
                       "-o", tmp_path / "s.json") == 0
        assert "training_edges\t2" in capsys.readouterr().out

    def test_bad_edge_list_record_is_a_data_error_naming_its_line(self, tmp_path, capsys):
        edges, out = tmp_path / "g.tsv", tmp_path / "g.json"
        edges.write_text("# header\na b 1\n\nb c x\n")
        assert run_cli("ingest", edges, out) == cli.EXIT_DATA
        assert capsys.readouterr().err == "error: line 4: bad sign token 'x'\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["# only a comment\n", "a b 1\n"])
    def test_an_empty_delimiter_is_an_argument_error(self, tmp_path, capsys, text):
        edges, out = tmp_path / "g.tsv", tmp_path / "g.json"
        edges.write_text(text)
        assert run_cli("ingest", edges, out, "--delimiter", "") == cli.EXIT_ARGUMENT
        assert capsys.readouterr().err == "error: delimiter must not be empty\n"
        assert not out.exists()

    def test_a_delimiter_that_is_not_utf8_is_an_argument_error(self, tmp_path, capsys):
        edges, out = tmp_path / "g.tsv", tmp_path / "g.json"
        edges.write_text("a b 1\n")
        # a command-line byte that is not UTF-8 arrives as a lone surrogate
        assert run_cli("ingest", edges, out, "--delimiter", "\udcff") == cli.EXIT_ARGUMENT
        assert capsys.readouterr().err == "error: delimiter must be UTF-8 text, got '\\udcff'\n"
        assert not out.exists()

    def test_an_edge_list_that_is_not_utf8_is_a_data_error_naming_its_line(self, tmp_path, capsys):
        edges, out = tmp_path / "g.tsv", tmp_path / "g.json"
        edges.write_bytes(b"a b 1\r\nb c -1\n# \xe2\x80\xa8\n\xffc a 1\n")
        assert run_cli("ingest", edges, out) == cli.EXIT_DATA
        assert capsys.readouterr().err == ("error: line 5: not UTF-8 text: "
                                           "byte 0xff (invalid start byte)\n")
        assert not out.exists()

    def test_split_with_bad_indices_is_a_data_error(self, graph_path, tmp_path):
        m = SignedDigraph.load(graph_path).edge_count
        split = tmp_path / "s.json"
        split.write_text(json.dumps({"format": "edgesign-split", "version": 1, "edge_count": m,
                                     "fraction": 0.3, "seed": 1, "training_edges": [0, m]}))
        assert run_cli("train", graph_path, "--method", "blc", "--split", split,
                       "-o", tmp_path / "m.json") == cli.EXIT_DATA

    def test_split_of_another_edge_count_is_a_data_error(self, graph_path, tmp_path, capsys):
        m = SignedDigraph.load(graph_path).edge_count
        split, model = tmp_path / "s.json", tmp_path / "m.json"
        EdgeSplit(np.arange(m + 1) % 2 == 0, 0.5, 1).save(split)
        capsys.readouterr()
        assert run_cli("train", graph_path, "--method", "blc", "--split", split,
                       "-o", model) == cli.EXIT_DATA
        assert capsys.readouterr().err == "error: split does not match the graph's edge count\n"
        assert not model.exists()

    @pytest.mark.parametrize("edge_count, message", [
        (20_000_000, "split does not match the graph's edge count"),
        (2.5, "edgesign-split container: edge_count must be a non-negative integer, got 2.5"),
    ])
    def test_a_split_claiming_many_edges_is_refused_before_its_mask_is_allocated(
            self, graph_path, tmp_path, capsys, edge_count, message):
        split, model = tmp_path / "s.json", tmp_path / "m.json"
        split.write_text(json.dumps({"format": "edgesign-split", "version": 1,
                                     "edge_count": edge_count, "fraction": 0.5, "seed": 1,
                                     "training_edges": [0, 1]}))
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = run_cli("train", graph_path, "--method", "blc", "--split", split, "-o", model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"
        # a mask, its copy and the test indices for 2e7 edges would take about 220 MB
        assert peak < 4 * 2**20, peak
        assert not model.exists()

    @pytest.mark.parametrize("command", ["train", "predict", "eval"])
    def test_train_predict_and_eval_need_a_split_file(self, graph_path, tmp_path, capsys,
                                                       command):
        out = tmp_path / "out"
        inputs = {"train": ["--method", "blc"], "predict": [tmp_path / "m.json"],
                  "eval": [tmp_path / "p.csv"]}[command]
        capsys.readouterr()
        # --fraction and --seed draw a split only at the split command
        with pytest.raises(SystemExit) as exc:
            run_cli(command, graph_path, *inputs, "--fraction", "0.3", "--seed", "1", "-o", out)
        assert exc.value.code == cli.EXIT_ARGUMENT
        assert "--split" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["training_edges", "src"])
    def test_a_boolean_in_an_integer_list_is_a_data_error_naming_its_key(self, graph_path,
                                                                         tmp_path, capsys, key):
        g = SignedDigraph.load(graph_path)
        graph, split, model = tmp_path / "v1.json", tmp_path / "s.json", tmp_path / "m.json"
        graph.write_text(json.dumps({"format": "edgesign-graph", "version": 1,
                                     "node_count": g.node_count, "src": g.src.tolist(),
                                     "dst": g.dst.tolist(), "labels": g.labels.tolist(),
                                     "node_ids": g.node_ids}))
        # a version-1 split lists its training edges as integers
        split.write_text(json.dumps({"format": "edgesign-split", "version": 1,
                                     "edge_count": g.edge_count, "fraction": 0.3, "seed": 1,
                                     "training_edges": sample_split(g, 0.3, 1)
                                     .training_indices().tolist()}))
        damaged = {"training_edges": split, "src": graph}[key]
        d = json.loads(damaged.read_text())
        d[key] = [True] + d[key][1:]
        damaged.write_text(json.dumps(d))
        capsys.readouterr()
        assert run_cli("train", graph, "--method", "blc", "--split", split,
                       "-o", model) == cli.EXIT_DATA
        assert f"{key} must be a list of integers, got [True, " in capsys.readouterr().err
        assert not model.exists()

    def test_sweep_reads_an_edge_list_dataset(self, graph_path, tmp_path):
        g = SignedDigraph.load(graph_path)
        dataset, spec, out = tmp_path / "tiny.tsv", tmp_path / "spec.json", tmp_path / "rep.json"
        write_edge_list(g, dataset)
        spec.write_text(json.dumps({"dataset": str(dataset), "methods": ["blc", "lprop"],
                                    "fractions": [0.5], "repetitions": 1}))
        assert run_cli("sweep", spec, "-o", out) == 0
        report = read_json(out)
        assert (report["node_count"], report["edge_count"]) == (g.node_count, g.edge_count)


TINY_SWEEP = {"synthetic": {"node_count": 20, "mean_out_degree": 4,
                            "prior": {"kind": "uniform"}},
              "methods": ["blc"], "fractions": [0.5], "repetitions": 1}


def test_the_undamaged_tiny_sweep_spec_runs(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TINY_SWEEP))
    assert run_cli("sweep", path, "-o", tmp_path / "rep.json") == 0


@pytest.mark.parametrize("change", [{"methods": ["blc", "blc"]}, {"methods": []},
                                    {"fractions": [0.5, 0.5]}, {"fractions": []}],
                         ids=["repeated-method", "no-method", "repeated-fraction", "no-fraction"])
def test_sweep_with_repeated_or_empty_lists_is_an_argument_error(tmp_path, capsys, change):
    path, report = tmp_path / "spec.json", tmp_path / "rep.json"
    path.write_text(json.dumps({**TINY_SWEEP, **change}))
    assert run_cli("sweep", path, "-o", report) == cli.EXIT_ARGUMENT
    assert capsys.readouterr().err.startswith("error:")
    assert not report.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_sweep_with_fewer_than_one_thread_is_an_argument_error(tmp_path, capsys, threads):
    path, report = tmp_path / "spec.json", tmp_path / "rep.json"
    path.write_text(json.dumps(TINY_SWEEP))
    assert run_cli("sweep", path, "-o", report, "--threads", threads) == cli.EXIT_ARGUMENT
    assert "threads must be at least 1" in capsys.readouterr().err
    assert not report.exists()


def sweep_spec(path):
    report = str(path.parent / "unused.json")  # written only if the spec is accepted
    return cli.cmd_sweep(cli.build_parser().parse_args(["sweep", str(path), "-o", report]))


@pytest.mark.parametrize("payload, reader, key", [
    ({"format": "edgesign-genparams", "version": 1, "p": [0.5]}, GenParams.load, "seed"),
    ({"format": "edgesign-genparams", "version": 1, "p": [0.5], "q": [0.5], "prior": None,
      "seed": 1.5}, GenParams.load, "seed"),
    ({"kind": "two-point", "lo": 0.1}, lambda path: prior_from_json_dict(read_json(path)), "hi"),
    ({"synthetic": {"node_count": 10}}, sweep_spec, "prior"),
    ({"synthetic": {"node_count": 10, "prior": {"kind": "beta"}}}, sweep_spec, "a_p"),
    ({"methods": ["blc"]}, sweep_spec, "dataset"),
    ({**TINY_SWEEP, "repetitions": "3"}, sweep_spec, "repetitions"),
    ({**TINY_SWEEP, "base_seed": "x"}, sweep_spec, "base_seed"),
    ({**TINY_SWEEP, "methods": "blc"}, sweep_spec, "methods"),
    ({**TINY_SWEEP, "fractions": ["0.5"]}, sweep_spec, "fractions"),
    ({**TINY_SWEEP, "include_psi2": "no"}, sweep_spec, "include_psi2"),
    ({"synthetic": {**TINY_SWEEP["synthetic"], "seed": -1}}, sweep_spec, "seed"),
    ({"synthetic": {**TINY_SWEEP["synthetic"], "node_count": "10"}}, sweep_spec, "node_count"),
    ({"synthetic": {**TINY_SWEEP["synthetic"], "prior": {"kind": "two-point", "lo": "0.1",
                                                          "hi": 0.9, "weight": 0.5}}},
     sweep_spec, "lo"),
    ({"synthetic": {**TINY_SWEEP["synthetic"], "prior": {"kind": "beta", "a_p": 1, "b_p": [1],
                                                          "a_q": 1, "b_q": 1}}},
     sweep_spec, "b_p"),
    ({"dataset": 5}, sweep_spec, "dataset"),
    ({**TINY_SWEEP, "repetition": 2}, sweep_spec, "repetition"),
    ({**TINY_SWEEP, "dataset": "g.json"}, sweep_spec, "dataset"),
    ({**TINY_SWEEP, "synthetic": {**TINY_SWEEP["synthetic"], "mean_outdegree": 4}}, sweep_spec,
     "mean_outdegree"),
    ({**TINY_SWEEP, "synthetic": {**TINY_SWEEP["synthetic"],
                                  "prior": {"kind": "uniform", "lo": 0.1}}}, sweep_spec, "lo"),
    ({"kind": "two-point", "lo": 0.1, "hi": 0.9, "weight": 0.5, "q_wieght": 0.9},
     lambda path: prior_from_json_dict(read_json(path)), "q_wieght"),
    ({"format": "edgesign-genparams", "version": 1, "p": [0.5], "q": [0.5],
      "prior": {"kind": "beta", "a_p": 1, "b_p": 1, "a_q": 1, "b_q": 1, "a": 1}, "seed": 1},
     GenParams.load, "a"),
], ids=["genparams", "genparams-seed-fraction", "prior", "sweep-no-prior", "sweep-beta-no-shapes",
        "sweep-no-source", "sweep-repetitions-text", "sweep-base-seed-text",
        "sweep-methods-text", "sweep-fractions-text", "sweep-psi2-text", "sweep-negative-seed",
        "sweep-node-count-text", "sweep-two-point-text", "sweep-beta-list",
        "sweep-dataset-number", "sweep-unknown-key", "sweep-both-sources",
        "sweep-synthetic-unknown-key", "sweep-prior-unknown-key", "prior-unknown-key",
        "genparams-prior-unknown-key"])
def test_damaged_parameter_state_and_spec_files_are_data_errors(tmp_path, payload, reader, key):
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=rf"\b{key}\b"):
        reader(path)
    if reader is sweep_spec:
        assert run_cli("sweep", path, "-o", tmp_path / "rep.json") == cli.EXIT_DATA


def test_misspelled_spec_keys_are_named_and_nothing_runs(tmp_path, capsys):
    # "repetition" and "fraction" would otherwise leave 12 repetitions over the
    # default fractions in place
    path, report = tmp_path / "spec.json", tmp_path / "rep.json"
    path.write_text(json.dumps({"synthetic": TINY_SWEEP["synthetic"], "methods": ["blc"],
                                "repetition": 2, "fraction": [0.5]}))
    assert run_cli("sweep", path, "-o", report) == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: sweep spec: unknown key 'repetition', 'fraction'\n"
    assert not report.exists()


def test_prior_with_a_misspelled_key_is_refused_not_defaulted():
    prior = {"kind": "two-point", "lo": 0.1, "hi": 0.9, "weight": 0.5}
    assert prior_from_json_dict(prior).q_weight == 0.5
    with pytest.raises(DataError, match=r"^two-point prior: unknown key 'q_wieght'$"):
        prior_from_json_dict({**prior, "q_wieght": 0.9})


def run_synth(tmp_path, kind, *values):
    return run_cli("synth", "--nodes", 20, "--degree", 3, "--prior", kind, "--prior-params",
                   *values, "--seed", 1, "-o", tmp_path / "g.json",
                   "--params-out", tmp_path / "params.json")


@pytest.mark.parametrize("kind, values, prior", [
    ("uniform", (), UniformPrior()),
    ("beta", (1, 2, 3, 4), BetaPrior(1.0, 2.0, 3.0, 4.0)),
    ("two-point", (0.1, 0.9, 0.3), TwoPointPrior(0.1, 0.9, 0.3)),
    ("two-point", (0.1, 0.9, 0.3, 0.2, 0.6, 0.7), TwoPointPrior(0.1, 0.9, 0.3, 0.2, 0.6, 0.7)),
])
def test_synth_prior_params_fill_the_priors_fields_in_order(tmp_path, kind, values, prior):
    assert run_synth(tmp_path, kind, *values) == 0
    assert GenParams.load(tmp_path / "params.json").prior == prior


@pytest.mark.parametrize("kind, values, code", [
    ("beta", (1, 2), cli.EXIT_DATA),
    ("beta", (1, 2, 3, 4, 5), cli.EXIT_DATA),
    ("uniform", (0.3,), cli.EXIT_DATA),
    ("two-point", (0.1, 0.9), cli.EXIT_DATA),
    ("two-point", (0.1, 0.9, 0.5, 0.2), cli.EXIT_DATA),
    ("beta", (-1, 2, 3, 4), cli.EXIT_ARGUMENT),
    ("two-point", (0.9, 0.1, 0.5), cli.EXIT_ARGUMENT),
])
def test_synth_rejects_bad_prior_params(tmp_path, capsys, kind, values, code):
    assert run_synth(tmp_path, kind, *values) == code
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "g.json").exists()


# ids with separators, quotes, spaces and non-ASCII characters
ODD_IDS = ["a,b", 'q"x', '"', ",", "ü", "日本", "x y", "plain", '""', "'s"]
ID_CHARACTERS = sorted(set("".join(ODD_IDS)) | set("\r\n\t#"))


@pytest.fixture
def odd_graph_path(tmp_path):
    g, _ = make_synthetic(len(ODD_IDS), TwoPointPrior(0.1, 0.9), 6, seed=3)
    text = "".join(f"{ODD_IDS[u]}\t{ODD_IDS[v]}\t{y}\n"
                   for u, v, y in zip(g.src.tolist(), g.dst.tolist(), g.labels.tolist()))
    edges = tmp_path / "odd.tsv"
    edges.write_text(text, encoding="utf-8")
    path = tmp_path / "odd.json"
    assert run_cli("ingest", edges, path, "--delimiter", "\t") == 0
    return path


# repeated scores, both zeros, subnormals, infinities and extremes
SCORE_POOL = [0.0, -0.0, 0.1, -2.5e-07, 1 / 3, 0.5, -0.75, 5e-324, -2.5e-320, math.inf,
              -math.inf, 1e300, -1e300, math.nan]


@st.composite
def predictions(draw):
    """A Prediction over at most 20 nodes, with odd ids or none."""
    node_ids = draw(st.none() | st.lists(st.text(st.sampled_from(ID_CHARACTERS), max_size=4),
                                         min_size=20, max_size=20))
    m = draw(st.integers(0, 30))
    ends = st.lists(st.integers(0, 19), min_size=m, max_size=m)
    src, dst = np.array(draw(ends), dtype=np.int64), np.array(draw(ends), dtype=np.int64)
    scores = np.array(draw(st.lists(st.sampled_from(SCORE_POOL), min_size=m, max_size=m)))
    labels = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m)),
                      dtype=np.int8)
    return Prediction(np.arange(m), src, dst, scores, labels, 0.0, "blc"), node_ids


class TestPredictionFiles:
    def test_odd_ids_round_trip_through_predict_and_eval(self, odd_graph_path, tmp_path,
                                                         split_file):
        g = SignedDigraph.load(odd_graph_path)
        assert sorted(g.node_ids) == sorted(ODD_IDS)
        common = ["--split", split_file(odd_graph_path, 0.3, 2)]
        model, pred, result = tmp_path / "m.json", tmp_path / "p.csv", tmp_path / "e.json"
        assert run_cli("train", odd_graph_path, "--method", "blc", *common, "-o", model) == 0
        assert run_cli("predict", odd_graph_path, model, *common, "-o", pred) == 0
        split = sample_split(g, 0.3, 2)
        test = split.test_indices()
        with open(pred, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert [(r[0], r[1]) for r in rows] == [(g.node_ids[g.src[e]], g.node_ids[g.dst[e]])
                                                for e in test]
        assert run_cli("eval", odd_graph_path, pred, *common, "-o", result) == 0
        expected = blc_predict_split(blc_fit(g, split), g, split)
        c = confusion(expected.labels, g.labels[test])
        assert json.loads(result.read_text())["mcc"] == mcc(c)

    def test_plain_ids_are_written_unquoted(self, tmp_path):
        pred = Prediction(np.arange(2), np.array([0, 1]), np.array([1, 0]),
                          np.array([0.1, -2.5e-7]), np.array([1, -1], dtype=np.int8), 0.0, "blc")
        path = tmp_path / "p.csv"
        pred.to_csv(path, node_ids=["n0", "n1"])
        assert path.read_bytes() == b"src,dst,score,label\nn0,n1,0.1,1\nn1,n0,-2.5e-07,-1\n"
        pred.to_csv(path)
        assert path.read_bytes() == b"src,dst,score,label\n0,1,0.1,1\n1,0,-2.5e-07,-1\n"

    @settings(max_examples=200, deadline=None)
    @given(predictions())
    def test_writer_matches_the_per_row_reference_and_reads_back(self, tmp_path_factory, case):
        pred, node_ids = case
        path = tmp_path_factory.mktemp("pred") / "p.csv"
        pred.to_csv(path, node_ids=node_ids)
        expected = prediction_csv_reference(pred, node_ids).encode("utf-8")
        assert path.read_bytes() == expected
        names = [str(k) for k in range(20)] if node_ids is None else node_ids
        u, v, labels = batch.read_predictions(path, names)
        # drawn names may repeat: each row must point at a node of its own name
        for found, ends in ((u, pred.src), (v, pred.dst)):
            assert found.min(initial=0) >= 0
            assert [names[k] for k in found.tolist()] == [names[k] for k in ends.tolist()]
        assert labels.tolist() == pred.labels.tolist()
        buffer = io.StringIO(newline="")
        pred.to_csv(buffer, node_ids=node_ids)
        assert buffer.getvalue().encode("utf-8") == expected

    def test_writer_matches_the_per_row_reference_beyond_one_block(self, tmp_path):
        """More rows than two blocks: lprop scores (nearly all distinct), and ids of 1 to
        40 characters, some needing quotes."""
        g, _ = make_synthetic(2500, UniformPrior(), 10, seed=24)
        split = sample_split(g, 0.15, 24)
        pred = METHODS["lprop"].fit(g, split).predict_split(g, split)
        assert pred.scores.size > 2 * max(batch._SCORE_BLOCK, graph._ROW_BLOCK)
        assert np.unique(pred.scores).size > pred.scores.size // 2
        rng = np.random.default_rng(24)
        chars = list('abz09-é,"\r\n ')
        node_ids = ["".join(rng.choice(chars, size)) for size in rng.integers(1, 41, g.node_count)]
        assert sum(any(c in t for c in ',"\r\n') for t in node_ids) > 100
        expected = prediction_csv_reference(pred, node_ids)
        path, buffer = tmp_path / "p.csv", io.StringIO(newline="")
        pred.to_csv(path, node_ids=node_ids)
        assert path.read_bytes() == expected.encode("utf-8")
        pred.to_csv(buffer, node_ids=node_ids)
        assert buffer.getvalue() == expected
        # an id UTF-8 cannot encode: a path write raises before the file is opened
        named = tmp_path / "named.csv"
        with pytest.raises(UnicodeEncodeError):
            pred.to_csv(named, node_ids=[*node_ids, "\ud800"])
        assert not named.exists()

    def test_a_lone_surrogate_id_is_refused_on_load(self, graph_path, tmp_path, capsys,
                                                    split_file):
        d = json.loads(graph_path.read_text())
        lone = tmp_path / "lone.json"
        lone.write_text(json.dumps({**d, "node_ids": ["\ud800", *d["node_ids"][1:]]}))
        model = tmp_path / "m.json"
        assert run_cli("train", lone, "--method", "blc", "--split", split_file(graph_path),
                       "-o", model) == cli.EXIT_DATA
        assert capsys.readouterr().err == ("error: edgesign-graph container: node_ids must be "
                                           "strings UTF-8 can encode, got '\\ud800'\n")
        assert not model.exists()

    @pytest.mark.parametrize("name", ["x" * 200_000, "x," * 100_000], ids=["plain", "quoted"])
    def test_ids_longer_than_the_csv_field_limit_round_trip(self, graph_path, tmp_path,
                                                            split_file, name):
        """An id over ``csv.field_size_limit()`` characters, written plain or quoted,
        evaluates as a short one, and the limit is as it was after the read."""
        common = ["--split", split_file(graph_path)]
        d = json.loads(graph_path.read_text())
        long = tmp_path / "long.json"
        long.write_text(json.dumps({**d, "node_ids": [name, *d["node_ids"][1:]]}))
        limit = csv.field_size_limit()
        assert len(name) > limit
        results = []
        for g in (graph_path, long):
            model, pred, out = tmp_path / "m.json", tmp_path / "p.csv", tmp_path / "e.json"
            assert run_cli("train", g, "--method", "blc", *common, "-o", model) == 0
            assert run_cli("predict", g, model, *common, "-o", pred) == 0
            assert run_cli("eval", g, pred, *common, "-o", out) == 0
            results.append(out.read_bytes())
        assert name.encode() in pred.read_bytes()
        assert results[0] == results[1]
        assert csv.field_size_limit() == limit

    def test_malformed_prediction_files_are_data_errors(self, graph_path, tmp_path, capsys,
                                                        split_file):
        common = ["--split", split_file(graph_path)]
        model, pred = tmp_path / "m.json", tmp_path / "p.csv"
        assert run_cli("train", graph_path, "--method", "blc", *common, "-o", model) == 0
        assert run_cli("predict", graph_path, model, *common, "-o", pred) == 0
        header, *rows = pred.read_text().splitlines(keepends=True)
        assert run_cli("eval", graph_path, pred, *common) == 0
        g = SignedDigraph.load(graph_path)
        e = sample_split(g, 0.3, 1).training_indices()[0]
        trained = (g.node_ids[g.src[e]], g.node_ids[g.dst[e]])
        trained_row = ",".join(trained) + ",0.5,1\n"
        cases = {"does not cover test edge": [header, *rows[1:]],
                 "twice": [header, *rows, rows[0]],
                 f"lists edge {trained!r} twice": [header, *rows, trained_row, trained_row],
                 "different edge set": [header, *rows, "nobody,0,0.5,1\n"],
                 "covers a different edge set": [header, *rows, *["nobody,0,0.5,1\n"] * 2],
                 "bad label": [header, rows[0].rsplit(",", 1)[0] + ",2\n", *rows[1:]],
                 "expected 4 fields": [header, "0,1,1\n", *rows],
                 "line 3: expected 4 fields, got 0": [header, rows[0], "\n", *rows[1:]],
                 "header": [*rows]}
        for expected, lines in cases.items():
            pred.write_text("".join(lines))
            capsys.readouterr()
            assert run_cli("eval", graph_path, pred, *common) == cli.EXIT_DATA, expected
            assert expected in capsys.readouterr().err
        pred.write_bytes(b"".join([header.encode(), *map(str.encode, rows[:2]), b"\xff",
                                   *map(str.encode, rows[2:])]))
        assert run_cli("eval", graph_path, pred, *common) == cli.EXIT_DATA
        assert "not CSV text" in capsys.readouterr().err

    def test_every_line_form_and_id_width_gives_the_same_eval(self, graph_path, tmp_path,
                                                              split_file):
        """The byte reader and the csv module agree, on every id width."""
        common = ["--split", split_file(graph_path)]
        model = tmp_path / "m.json"
        assert run_cli("train", graph_path, "--method", "blc", *common, "-o", model) == 0

        def evaluate(graph, text, name):
            pred, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            pred.write_bytes(text.encode("utf-8"))
            assert run_cli("eval", graph, pred, *common, "-o", out) == 0, name
            return out.read_bytes()

        pred = tmp_path / "p.csv"
        assert run_cli("predict", graph_path, model, *common, "-o", pred) == 0
        text = pred.read_text(encoding="utf-8")
        expected = evaluate(graph_path, text, "lf")
        d = json.loads(graph_path.read_text())
        # ids of 1 to 20 bytes: one key word, and several folded into one
        widths = tmp_path / "widths.json"
        widths.write_text(json.dumps({**d, "node_ids": [f"{k}" + "-" * (k % 19)
                                                        for k in range(d["node_count"])]}))
        wide = tmp_path / "wide.csv"
        assert run_cli("predict", widths, model, *common, "-o", wide) == 0
        # an id holding NUL, which predict writes unquoted
        nul = tmp_path / "nul.json"
        nul.write_text(json.dumps({**d, "node_ids": ["a\x00b", *d["node_ids"][1:]]}))
        nul_pred = tmp_path / "nul.csv"
        assert run_cli("predict", nul, model, *common, "-o", nul_pred) == 0
        header, *rows = text.splitlines(keepends=True)
        shuffled = [rows[k] for k in np.random.default_rng(5).permutation(len(rows))]
        cases = {"no final line break": (graph_path, text.rstrip("\n")),
                 "CRLF line ends": (graph_path, text.replace("\n", "\r\n")),
                 # rows are matched to test edges by edge, not by position
                 "rows reversed": (graph_path, "".join([header, *rows[::-1]])),
                 "rows shuffled": (graph_path, "".join([header, *shuffled])),
                 "ids over 8 bytes": (widths, wide.read_text(encoding="utf-8")),
                 "an id holding NUL": (nul, nul_pred.read_text(encoding="utf-8"))}
        for name, (graph, case) in cases.items():
            assert evaluate(graph, case, name.replace(" ", "-")) == expected, name


@pytest.mark.parametrize("method", list(METHODS))
def test_train_defaults_are_the_methods_own(graph_path, tmp_path, method):
    split_path, model, expected = tmp_path / "s.json", tmp_path / "m.json", tmp_path / "e.json"
    assert run_cli("split", graph_path, "--fraction", "0.3", "--seed", "1", "-o", split_path) == 0
    assert run_cli("train", graph_path, "--method", method, "--split", split_path,
                   "-o", model) == 0
    g = SignedDigraph.load(graph_path)
    save_model(METHODS[method].fit(g, EdgeSplit.load(split_path)), expected)
    assert model.read_bytes() == expected.read_bytes()


def strict_json(text):
    """``json.loads`` refusing ``NaN``, ``Infinity`` and ``-Infinity``, which JSON lacks."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestStrictJsonOutputs:
    """Numbers a command cannot give are written as null, not as NaN."""

    def test_stats_without_psi2(self, graph_path, tmp_path, capsys):
        out = tmp_path / "stats.json"
        capsys.readouterr()
        assert run_cli("stats", graph_path, "--no-psi2", "-o", out) == 0
        for payload in (strict_json(out.read_text()), strict_json(capsys.readouterr().out)):
            assert payload["psi2"] is None and payload["psi2_rate"] is None
            assert payload["psi_g"] == psi_g(SignedDigraph.load(graph_path))[2]

    def test_sweep_without_psi2(self, tmp_path):
        spec, out = tmp_path / "spec.json", tmp_path / "rep.json"
        spec.write_text(json.dumps({**TINY_SWEEP, "include_psi2": False}))
        assert run_cli("sweep", spec, "-o", out) == 0
        regularity = strict_json(out.read_text())["regularity"]
        assert regularity["psi2"] is None and regularity["psi2_rate"] is None

    def test_sweep_cell_whose_every_repetition_fails(self, tmp_path):
        # every label is -1, so logreg's training labels are single-class
        spec, out = tmp_path / "spec.json", tmp_path / "rep.json"
        spec.write_text(json.dumps({
            "synthetic": {"node_count": 6, "mean_out_degree": 2,
                          "prior": {"kind": "two-point", "lo": 0, "hi": 0, "weight": 0.5}},
            "methods": ["blc", "logreg"], "fractions": [0.5], "repetitions": 2}))
        assert run_cli("sweep", spec, "-o", out) == 0
        cells = {c["method"]: c for c in strict_json(out.read_text())["cells"]}
        failed = cells["logreg"]
        assert len(failed["failures"]) == 2 and failed["mcc_values"] == []
        assert failed["mcc_mean"] is failed["acc_mean"] is failed["seconds_mean"] is None
        assert all(isinstance(cells["blc"][k], float)
                   for k in ("mcc_mean", "acc_mean", "seconds_mean"))

    def test_stats_of_an_empty_graph_and_eval_of_an_empty_test_set(self, tmp_path, capsys,
                                                                   split_file):
        empty, one = tmp_path / "empty.tsv", tmp_path / "one.tsv"
        empty.write_text("# no edges\n")
        one.write_text("a\tb\t1\n")
        assert run_cli("stats", empty, "-o", tmp_path / "stats.json") == 0
        assert strict_json((tmp_path / "stats.json").read_text())["positive_fraction"] is None
        # a graph without edges cannot be split: a data error, at split and in a sweep
        spec, split, report = tmp_path / "spec.json", tmp_path / "s.json", tmp_path / "rep.json"
        spec.write_text(json.dumps({"dataset": str(empty), "methods": ["blc"],
                                    "fractions": [0.5], "repetitions": 1}))
        for argv, out in ((["split", empty, "--fraction", "0.5", "--seed", "1", "-o", split],
                           split), (["sweep", spec, "-o", report], report)):
            capsys.readouterr()
            assert run_cli(*argv) == cli.EXIT_DATA, argv[0]
            assert capsys.readouterr().err == "error: graph has no edges to split\n"
            assert not out.exists()
        # one edge at fraction 0.9: the training set takes it, the test set is empty
        common = ["--split", split_file(one, 0.9, 1)]
        model, pred, out = tmp_path / "m.json", tmp_path / "p.csv", tmp_path / "eval.json"
        assert run_cli("train", one, "--method", "blc", *common, "-o", model) == 0
        assert run_cli("predict", one, model, *common, "-o", pred) == 0
        assert run_cli("eval", one, pred, *common, "-o", out) == 0
        assert strict_json(out.read_text())["accuracy"] is None
