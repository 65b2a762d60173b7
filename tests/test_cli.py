import json

import pytest

import numpy as np

from edgesign import cli
from edgesign.batch import (UnregModel, load_model, save_model, unreg_predict,
                            unreg_solve)
from edgesign.genmodel import TwoPointPrior, make_synthetic
from edgesign.graph import SignedDigraph, sample_split
from edgesign.online import adversary_generate, run_online


@pytest.fixture
def graph_path(tmp_path):
    g, _ = make_synthetic(80, TwoPointPrior(0.1, 0.9), 6, seed=3)
    path = tmp_path / "graph.json"
    g.save(path)
    return path


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

    def test_adversary_full_pass_trials_equal_direct_runs(self, graph_path, tmp_path):
        payload = run_cli_online(graph_path, tmp_path, "--adversary-k", "7", "--full-pass")
        g = SignedDigraph.load(graph_path)
        direct = [run_online(g, order=adversary_generate(g, 7, 5 + t, include_tail=True),
                             seed=5 + t) for t in range(2)]
        assert payload["trials"] == [r.to_json_dict() for r in direct]
        for trial in payload["trials"]:
            assert trial["order"] == "adversary(K=7)"
            assert trial["edges_predicted"] == g.edge_count
            assert "tail_expected" in trial

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


class TestUnregModel:
    def test_predict_on_another_split_scores_that_split(self, graph_path, tmp_path):
        model_path, pred_path = tmp_path / "unreg.json", tmp_path / "pred.csv"
        assert cli.main(["train", str(graph_path), "--method", "unreg", "--fraction", "0.3",
                         "--seed", "1", "-o", str(model_path)]) == 0
        # same test-set size, different edges
        assert cli.main(["predict", str(graph_path), str(model_path), "--fraction", "0.3",
                         "--seed", "2", "-o", str(pred_path)]) == 0
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
        pred = unreg_predict(result, g, split)
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
