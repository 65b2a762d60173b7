import json

import pytest

from edgesign import cli
from edgesign.genmodel import TwoPointPrior, make_synthetic
from edgesign.graph import SignedDigraph
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
