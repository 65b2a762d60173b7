import copy
import dataclasses
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesign import online
from edgesign.errors import ProtocolError
from edgesign.features import psi_g
from edgesign.genmodel import TwoPointPrior, make_synthetic
from edgesign.graph import SignedDigraph
from edgesign.online import (AdversarySequence, OnlineState, adversary_expected_mistakes,
                             adversary_generate, mistake_bound, run_online)

from conftest import random_graph
from oracles import mrc_recurrence_table, rwm_two_expert_mistakes

ORDER_KINDS = ("random", "permutation", "adversary", "adversary+tail")


def stream(g, rounds, rng):
    """Play (edge id, label) rounds through the streaming API."""
    state = online.online_init(g)
    for e, y in rounds:
        edge = (int(g.src[e]), int(g.dst[e]))
        online.online_predict(state, edge, rng)
        online.online_update(state, edge, int(y))
    return state


def snapshot(state):
    """A deep copy of a state's attributes, to show that a refused call changed none."""
    return copy.deepcopy(vars(state))


def run_and_replay(g, kind, seed, budget=1):
    """run_online's report and the streaming state after the same rounds.

    For adversary orders the streaming (realized, expected) tallies after
    the forced prefix come back too, so headline and tail tallies can be
    compared; otherwise that slot is None.
    """
    rng = np.random.default_rng(seed)
    if kind == "random":
        report = run_online(g, g.labels, "random", seed)
        perm = rng.permutation(g.edge_count)
        return report, None, stream(g, [(e, g.labels[e]) for e in perm], rng)
    if kind == "permutation":
        perm = np.random.default_rng(seed + 1).permutation(g.edge_count)
        report = run_online(g, g.labels, perm.tolist(), seed)
        return report, None, stream(g, [(e, g.labels[e]) for e in perm], rng)
    seq = adversary_generate(g, budget, seed, include_tail=kind == "adversary+tail")
    report = run_online(g, order=seq, seed=seed)
    labels = seq.labels()
    head = stream(g, [(e, labels[e]) for e in seq.order], rng)
    head_tallies = (head.realized_mistakes, head.expected_mistakes)
    if seq.tail is not None:
        for e in seq.tail:
            edge = (int(g.src[e]), int(g.dst[e]))
            online.online_predict(head, edge, rng)
            online.online_update(head, edge, int(labels[e]))
    return report, head_tallies, head


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 12), edges=st.integers(1, 60), graph_seed=st.integers(0, 2 ** 16),
       seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(ORDER_KINDS),
       budget_share=st.floats(0.0, 1.0))
def test_run_online_matches_streaming_replay(n, edges, graph_seed, seed, kind, budget_share):
    g = random_graph(n, edges, graph_seed)
    m = g.edge_count
    if kind.startswith("adversary") and m < 2:
        kind = "random"
    budget = 1 + int(budget_share * (m // 2 - 1)) if m >= 2 else 1
    report, head, state = run_and_replay(g, kind, seed, budget)
    assert report.edges_predicted == state.edges_seen
    if head is None:
        assert report.edges_predicted == m
        assert report.realized_mistakes == state.realized_mistakes
        assert report.expected_mistakes == pytest.approx(state.expected_mistakes, rel=1e-12)
        return
    assert report.realized_mistakes == head[0]
    assert report.expected_mistakes == pytest.approx(head[1], rel=1e-12)
    if kind == "adversary":
        assert report.tail_realized is None and report.tail_expected is None
        assert report.forced_len == report.edges_predicted
    else:
        assert report.edges_predicted == m
        assert report.tail_realized == state.realized_mistakes - head[0]
        assert report.tail_expected == pytest.approx(state.expected_mistakes - head[1],
                                                     rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_replay_on_a_larger_graph(kind):
    g, _ = make_synthetic(300, TwoPointPrior(0.1, 0.9), 10, seed=4)
    report, head, state = run_and_replay(g, kind, seed=11, budget=200)
    realized, expected = head if head is not None else (state.realized_mistakes,
                                                        state.expected_mistakes)
    assert report.realized_mistakes == realized
    assert report.expected_mistakes == pytest.approx(expected, rel=1e-12)


def empty_graph():
    return SignedDigraph(3, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                         np.zeros(0, dtype=np.int8))


@pytest.mark.parametrize("order", ["random", []])
def test_empty_graph_gives_zero_tallies(order):
    report = run_online(empty_graph(), np.zeros(0, dtype=np.int8), order, seed=3)
    assert report.edges_predicted == 0
    assert report.realized_mistakes == 0
    assert report.expected_mistakes == 0.0
    assert report.psi_g == 0


@pytest.mark.parametrize("label", [1, -1])
def test_single_edge_graph(label):
    g = SignedDigraph(2, [0], [1], [label])
    for seed in range(20):
        report, _, state = run_and_replay(g, "random", seed)
        # uniform weights everywhere: the one round is a coin flip
        assert report.expected_mistakes == 0.5
        assert report.realized_mistakes == state.realized_mistakes
        assert report.edges_predicted == 1


COUNTS = st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 2 ** 50))
CUMULATIVE_LOSSES = st.floats(0.0, 1e12)


def loss_pairs(losses):
    """Lists of (first, second) losses, some pairs equal."""
    return st.lists(st.one_of(st.tuples(losses, losses), losses.map(lambda x: (x, x))),
                    max_size=40)


def assert_scalar_weights(first, second):
    """``_prob_first_array`` gives ``_prob_first`` of each pair, compared by ``float.hex``."""
    weights = online._prob_first_array(first, second)
    assert weights.dtype == np.float64 and weights.shape == first.shape
    assert [w.hex() for w in weights.tolist()] == [
        online._prob_first(a, b).hex() for a, b in zip(first.tolist(), second.tolist())]


@settings(max_examples=200, deadline=None)
@given(pairs=st.one_of(loss_pairs(COUNTS).map(lambda p: (p, np.int64)),
                       loss_pairs(CUMULATIVE_LOSSES).map(lambda p: (p, np.float64))))
def test_prob_first_array_equals_the_scalar_weight_bit_for_bit(pairs):
    # label counts (base instances) come as int64, cumulative expected losses
    # (the top combiner) as float64
    pairs, dtype = pairs
    assert_scalar_weights(np.array([a for a, _ in pairs], dtype=dtype),
                          np.array([b for _, b in pairs], dtype=dtype))


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_prob_first_array_equals_the_scalar_weight_on_long_arrays(dtype):
    # long enough that a vectorized exp, which rounds some values differently, shows
    rng = np.random.default_rng(5)
    if dtype is np.int64:
        first, second = rng.integers(0, 60, (2, 20000))
    else:
        first, second = rng.random((2, 20000)) * 500.0
    assert_scalar_weights(first, second)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), edges=st.integers(1, 60), graph_seed=st.integers(0, 2 ** 16),
       seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(ORDER_KINDS),
       block=st.integers(1, 9))
def test_run_online_report_does_not_depend_on_the_block_size(n, edges, graph_seed, seed, kind,
                                                             block):
    g = random_graph(n, edges, graph_seed)
    if kind.startswith("adversary") and g.edge_count < 2:
        kind = "random"
    if kind == "random":
        order = {"labeling": g.labels, "order": "random"}
    elif kind == "permutation":
        order = {"labeling": g.labels,
                 "order": np.random.default_rng(seed).permutation(g.edge_count)}
    else:
        order = {"order": adversary_generate(g, g.edge_count // 2, seed,
                                             include_tail=kind == "adversary+tail")}
    one_block = run_online(g, seed=seed, **order)
    with mock.patch.object(online, "_ROUND_BLOCK", block):
        blocks = run_online(g, seed=seed, **order)
    assert blocks.to_json_dict() == one_block.to_json_dict()


@pytest.mark.parametrize("node_count", [2 ** 16, 2 ** 17 + 5])
def test_run_online_on_node_ids_that_share_their_low_16_bits(node_count):
    # hub ids that agree in their low 16 bits (mod node_count), so a block sorted on
    # those bits alone would interleave different nodes' rounds
    rng = np.random.default_rng(21)
    low = rng.choice(2 ** 16, 12, replace=False)
    hubs = np.unique(np.concatenate([low, (low + 2 ** 16) % node_count, [node_count - 1]]))
    src, dst = (a.ravel() for a in np.meshgrid(hubs, hubs))
    keep = src != dst
    g = SignedDigraph(node_count, src[keep], dst[keep],
                      np.where(rng.random(keep.sum()) < 0.3, -1, 1).astype(np.int8))
    report, _, state = run_and_replay(g, "random", seed=5)
    assert report.realized_mistakes == state.realized_mistakes
    assert report.expected_mistakes == pytest.approx(state.expected_mistakes, rel=1e-12)
    with mock.patch.object(online, "_ROUND_BLOCK", 37):
        assert run_online(g, g.labels, "random", 5).to_json_dict() == report.to_json_dict()


def peak_bytes_per_edge(call):
    """``tracemalloc`` peak of ``call(g)`` per edge of a 10k-node two-point graph."""
    g, _ = make_synthetic(10000, TwoPointPrior(0.1, 0.9), 10, seed=3)
    tracemalloc.start()
    try:
        call(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / g.edge_count


def test_run_online_peak_memory_per_edge():
    # measured: 26 bytes per edge, 147 when the pass held every round's arrays at once
    assert peak_bytes_per_edge(lambda g: run_online(g, g.labels, "random", seed=3)) <= 40


def test_adversary_generate_stays_under_the_pass_peak_memory():
    # measured: 26 bytes per edge; drawn before a pass, it must not raise the pass's peak
    assert peak_bytes_per_edge(lambda g: adversary_generate(g, g.edge_count // 40, 3)) <= 40


class TestRunOnlineRejects:
    def setup_method(self):
        self.g = random_graph(8, 20, seed=1)

    def test_labeling_of_wrong_length(self):
        with pytest.raises(ProtocolError):
            run_online(self.g, self.g.labels[:-1], "random", seed=0)

    def test_missing_labeling(self):
        with pytest.raises(ValueError):
            run_online(self.g, None, "random", seed=0)

    @pytest.mark.parametrize("bad", [
        lambda m: np.arange(m - 1),
        lambda m: np.r_[0, np.arange(m - 1)],
        lambda m: np.r_[np.arange(1, m), m],
        lambda m: np.r_[np.arange(m - 1), -1],
        lambda m: "sorted",
    ])
    def test_permutation_that_is_not_an_exact_cover(self, bad):
        with pytest.raises(ProtocolError):
            run_online(self.g, self.g.labels, bad(self.g.edge_count), seed=0)

    def test_label_outside_plus_minus_one(self):
        labels = self.g.labels.copy()
        labels[5] = 0
        with pytest.raises(ValueError):
            run_online(self.g, labels, "random", seed=0)

    def test_sequence_that_repeats_an_edge(self):
        seq = adversary_generate(self.g, 3, seed=2)
        with pytest.raises(ProtocolError, match="more than once"):
            run_online(self.g, order=dataclasses.replace(seq, order=np.tile(seq.order, 2)), seed=0)
        tail = seq.order[:1]
        with pytest.raises(ProtocolError, match="more than once"):
            run_online(self.g, order=dataclasses.replace(seq, tail=tail), seed=0)

    @pytest.mark.parametrize("damage,message", [
        (lambda seq: {"order": seq.order[:-1]}, "reveal every negative edge"),
        (lambda seq: {"budget": 3}, "budget is 3, the labeling has 5"),
        (lambda seq: {"tail": seq.tail[:-1]}, "cover every edge"),
    ], ids=["short-prefix", "wrong-budget", "short-tail"])
    def test_sequence_that_contradicts_its_labeling(self, damage, message):
        seq = adversary_generate(self.g, 5, seed=2, include_tail=True)
        with pytest.raises(ProtocolError, match=message):
            run_online(self.g, order=dataclasses.replace(seq, **damage(seq)), seed=0)

    @pytest.mark.parametrize("other_edges", [60, 8])
    def test_sequence_drawn_for_another_graph(self, other_edges):
        other = random_graph(12, other_edges, seed=5)
        assert other.edge_count != self.g.edge_count
        seq = adversary_generate(other, other.edge_count // 2, seed=2, include_tail=True)
        with pytest.raises(ProtocolError, match="drawn for"):
            run_online(self.g, order=seq, seed=0)

    @pytest.mark.parametrize("field,ids,message", [
        ("order", lambda m: np.array([m, 0]), "outside"),
        ("tail", lambda m: np.r_[np.arange(2, m - 1), m], "outside"),
        ("negative_edges", lambda m: np.array([m]), "outside"),
        # not integers: truncated to ids, or used as a mask
        ("order", lambda m: np.array([1.0, 0.0]), "integer array"),
        ("tail", lambda m: np.arange(2, m) + 0.4, "integer array"),
        ("negative_edges", lambda m: np.array([0.0]), "integer array"),
        ("negative_edges", lambda m: np.arange(m) == 0, "integer array"),
        ("order", lambda m: np.array([[1, 0]]), "1-D"),
    ], ids=["order", "tail", "negative_edges", "order-float", "tail-float",
            "negative_edges-float", "negative_edges-bool", "order-2d"])
    def test_sequence_with_edge_ids_out_of_range(self, field, ids, message):
        m = self.g.edge_count
        seq = AdversarySequence(edge_count=m, budget=1, seed=0, negative_edges=np.array([0]),
                                order=np.array([1, 0]), tail=np.arange(2, m))
        run_online(self.g, order=seq, seed=0)  # sound before the damage
        setattr(seq, field, ids(m))
        with pytest.raises(ProtocolError, match=message):
            run_online(self.g, order=seq, seed=0)


class TestStateRounds:
    @pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (5, 0), (0, 3), (1.5, 0), (0, 1.0),
                                      ("1", 0), (True, 0), (np.int64(3), 0)])
    def test_endpoint_outside_the_node_set_is_a_protocol_error(self, edge):
        state = OnlineState(3)
        rng = np.random.default_rng(4)
        state.predict((1, 2), rng)
        state.update((1, 2), -1)
        before = snapshot(state)
        with pytest.raises(ProtocolError):
            state.predict(edge, rng)
        with pytest.raises(ProtocolError):
            state.update(edge, -1)
        assert snapshot(state) == before

    def test_second_prediction_before_the_reveal_is_a_protocol_error(self):
        state = OnlineState(3)
        rng = np.random.default_rng(4)
        state.predict((0, 1), rng)
        before = snapshot(state)
        with pytest.raises(ProtocolError, match="already has a pending prediction"):
            state.predict((0, 1), rng)
        assert snapshot(state) == before

    def test_update_with_label_zero_is_a_value_error(self):
        state = OnlineState(3)
        state.predict((0, 1), np.random.default_rng(4))
        before = snapshot(state)
        with pytest.raises(ValueError, match="label must be"):
            state.update((0, 1), 0)
        assert snapshot(state) == before

    def test_pending_predictions_on_numpy_ids_reveal_in_any_order(self):
        state = OnlineState(3)
        rng = np.random.default_rng(1)
        first, second = (np.int64(0), np.int64(2)), (np.int64(2), np.int64(1))
        state.predict(first, rng)
        state.predict(second, rng)
        state.update(second, 1)
        state.update(first, -1)
        assert state.edges_seen == 2
        assert (state.out_loss_plus, state.in_loss_minus) == ([1, 0, 0], [0, 1, 0])
        for edge in (first, second):
            with pytest.raises(ProtocolError, match="already revealed"):
                state.predict(edge, rng)

    def test_expected_mistake_increment_is_the_predicted_probability(self):
        # for a -1 label both sides add w_out·p_out + (1−w_out)·p_in; for +1 the
        # tally adds w_out·(1−p_out) + (1−w_out)·(1−p_in) and predict returns
        # 1 − (w_out·p_out + (1−w_out)·p_in), equal up to rounding
        g, _ = make_synthetic(60, TwoPointPrior(0.1, 0.9), 6, seed=2)
        state = online.online_init(g)
        rng = np.random.default_rng(3)
        for e in np.random.default_rng(4).permutation(g.edge_count):
            edge, label = (int(g.src[e]), int(g.dst[e])), int(g.labels[e])
            _, miss = online.online_predict(state, edge, rng)
            before = state.expected_mistakes
            online.online_update(state, edge, label)
            if label == -1:
                assert state.expected_mistakes == before + miss[-1]
            else:
                assert state.expected_mistakes == pytest.approx(before + miss[1], rel=1e-15)

    def test_each_call_weighs_three_instances(self, monkeypatch):
        calls = []
        prob_first = online._prob_first

        def counted(*losses):
            calls.append(losses)
            return prob_first(*losses)

        monkeypatch.setattr(online, "_prob_first", counted)
        g = random_graph(8, 30, seed=6)
        state = online.online_init(g)
        rng = np.random.default_rng(7)
        for e in range(g.edge_count):
            edge = (int(g.src[e]), int(g.dst[e]))
            del calls[:]
            online.online_predict(state, edge, rng)
            assert len(calls) == 3
            del calls[:]
            online.online_update(state, edge, int(g.labels[e]))
            assert len(calls) == 3


def test_base_instance_matches_hand_simulated_two_expert_rwm():
    labels = np.where(np.random.default_rng(8).random(200) < 0.3, -1, 1)
    state = OnlineState(labels.size + 1)
    rng = np.random.default_rng(9)
    total = 0.0
    for k, y in enumerate(labels):
        p_plus = state.probs(0, k + 1)[1]
        total += 1.0 - p_plus if y == 1 else p_plus
        state.predict((0, k + 1), rng)
        state.update((0, k + 1), int(y))
    assert total == pytest.approx(rwm_two_expert_mistakes(labels.tolist()), rel=1e-12)


@pytest.mark.parametrize("budget,r_max", [(1, 1), (1, 30), (3, 2), (5, 40), (17, 60),
                                          (50, 49), (50, 120)])
def test_adversary_closed_form_matches_recurrence(budget, r_max):
    table = mrc_recurrence_table(r_max, budget)
    assert adversary_expected_mistakes(budget, r_max) == float(sum(table.values()))


def test_closed_form_is_bit_equal_to_the_uncut_double_sum():
    """E[min(H, budget)] against every m(r, c) term summed in exact rationals: budgets
    1–20 at every r_max up to 400, and the adversary tests' 1,954 rounds, summed as
    integers over 2^1954."""
    table = mrc_recurrence_table(400, 20)
    inner = [Fraction(0)] * 21  # inner[c]: m(r, c) summed over r ≤ r_max
    for r_max in range(1, 401):
        for c in range(1, min(r_max, 20) + 1):
            inner[c] += table[(r_max, c)]
        uncut = Fraction(0)
        for budget in range(1, 21):
            uncut += inner[budget]
            assert adversary_expected_mistakes(budget, r_max) == float(uncut), (budget, r_max)
    for budget in (5, 20):
        uncut = sum(math.comb(r - 1, c - 1) << (1954 - r)
                    for c in range(1, budget + 1) for r in range(c, 1955))
        assert adversary_expected_mistakes(budget, 1954) == float(Fraction(uncut, 1 << 1954))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adversary_pass_reports_psi_g_of_the_sequence_labels(seed):
    g = random_graph(30, 120, seed=seed)
    seq = adversary_generate(g, 8, seed, include_tail=seed == 2)
    assert psi_g(g, seq.labels()) != psi_g(g)  # the graph's own labels would not pass
    assert run_online(g, order=seq, seed=seed).psi_g == psi_g(g, seq.labels())[2]


def test_adversary_draws_the_documented_process():
    # 6 edges, budget 3: the third negative comes in round 3, 4, 5 or 6 with
    # probability 1/8, 3/16, 3/16 and 1/2 (round 6 once the three positives are out)
    g = SignedDigraph(4, np.array([0, 1, 2, 3, 0, 1]), np.array([1, 2, 3, 0, 2, 3]),
                      np.ones(6, dtype=np.int8))
    budget, draws = 3, 4000
    lengths, first, negative = np.zeros(7), np.zeros(6), np.zeros(6)
    for seed in range(draws):
        seq = adversary_generate(g, budget, seed, include_tail=True)
        assert sorted(seq.order.tolist() + seq.tail.tolist()) == list(range(6))
        assert seq.labels()[seq.order[-1]] == -1
        assert psi_g(g, seq.labels())[2] <= budget
        lengths[seq.order.size] += 1
        first[seq.order[0]] += 1
        negative[seq.negative_edges] += 1
    for counts, p in ((lengths, [0, 0, 0, 1 / 8, 3 / 16, 3 / 16, 1 / 2]),
                      (first, 1 / 6), (negative, 1 / 2)):
        p = np.broadcast_to(p, counts.shape)
        assert np.all(np.abs(counts / draws - p) <= 5 * np.sqrt(p * (1 - p) / draws)), counts


def test_forced_view_reads_as_the_benchmark_reads_it():
    # perfbench/workloads.py reads the forced rounds as (edge, label) pairs: by len,
    # by iteration and by [-1][1]
    g = random_graph(30, 120, seed=4)
    seq = adversary_generate(g, 8, seed=4)
    forced = seq.forced
    assert len(forced) == seq.order.size
    assert [e for e, _ in forced] == seq.order.tolist()
    assert {e for e, y in forced if y == -1} == set(seq.negative_edges.tolist())
    assert {y for _, y in forced} == {-1, 1} and forced[-1][1] == -1
    assert all(type(e) is int and type(y) is int for e, y in forced)


def test_adversary_closed_form_tends_to_budget():
    assert adversary_expected_mistakes(5, 300) == pytest.approx(5.0, abs=1e-9)


def adversary_tallies(g, budget, seeds):
    """Expected mistakes of run_online over the forced prefix, one pass per seed."""
    return np.array([run_online(g, order=adversary_generate(g, budget, s), seed=s)
                     .expected_mistakes for s in range(seeds)])


@pytest.mark.parametrize("budget", [5, 20])
def test_adversary_forces_the_closed_form_when_the_budget_is_small(budget):
    # 1,954 edges; at this seed count the means read 4.95 ± 0.08 and 20.04 ± 0.17
    g, _ = make_synthetic(200, TwoPointPrior(0.1, 0.9), 10, 0)
    tallies = adversary_tallies(g, budget, 400)
    sigma = tallies.std(ddof=1) / np.sqrt(tallies.size)
    assert abs(tallies.mean() - adversary_expected_mistakes(budget, g.edge_count)) <= 5 * sigma


def test_adversary_forces_half_its_budget_at_the_largest_budget():
    g, _ = make_synthetic(200, TwoPointPrior(0.1, 0.9), 10, 0)
    budget = g.edge_count // 2
    assert adversary_tallies(g, budget, 20).mean() >= budget / 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expected_mistakes_within_bound_on_two_point_graphs(seed):
    # dense enough that the envelope is below |E|, so the check can fail
    g, _ = make_synthetic(200, TwoPointPrior(0.1, 0.9), 190, seed)
    report = run_online(g, g.labels, "random", seed)
    assert report.bound == mistake_bound(report.psi_g, g.node_count)
    assert report.bound < g.edge_count
    assert 0.0 <= report.expected_mistakes <= report.bound
