"""Sequential edge sign prediction with adversarial guarantees.

The predictor stacks multiplicative-weights instances: every node hosts two
base instances over the constant experts {+1, −1} (one scoring its outgoing
edges, one its incoming edges); an "outgoing" meta-expert delegates each
edge (i, j) to i's outgoing instance and an "ingoing" meta-expert to j's
incoming instance; a top combiner weighs the two meta-experts. All levels
use the self-confident learning rate

    eta = min(1/2, sqrt(ln 2 / (1 + L*)))

where L* is the instance's current best-expert cumulative loss. Base expert
losses are label counts; meta/top levels accrue exact expected zero-one
losses, so the whole weight state is deterministic given the reveal sequence
and only the sampled predictions consume randomness. Expected-mistake tallies
are exact per-round probabilities, not Monte-Carlo estimates.

The adversary draws a labeling with exactly K negative edges uniformly at
random and reveals uniformly random edges of a uniformly chosen sign until
every negative is out. Every learner then makes at least K/2 expected
mistakes; this one is measured to pay about K. On ``make_synthetic(200,
TwoPointPrior(0.1, 0.9), 10, 0)`` (1,954 edges) its mean over 400 draws was
4.95 ± 0.08 at K = 5, 20.04 ± 0.17 at K = 20 and about 0.99·K at K = |E|/2.
:func:`adversary_expected_mistakes` is the closed form, which tends to K as
K/|E| vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError
from .features import psi_g

LN2 = math.log(2.0)

#: Documented envelope constant: measured runs satisfy
#: expected mistakes <= psi + MISTAKE_BOUND_CONSTANT * (sqrt(n*psi) + n).
MISTAKE_BOUND_CONSTANT = 10.0


def mistake_bound(psi, n):
    """Envelope psi + c(sqrt(n·psi) + n) with the documented constant c."""
    return psi + MISTAKE_BOUND_CONSTANT * (math.sqrt(n * psi) + n)


def _prob_first(loss_first, loss_second):
    """Weight of the first of two experts under the self-confident rate."""
    eta = min(0.5, math.sqrt(LN2 / (1.0 + min(loss_first, loss_second))))
    x = eta * (loss_first - loss_second)
    # stable two-expert softmax
    if x >= 0:
        e = math.exp(-x)
        return e / (1.0 + e)
    e = math.exp(x)
    return 1.0 / (1.0 + e)


def _prob_first_array(loss_first, loss_second):
    """:func:`_prob_first` over arrays, equal to it bit for bit.

    The exponential is the C library's ``math.exp``: NumPy's vectorized
    ``exp`` may round differently in the last bit.
    """
    eta = np.minimum(0.5, np.sqrt(LN2 / (1.0 + np.minimum(loss_first, loss_second))))
    x = eta * (loss_first - loss_second)
    e = np.fromiter(map(math.exp, (-np.abs(x)).tolist()), dtype=np.float64, count=x.size)
    return np.where(x >= 0, e / (1.0 + e), 1.0 / (1.0 + e))


def _is_node_id(v, n):
    """A Python or NumPy integer, not a bool, in [0, n)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < n


class OnlineState:
    """Mutable state of the stacked predictor over a fixed node set.

    Base-expert losses are integer label counts per node and side, held as
    lists of Python ints: a round reads and bumps single entries, which on a
    list costs a fraction of a NumPy scalar index, and the weights computed
    from the ints are bitwise the ones computed from int64 scalars. The meta
    level stores the two meta-experts' cumulative expected losses, which the
    top combiner weighs. Tallies: ``expected_mistakes`` is the exact running
    sum of per-round mistake probabilities, ``realized_mistakes`` counts the
    sampled predictions that were wrong.
    """

    def __init__(self, node_count):
        n = int(node_count)
        self.node_count = n
        # loss of the constant +1 (resp. -1) expert = negatives (resp.
        # positives) revealed so far on that side of the node
        self.out_loss_plus = [0] * n
        self.out_loss_minus = [0] * n
        self.in_loss_plus = [0] * n
        self.in_loss_minus = [0] * n
        self.meta_loss_out = 0.0
        self.meta_loss_in = 0.0
        self.expected_mistakes = 0.0
        self.realized_mistakes = 0
        self.edges_seen = 0
        self._revealed = set()
        self._pending = {}

    # -- protocol ------------------------------------------------------------

    def probs(self, i, j):
        """The three weights a round on edge (i, j) consults: ``(w_out, p_out, p_in)``.

        ``w_out`` is the top combiner's weight on the outgoing meta-expert,
        ``p_out`` the P(+1) of i's outgoing base instance and ``p_in`` the
        P(+1) of j's incoming one, all under the current losses. The round
        predicts +1 with probability ``w_out·p_out + (1 − w_out)·p_in``.
        """
        return (_prob_first(self.meta_loss_out, self.meta_loss_in),
                _prob_first(self.out_loss_plus[i], self.out_loss_minus[i]),
                _prob_first(self.in_loss_plus[j], self.in_loss_minus[j]))

    def predict(self, edge, rng):
        i, j = edge
        n = self.node_count
        if not (_is_node_id(i, n) and _is_node_id(j, n)):
            raise ProtocolError(f"edge {(i, j)} needs two integer node ids in [0, {n})")
        if (i, j) in self._revealed:
            raise ProtocolError(f"edge {(i, j)} was already revealed")
        if (i, j) in self._pending:
            raise ProtocolError(f"edge {(i, j)} already has a pending prediction")
        w_out, p_out, p_in = self.probs(i, j)
        p_side = p_out if rng.random() < w_out else p_in
        guess = 1 if rng.random() < p_side else -1
        self._pending[(i, j)] = guess
        plus = w_out * p_out + (1.0 - w_out) * p_in
        return guess, {1: 1.0 - plus, -1: plus}

    def update(self, edge, label):
        i, j = edge
        if (i, j) not in self._pending:
            raise ProtocolError(f"no pending prediction for edge {(i, j)}")
        if label not in (1, -1):
            raise ValueError(f"label must be +1 or -1, got {label}")
        guess = self._pending.pop((i, j))
        # pre-update probabilities drive the expected-loss bookkeeping
        w_out, p_out, p_in = self.probs(i, j)
        if label == 1:
            miss_out, miss_in = 1.0 - p_out, 1.0 - p_in
            self.out_loss_minus[i] += 1
            self.in_loss_minus[j] += 1
        else:
            miss_out, miss_in = p_out, p_in
            self.out_loss_plus[i] += 1
            self.in_loss_plus[j] += 1
        self.meta_loss_out += miss_out
        self.meta_loss_in += miss_in
        self.expected_mistakes += w_out * miss_out + (1.0 - w_out) * miss_in
        if guess != label:
            self.realized_mistakes += 1
        self.edges_seen += 1
        self._revealed.add((i, j))
        return self


def online_init(g):
    """Fresh state: uniform weights everywhere, first-round mistake prob 1/2."""
    return OnlineState(g.node_count)


def online_predict(state, edge, rng):
    """Sample a prediction for an unrevealed edge.

    Returns (sign, mistake probability conditioned on each possible label).
    """
    return state.predict(edge, rng)


def online_update(state, edge, true_label):
    """Reveal the label: all levels incur their losses, tallies advance."""
    return state.update(edge, true_label)


# ---------------------------------------------------------------------------
# Full protocol runs


@dataclass
class OnlineReport:
    """Outcome of one sequential pass, serializable to JSON."""

    node_count: int
    edge_count: int
    edges_predicted: int
    realized_mistakes: int
    expected_mistakes: float
    psi_g: int
    bound: float
    seed: int
    order: str
    forced_len: int = None
    tail_realized: int = None
    tail_expected: float = None

    def to_json_dict(self):
        return {k: v for k, v in self.__dict__.items() if v is not None}


def run_online(g, labeling=None, order="random", seed=0):
    """Run the full prediction protocol over a graph.

    Parameters
    ----------
    labeling : ±1 array per edge; required unless ``order`` is an
        :class:`AdversarySequence` (which carries its own labels).
    order : "random" (seeded shuffle), an explicit edge-id permutation
        covering every edge exactly once, or an AdversarySequence drawn for
        this graph. For an adversary the forced prefix drives the headline
        tallies; if the sequence carries a tail the remaining edges are
        played afterwards and reported separately.
    seed : seeds ``numpy.random.default_rng``. For "random" order the
        generator first draws ``permutation(|E|)``; then every round, in
        reveal order, draws two uniforms: the first picks the meta-expert
        side (outgoing when below the top weight), the second the sign (+1
        when below that side's base P(+1)).

    The weight state depends only on the reveal sequence, so the pass is
    computed with array operations, a block of rounds at a time, on
    temporaries the size of the node set and of a block. Stepping an
    :class:`OnlineState` through the same sequence with the same generator
    (``online_predict`` then ``online_update`` per round) reproduces its
    tallies exactly. Every input is checked before any round is played.

    Returns an :class:`OnlineReport` holding realized and exact expected
    mistake counts, the labeling's regularity psi_g, and the documented
    mistake-bound envelope evaluated at (psi_g, |V|).
    """
    rng = np.random.default_rng(seed)
    m = g.edge_count
    if isinstance(order, AdversarySequence):
        labels, edges, round_labels = _sequence_rounds(order, m)
        headline = len(order.forced)
        order_name = f"adversary(K={order.budget})"
    else:
        if labeling is None:
            raise ValueError("an explicit labeling is required for permutation orders")
        labels = np.asarray(labeling)
        if labels.shape != (m,):
            raise ProtocolError("labeling length must equal the edge count")
        if isinstance(order, str) and order == "random":
            edges = rng.permutation(m)
            order_name = "random"
        else:
            edges = np.asarray(order)
            if edges.shape != (m,) or not np.array_equal(np.sort(edges), np.arange(m)):
                raise ProtocolError("order must cover every edge exactly once")
            edges = edges.astype(np.int64)
            order_name = "permutation"
        round_labels = labels[edges]
        if not np.all((round_labels == 1) | (round_labels == -1)):
            raise ValueError("labels must be +1 or -1")
        headline = m

    plus = round_labels == 1
    state = _PassState(g.node_count)
    tallies = []
    # blocks never straddle the headline, so its tallies are read between the segments
    for begin, end in ((0, headline), (headline, edges.size)):
        for start in range(begin, end, _ROUND_BLOCK):
            block = edges[start:min(start + _ROUND_BLOCK, end)]
            state.play(g.src[block], g.dst[block], plus[start:start + block.size], rng)
        tallies.append((state.realized, state.expected))
    (realized, expected), (all_realized, all_expected) = tallies

    psi = psi_g(g, labels)[2]
    report = OnlineReport(
        node_count=g.node_count, edge_count=m, edges_predicted=int(edges.size),
        realized_mistakes=realized, expected_mistakes=expected,
        psi_g=psi, bound=mistake_bound(psi, g.node_count),
        seed=int(seed), order=order_name)
    if isinstance(order, AdversarySequence):
        report.forced_len = headline
        if order.tail is not None:
            report.tail_realized = all_realized - realized
            report.tail_expected = all_expected - expected
    return report


def _sequence_rounds(seq, m):
    """Check an adversary sequence against a graph with m edges and its own labeling.

    Returns (labeling, edge id per round, label per round) for the forced
    prefix followed by the tail, if the sequence has one.
    """
    if seq.edge_count != m:
        raise ProtocolError(
            f"sequence was drawn for {seq.edge_count} edges, the graph has {m}")
    # the label column keeps its type, so a label such as 0.5 fails the ±1 check
    forced = np.asarray(seq.forced).reshape(-1, 2)
    forced_edges = forced[:, 0].astype(np.int64)
    tail = np.asarray([] if seq.tail is None else seq.tail, dtype=np.int64)
    for ids in (forced_edges, tail, np.asarray(seq.negative_edges)):
        if ids.size and (ids.min() < 0 or ids.max() >= m):
            raise ProtocolError(f"sequence names edge ids outside [0, {m})")
    edges = np.concatenate([forced_edges, tail])
    repeated = np.flatnonzero(np.bincount(edges, minlength=m) > 1)
    if repeated.size:
        raise ProtocolError(f"edge {int(repeated[0])} is revealed more than once")
    if not np.all((forced[:, 1] == 1) | (forced[:, 1] == -1)):
        raise ValueError("labels must be +1 or -1")
    labels = seq.labels()
    negatives = int(np.count_nonzero(labels == -1))
    truth = labels[forced_edges]
    if seq.budget != negatives:
        raise ProtocolError(f"budget is {seq.budget}, the labeling has {negatives} negative edges")
    if not np.array_equal(forced[:, 1], truth):
        raise ProtocolError("a forced label differs from the sequence's labeling")
    if np.count_nonzero(truth == -1) != negatives or not truth.size or truth[-1] != -1:
        raise ProtocolError("the forced rounds must reveal every negative edge and end on one")
    if seq.tail is not None and edges.size != m:
        raise ProtocolError("the forced rounds and the tail must cover every edge")
    return labels, edges, np.concatenate([truth, labels[tail]])


#: Rounds that :func:`run_online` computes at once; its temporaries grow with this, not |E|.
_ROUND_BLOCK = 1 << 13


class _PassState:
    """What :func:`run_online` carries from one block of rounds to the next.

    The state :class:`OnlineState` holds, in arrays: the rounds and
    the +1 labels seen on each node's outgoing (row 0) and incoming (row 1)
    side, the meta-experts' cumulative expected losses and the tallies.
    """

    def __init__(self, node_count):
        self.rounds = np.zeros((2, node_count), dtype=np.int64)
        self.pluses = np.zeros((2, node_count), dtype=np.int64)
        self.meta_loss = [0.0, 0.0]
        self.realized = 0
        self.expected = 0.0

    def play(self, src, dst, plus, rng):
        """Play a block of consecutive rounds on edges (src[t], dst[t]) with labels ``plus[t]``.

        Each round draws two uniforms, as :meth:`OnlineState.predict` does."""
        p_out = self._base_prob_plus(0, src, plus)
        p_in = self._base_prob_plus(1, dst, plus)
        miss_out = np.where(plus, 1.0 - p_out, p_out)
        miss_in = np.where(plus, 1.0 - p_in, p_in)
        w_out = _prob_first_array(self._add_meta_loss(0, miss_out),
                                  self._add_meta_loss(1, miss_in))
        u = rng.random((plus.size, 2))
        wrong = (u[:, 1] < np.where(u[:, 0] < w_out, p_out, p_in)) != plus
        self.realized += int(np.count_nonzero(wrong))
        mistakes = w_out * miss_out + (1.0 - w_out) * miss_in
        self.expected = float(_running_sums(self.expected, mistakes)[-1])

    def _add_meta_loss(self, side, miss):
        """The meta-expert's cumulative loss before each round; the block's is then added."""
        sums = _running_sums(self.meta_loss[side], miss)
        self.meta_loss[side] = float(sums[-1])
        return sums[:-1]

    def _base_prob_plus(self, side, nodes, plus):
        """P(+1) of the base instance that each round consults, before its reveal.

        ``nodes[t]`` hosts round t's instance. The +1 expert has lost once per
        earlier −1 label on the node, the −1 expert once per earlier +1: the
        counts of earlier blocks plus exclusive prefix counts within the
        block's rounds grouped by node, kept in reveal order by a stable sort.
        """
        rounds, pluses = self.rounds[side], self.pluses[side]
        by_node = _stable_order(nodes, rounds.size)
        grouped = nodes[by_node]
        # where each node's run of rounds starts in the grouped block, and its length
        starts = np.flatnonzero(np.diff(grouped, prepend=-1))
        sizes = np.diff(starts, append=nodes.size)
        first = np.repeat(starts, sizes)
        plus_grouped = plus[by_node]
        plus_before = np.cumsum(plus_grouped, dtype=np.int64) - plus_grouped
        plus_before -= plus_before[first]
        loss_minus = pluses[grouped] + plus_before
        loss_plus = rounds[grouped] + np.arange(nodes.size) - first - loss_minus
        p_plus = np.empty(nodes.size)
        p_plus[by_node] = _prob_first_array(loss_plus, loss_minus)
        hosts = grouped[starts]
        rounds[hosts] += sizes
        pluses[hosts] += np.add.reduceat(plus_grouped, starts, dtype=np.int64)
        return p_plus


def _stable_order(ids, id_count):
    """``np.argsort(ids, kind="stable")`` for ids in [0, id_count), sorted as 16-bit keys.

    NumPy sorts keys of 16 bits or fewer with a radix sort, about ten times
    faster than int64 keys. Ids below 2**16 take one pass; larger ones take
    one more stable pass per further 16-bit digit, least significant first.
    """
    order = np.argsort(ids.astype(np.uint16), kind="stable")  # the low digit; astype wraps
    shift = 16
    while id_count > 1 << shift:
        digit = (ids[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _running_sums(start, x):
    """``start`` followed by the running sums start + x[0], …, added in order like ``+=``."""
    return np.cumsum(np.concatenate(([start], x)))


# ---------------------------------------------------------------------------
# Lower-bound adversary


@dataclass
class AdversarySequence:
    """Randomized reveal sequence with exactly ``budget`` negative labels.

    ``forced`` lists (edge_id, label) pairs up to and including the round
    that exposes the last negative; ``tail`` (optional) holds the remaining
    edge ids in random order for callers that want a full pass. The induced
    labeling always satisfies psi_g <= budget.
    """

    edge_count: int
    budget: int
    seed: int
    negative_edges: np.ndarray
    forced: list
    tail: np.ndarray = None

    def labels(self):
        y = np.ones(self.edge_count, dtype=np.int8)
        y[self.negative_edges] = -1
        return y


def adversary_generate(g, budget, seed, include_tail=False):
    """Draw the lower-bound adversary's labeling and reveal sequence.

    One shuffle of the edges puts the ``budget`` negative edges first and the
    positive ones after, each in reveal order. One fair coin per round then
    picks the sign of the next edge revealed (negative once the positives are
    used up) until every negative is out. So a labeling with exactly
    ``budget`` negatives is drawn uniformly, and each round reveals a
    uniformly random unrevealed edge of a uniformly chosen sign.

    ``include_tail=True`` keeps the rest of the shuffle, the positive edges
    no round revealed, as ``tail`` so the materialized sequence covers E.
    """
    m = g.edge_count
    if not 1 <= budget <= m // 2:
        raise ValueError(f"budget must lie in [1, |E|/2] = [1, {m // 2}], got {budget}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(m)
    negatives, positives = order[:budget], order[budget:]
    heads = rng.integers(2, size=m, dtype=bool)
    negative = heads | (np.cumsum(~heads) > positives.size)
    rounds = int(np.flatnonzero(negative)[budget - 1]) + 1  # ends on the last negative
    negative = negative[:rounds]
    edges = np.empty(rounds, dtype=np.int64)
    edges[negative] = negatives
    edges[~negative] = positives[:rounds - budget]
    return AdversarySequence(
        edge_count=m, budget=int(budget), seed=int(seed), negative_edges=np.sort(negatives),
        forced=list(zip(edges.tolist(), np.where(negative, -1, 1).tolist())),
        tail=positives[rounds - budget:] if include_tail else None)


def adversary_expected_mistakes(budget, r_max):
    """Closed-form expected mistakes forced as the negative budget fills.

    The sum of m(r, c) = rising(r−c+1, c−1) / ((c−1)!·2^r) = C(r−1, c−1)/2^r
    over c = 1..budget and r = c..r_max. m(r, c) is the chance that the c-th
    head of fair coin flips comes at flip r, so the inner sum over r is the
    chance of at least c heads in r_max flips, and with H ~ Binomial(r_max,
    1/2) the total is E[min(H, budget)] =
    budget − Σ_{h<budget} (budget − h)·C(r_max, h)/2^r_max: budget terms,
    summed in exact integers, and one correctly rounded division. The total
    tends to the budget as r_max grows.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if r_max < 1:
        raise ValueError(f"r_max must be at least 1, got {r_max}")
    deficit = sum((budget - h) * math.comb(r_max, h) for h in range(budget))
    return ((budget << r_max) - deficit) / (1 << r_max)
