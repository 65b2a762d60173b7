"""The benchmark workloads: seeded set-up, one timed pass, and output review.

Every workload is closed-loop batch work from one process. A workload object
has ``setup(seed, workdir)`` (timed as ``setup_s``), ``run(inputs)`` (one
timed pass, ``wall_s``) and ``review(inputs, outputs, capture)``, which runs
outside the timed pass, checks every output and returns a :class:`Review`.
``final_checks(inputs)`` runs once per benchmark run.
"""

from __future__ import annotations

import io
import json
import os
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from edgesign import batch, cli, genmodel, graph, harness, online

import checks


@dataclass
class Review:
    """What one pass did and whether its outputs are correct."""

    attempted: int
    failures: list
    error_rate: float
    quality: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    round_us: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _two_point():
    return genmodel.TwoPointPrior(0.1, 0.9)


def _option_tol(args, kwargs, position, default_options):
    opt = args[position] if len(args) > position else kwargs.get("opt")
    return (opt or default_options()).tol


def _box_fit_review(capture, problems, counts):
    """psi2's full-graph fit is stationary; count its iterations."""
    iterations = 0
    for args, kwargs, result in capture.calls["box_fit"]:
        tol = kwargs.get("tol", args[1] if len(args) > 1 else 1e-8)
        residual = checks.box_fit_projected_gradient(args[0], result.p, result.q)
        if residual > checks.SLACK * tol:
            problems.append(f"psi2 fit: projected gradient {residual:.3g} > {checks.SLACK:g}·tol")
        iterations += result.iterations
    counts["features.minimize_edge_quadratic.iterations"] = iterations


# ---------------------------------------------------------------------------
# Fraction sweeps through harness.run_experiment


@dataclass
class SweepInputs:
    seed: int
    graphs: list  # (SignedDigraph, GenParams) pairs


class SweepWorkload:
    """``harness.run_experiment`` on ready-made synthetic graphs, one repetition."""

    def __init__(self, name, node_count, prior, methods, fractions, graphs=1):
        self.name = name
        self.node_count = node_count
        self.prior = prior
        self.methods = tuple(methods)
        self.fractions = tuple(fractions)
        self.graphs = graphs

    def setup(self, seed, workdir):
        seeds = [seed] if self.graphs == 1 else [1000 * seed + 3 * k for k in range(self.graphs)]
        return SweepInputs(seed, [genmodel.make_synthetic(self.node_count, self.prior(), 10, s)
                                  for s in seeds])

    def run(self, inputs):
        return [harness.run_experiment(harness.ExperimentSpec(
                    source=g, methods=self.methods, fractions=self.fractions,
                    repetitions=1, base_seed=inputs.seed))
                for g, _ in inputs.graphs]

    def review(self, inputs, reports, capture):
        problems, counts = [], {}
        params_of = {id(g): params for g, params in inputs.graphs}
        ours, oracle, errors = defaultdict(list), defaultdict(list), []
        for args, _, pred in capture.calls["predict"]:
            _, g, split = args[:3]
            wrong = checks.prediction_coverage(pred, g, split)
            problems += wrong
            if wrong:
                continue
            truth = g.labels[pred.edge_indices]
            ours[pred.method].append(checks.mcc(pred.labels, truth))
            oracle[pred.method].append(checks.oracle_mcc(params_of[id(g)], g, pred.edge_indices))
            errors.append(float(np.mean(pred.labels != truth)))
        reported = defaultdict(list)
        for report in reports:
            for cell in report.cells:
                reported[cell.method] += cell.mcc_values
        quality = {}
        for method, values in ours.items():
            if not np.allclose(sorted(values), sorted(reported[method]), rtol=0, atol=1e-12):
                problems.append(f"{method}: reported MCC differs from the MCC of its predictions")
            mean, bayes = float(np.mean(values)), float(np.mean(oracle[method]))
            if mean >= bayes:
                problems.append(f"mcc.{method} = {mean:.4f} is not below the Bayes oracle {bayes:.4f}")
            quality[f"mcc.{method}"] = (mean, len(values))
        if oracle:
            every = [v for values in oracle.values() for v in values]
            quality["mcc.bayes-oracle"] = (float(np.mean(every)), len(every))

        sweeps = 0
        for args, kwargs, state in capture.calls["lp_run"]:
            g, split = args[:2]
            tol = _option_tol(args, kwargs, 2, batch.LpOptions)
            norm = checks.lp_gradient_norm(g, split, state.p, state.q, state.y_soft)
            limit = checks.SLACK * tol * max(1, checks.max_degree(g))
            if norm > limit:
                problems.append(f"lprop: gradient norm {norm:.3g} > {limit:.3g}")
            sweeps += state.iterations
        iterations = 0
        for args, kwargs, result in capture.calls["unreg_solve"]:
            g, split = args[:2]
            tol = _option_tol(args, kwargs, 2, batch.UnregOptions)
            residual = checks.unreg_projected_gradient(g, split, result.p, result.q, result.y_soft)
            if residual > checks.SLACK * tol:
                problems.append(f"unreg: projected gradient {residual:.3g} > {checks.SLACK:g}·tol")
            iterations += result.iterations
        _box_fit_review(capture, problems, counts)
        for (g, _), report in zip(inputs.graphs, reports):
            if report.regularity.psi_g != checks.psi(g, g.labels):
                problems.append("regularity report: psi_g differs from the recount")

        failures = [f for report in reports for cell in report.cells for f in cell.failures]
        counts.update({"batch.lp_run.sweeps": sweeps, "batch.unreg_solve.iterations": iterations,
                       "harness.failures": len(failures)})
        return Review(attempted=len(inputs.graphs) * len(self.methods) * len(self.fractions),
                      failures=failures,
                      error_rate=float(np.mean(errors)) if errors else float("nan"),
                      quality=quality, counts=counts, problems=problems)

    def final_checks(self, inputs):
        return []


# ---------------------------------------------------------------------------
# Online prediction: full passes, the adversary and the streaming API


@dataclass
class OnlineInputs:
    seed: int
    graph: object
    replay: object
    rounds: list  # ((i, j), label) in streaming order


class OnlineWorkload:
    """Random-order pass, adversary pass, then per-edge streaming rounds."""

    def __init__(self, name="online-20k", node_count=20000, replay_nodes=2000,
                 budget=5000, rounds=50000):
        self.name = name
        self.node_count = node_count
        self.replay_nodes = replay_nodes
        self.budget = budget
        self.rounds = rounds

    def setup(self, seed, workdir):
        g, _ = genmodel.make_synthetic(self.node_count, _two_point(), 10, seed)
        replay, _ = genmodel.make_synthetic(self.replay_nodes, _two_point(), 10, seed)
        order = np.random.default_rng(seed).permutation(g.edge_count)[:self.rounds]
        rounds = [((i, j), y) for i, j, y in zip(g.src[order].tolist(), g.dst[order].tolist(),
                                                 g.labels[order].tolist())]
        return OnlineInputs(seed, g, replay, rounds)

    def run(self, inputs):
        g, seed = inputs.graph, inputs.seed
        out = {"failures": []}

        def attempt(label, operation):
            try:
                out[label] = operation()
            except Exception as exc:  # a failed pass is counted, the others still run
                out["failures"].append(f"{label}: {type(exc).__name__}: {exc}")

        attempt("random", lambda: online.run_online(g, g.labels, "random", seed))

        def adversary():
            seq = online.adversary_generate(g, self.budget, seed)
            return seq, online.run_online(g, order=seq, seed=seed)

        attempt("adversary", adversary)
        attempt("stream", lambda: self._stream(inputs))
        return out

    @staticmethod
    def _stream(inputs):
        state = online.online_init(inputs.graph)
        rng = np.random.default_rng(inputs.seed)
        clock = time.perf_counter_ns
        latencies, guesses = [], []
        for edge, label in inputs.rounds:
            start = clock()
            guess, _ = online.online_predict(state, edge, rng)
            online.online_update(state, edge, label)
            latencies.append(clock() - start)
            guesses.append(guess)
        return state, latencies, guesses

    def review(self, inputs, out, capture):
        g = inputs.graph
        n, m = g.node_count, g.edge_count
        problems, counts, quality, round_us = [], {}, {}, []
        error_rate = float("nan")
        edges = 0
        if "random" in out:
            r = out["random"]
            own_psi = checks.psi(g, g.labels)
            if r.edges_predicted != m or not 0 <= r.realized_mistakes <= m:
                problems.append("random pass: edge or mistake count out of range")
            if r.psi_g != own_psi:
                problems.append("random pass: psi_g differs from the recount")
            if not 0.0 <= r.expected_mistakes <= online.mistake_bound(own_psi, n):
                problems.append("random pass: expected mistakes exceed mistake_bound(psi_g, n)")
            error_rate = r.expected_mistakes / m
            quality["mistake_rate"] = (error_rate, m)
            quality["realized_rate"] = (r.realized_mistakes / m, m)
            counts["online.expected_mistakes"] = r.expected_mistakes
            counts["online.realized_mistakes"] = r.realized_mistakes
            edges += r.edges_predicted
        if "adversary" in out:
            seq, r = out["adversary"]
            labels = seq.labels()
            forced = [e for e, _ in seq.forced]
            negatives = {e for e, y in seq.forced if y == -1}
            if (int(np.count_nonzero(labels == -1)) != self.budget
                    or negatives != set(np.flatnonzero(labels == -1).tolist())
                    or len(set(forced)) != len(forced) or seq.forced[-1][1] != -1):
                problems.append("adversary: forced rounds do not reveal exactly the budgeted negatives")
            if r.edges_predicted != len(forced) or not 0 <= r.realized_mistakes <= len(forced):
                problems.append("adversary pass: edge or mistake count out of range")
            if not 0.0 <= r.expected_mistakes <= online.mistake_bound(checks.psi(g, labels), n):
                problems.append("adversary pass: expected mistakes exceed mistake_bound(psi_g, n)")
            counts["online.adversary.forced_rounds"] = len(forced)
            edges += r.edges_predicted
        if "stream" in out:
            state, latencies, guesses = out["stream"]
            truth = np.asarray([y for _, y in inputs.rounds])
            guesses = np.asarray(guesses)
            if (state.edges_seen != len(inputs.rounds) or not np.all(np.abs(guesses) == 1)
                    or state.realized_mistakes != int(np.count_nonzero(guesses != truth))):
                problems.append("stream: tallies disagree with the sampled predictions")
            round_us = [ns / 1000.0 for ns in latencies]
        counts["online.run_online.edges"] = edges
        return Review(attempted=3, failures=out["failures"], error_rate=error_rate,
                      quality=quality, counts=counts, round_us=round_us, problems=problems)

    def final_checks(self, inputs):
        """Replaying run_online's permutation and rng stream through the
        streaming API gives the same tallies."""
        g, seed = inputs.replay, inputs.seed
        report = online.run_online(g, g.labels, "random", seed)
        rng = np.random.default_rng(seed)
        state = online.online_init(g)
        for e in rng.permutation(g.edge_count):
            edge = (int(g.src[e]), int(g.dst[e]))
            online.online_predict(state, edge, rng)
            online.online_update(state, edge, int(g.labels[e]))
        if (state.realized_mistakes != report.realized_mistakes
                or abs(state.expected_mistakes - report.expected_mistakes)
                > 1e-9 * abs(report.expected_mistakes)):
            return ["online replay: streaming tallies differ from run_online"]
        return []


# ---------------------------------------------------------------------------
# The command-line I/O path


#: Known numbers of dirty records injected into the pipeline's edge list.
NOISE = {"comments": 500, "self_loops": 300, "duplicates": 2000, "conflicts": 400}


def write_dirty_edge_list(g, path, seed, noise):
    """Write g as a text edge list with known numbers of comment lines,
    self-loops, same-sign duplicate records and conflicting-sign pairs,
    inserted at seeded positions. Conflicting pairs are node pairs that are
    not edges of g, so cleaning them leaves exactly g."""
    rng = np.random.default_rng(seed)
    n, m = g.node_count, g.edge_count
    src, dst, labels = g.src.tolist(), g.dst.tolist(), g.labels.tolist()
    lines = [f"{u}\t{v}\t{y}" for u, v, y in zip(src, dst, labels)]
    extra = [f"# comment {k}" for k in range(noise["comments"])]
    extra += [f"{u}\t{u}\t1" for u in rng.integers(0, n, noise["self_loops"]).tolist()]
    extra += [f"{src[e]} {dst[e]} {'+1' if labels[e] == 1 else '-1'}"
              for e in rng.choice(m, noise["duplicates"], replace=False).tolist()]
    taken = set((g.src * n + g.dst).tolist())
    while len(taken) < m + noise["conflicts"]:
        u, v = rng.integers(0, n, 2).tolist()
        if u != v and u * n + v not in taken:
            taken.add(u * n + v)
            extra += [f"{u}\t{v}\t1", f"{u}\t{v}\t-1"]
    positions = rng.integers(0, m + 1, len(extra)).tolist()
    merged, start = [], 0
    for k in sorted(range(len(extra)), key=positions.__getitem__):
        merged += lines[start:positions[k]]
        merged.append(extra[k])
        start = positions[k]
    merged += lines[start:]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(merged) + "\n")


@dataclass
class PipelineInputs:
    seed: int
    graph: object
    workdir: str


class PipelineWorkload:
    """``cli.main`` in-process: ingest, stats, split, then train/predict/eval."""

    def __init__(self, name="pipeline-io-20k", node_count=20000, fraction=0.15,
                 methods=("blc", "logreg"), noise=NOISE):
        self.name = name
        self.node_count = node_count
        self.fraction = fraction
        self.methods = tuple(methods)
        self.noise = dict(noise)

    def setup(self, seed, workdir):
        g, _ = genmodel.make_synthetic(self.node_count, _two_point(), 10, seed)
        write_dirty_edge_list(g, os.path.join(workdir, "edges.tsv"), seed, self.noise)
        return PipelineInputs(seed, g, workdir)

    def commands(self, inputs):
        """(key, argv) per CLI command of one pass, in order."""
        def w(name):
            return os.path.join(inputs.workdir, name)
        commands = [("ingest", ["ingest", w("edges.tsv"), w("graph.json")]),
                    ("stats", ["stats", w("graph.json"), "-o", w("stats.json")]),
                    ("split", ["split", w("graph.json"), "--fraction", repr(self.fraction),
                               "--seed", str(inputs.seed), "-o", w("split.json")])]
        for m in self.methods:
            common = ["--split", w("split.json"), "-o"]
            commands += [
                (("train", m), ["train", w("graph.json"), "--method", m, *common, w(f"model-{m}.json")]),
                (("predict", m), ["predict", w("graph.json"), w(f"model-{m}.json"), *common,
                                  w(f"pred-{m}.csv")]),
                (("eval", m), ["eval", w("graph.json"), w(f"pred-{m}.csv"), *common,
                               w(f"eval-{m}.json")])]
        return commands

    def run(self, inputs):
        codes, stderr = [], io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            for _, argv in self.commands(inputs):
                try:
                    codes.append(cli.main(argv))
                except Exception as exc:  # a crashed command is counted, the rest still run
                    codes.append(f"{type(exc).__name__}: {exc}")
        return codes, stderr.getvalue()

    def review(self, inputs, out, capture):
        codes, stderr = out
        commands = self.commands(inputs)
        ok = {key: code == 0 for (key, _), code in zip(commands, codes)}
        failures = [f"{argv[0]}: exit {code}" for (_, argv), code in zip(commands, codes)
                    if code != 0]
        if failures and stderr:
            failures[0] += f" ({' '.join(stderr.split())})"
        problems, counts, quality, errors = [], {}, {}, []

        def path(name):
            return os.path.join(inputs.workdir, name)

        h = split = None
        if ok["ingest"]:
            report = capture.calls["load_edge_list"][-1][2].load_report
            found = (report.self_loops_dropped, report.duplicates_merged, report.conflicts_dropped)
            if found != (self.noise["self_loops"], self.noise["duplicates"], self.noise["conflicts"]):
                problems.append(f"ingest: cleaning counts {found} differ from the injected ones")
            h = graph.SignedDigraph.load(path("graph.json"))
            if not checks.relabeled_equal(h, inputs.graph):
                problems.append("ingest: the ingested graph differs from the generated one")
        if ok["stats"] and h is not None:
            with open(path("stats.json"), encoding="utf-8") as f:
                stats = json.load(f)
            if (stats["psi_g"] != checks.psi(h, h.labels) or stats["edge_count"] != h.edge_count
                    or not stats["psi2"] >= 0.0):
                problems.append("stats: regularity report disagrees with the recount")
            _box_fit_review(capture, problems, counts)
        if ok["split"] and h is not None:
            split = graph.EdgeSplit.load(path("split.json"))
            if split.n_training != int(round(self.fraction * h.edge_count)):
                problems.append("split: wrong number of training edges")
        if split is not None:
            test = np.flatnonzero(~split.training_mask)
            ids = h.node_ids
            test_pairs = {(ids[u], ids[v]) for u, v in zip(h.src[test].tolist(), h.dst[test].tolist())}
            fitters = {"blc": (batch.blc_fit, batch.blc_predict_split),
                       "logreg": (batch.logreg_fit, batch.logreg_predict_split)}
            for m in self.methods:
                if ok[("predict", m)]:
                    with open(path(f"pred-{m}.csv"), encoding="utf-8") as f:
                        rows = [line.rstrip("\n").split(",") for line in f.readlines()[1:]]
                    if ({(r[0], r[1]) for r in rows} != test_pairs or len(rows) != test.size
                            or any(r[3] not in ("1", "-1") for r in rows)):
                        problems.append(f"predict {m}: rows do not cover exactly the test edges")
                if ok[("eval", m)]:
                    with open(path(f"eval-{m}.json"), encoding="utf-8") as f:
                        result = json.load(f)
                    fit, predict = fitters[m]
                    pred = predict(fit(h, split), h, split)
                    expected = checks.mcc(pred.labels, h.labels[pred.edge_indices])
                    total = result["tp"] + result["tn"] + result["fp"] + result["fn"]
                    if total != test.size or abs(result["mcc"] - expected) > 1e-12:
                        problems.append(f"eval {m}: MCC {result['mcc']!r} differs from in-process {expected!r}")
                    errors.append((result["fp"] + result["fn"]) / total)
                    quality[f"mcc.{m}"] = (result["mcc"], 1)
        for name in os.listdir(inputs.workdir):
            if name != "edges.tsv":
                os.remove(path(name))
        return Review(attempted=len(commands), failures=failures,
                      error_rate=float(np.mean(errors)) if errors else float("nan"),
                      quality=quality, counts=counts, problems=problems)

    def final_checks(self, inputs):
        return []


WORKLOADS = {w.name: w for w in (
    SweepWorkload("sweep-lprop-20k", 20000, genmodel.UniformPrior,
                  ("blc", "logreg", "lprop"), (0.05, 0.15, 0.25)),
    SweepWorkload("sweep-unreg-8x500", 500, _two_point,
                  ("blc", "logreg", "lprop", "unreg"), (0.05, 0.25), graphs=8),
    OnlineWorkload(),
    PipelineWorkload(),
)}
