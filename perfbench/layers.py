"""Where the benchmark wraps the program, and the per-layer metrics it reports.

Each trace point is ``(target, span name)``. The target is the attribute the
caller looks the function up by; the span name is the function's home
module and name, so two lookups of one function (``harness`` and ``cli``
both call ``sample_split``) add up under one name.

Not wrapped, because no user path calls them: ``reduction`` (all of it),
``batch.solve_linearized_ml``, ``batch.ml_gradient`` and
``online.adversary_expected_mistakes``.
"""

from __future__ import annotations

import statistics

TRACE_POINTS = (
    ("edgesign.harness:run_experiment", "harness.run_experiment"),
    ("edgesign.harness:make_synthetic", "genmodel.make_synthetic"),
    ("edgesign.harness:sample_split", "graph.sample_split"),
    ("edgesign.harness:confusion", "metrics.confusion"),
    ("edgesign.harness:regularity_report", "features.regularity_report"),
    ("edgesign.genmodel:make_synthetic", "genmodel.make_synthetic"),
    ("edgesign.batch:blc_fit", "batch.blc_fit"),
    ("edgesign.batch:blc_predict_split", "batch.blc_predict_split"),
    ("edgesign.batch:logreg_fit", "batch.logreg_fit"),
    ("edgesign.batch:logreg_predict_split", "batch.logreg_predict_split"),
    ("edgesign.batch:lp_run", "batch.lp_run"),
    ("edgesign.batch:lp_predict", "batch.lp_predict"),
    ("edgesign.batch:unreg_solve", "batch.unreg_solve"),
    ("edgesign.batch:unreg_predict", "batch.unreg_predict"),
    ("edgesign.batch:tune_threshold", "batch.tune_threshold"),
    ("edgesign.batch:troll_trust", "features.troll_trust"),
    ("edgesign.batch:save_model", "batch.save_model"),
    ("edgesign.batch:load_model", "batch.load_model"),
    ("edgesign.batch:Prediction.to_csv", "batch.Prediction.to_csv"),
    ("edgesign.features:psi_g", "features.psi_g"),
    ("edgesign.features:psi2", "features.psi2"),
    ("edgesign.features:minimize_edge_quadratic", "features.minimize_edge_quadratic"),
    ("edgesign.graph:SignedDigraph.save", "graph.SignedDigraph.save"),
    ("edgesign.graph:SignedDigraph.load", "graph.SignedDigraph.load"),
    ("edgesign.graph:EdgeSplit.save", "graph.EdgeSplit.save"),
    ("edgesign.graph:EdgeSplit.load", "graph.EdgeSplit.load"),
    ("edgesign.online:run_online", "online.run_online"),
    ("edgesign.online:adversary_generate", "online.adversary_generate"),
    ("edgesign.online:online_init", "online.online_init"),
    ("edgesign.online:online_predict", "online.online_predict"),
    ("edgesign.online:online_update", "online.online_update"),
    ("edgesign.cli:main", "cli.main"),
    ("edgesign.cli:load_edge_list", "graph.load_edge_list"),
    ("edgesign.cli:sample_split", "graph.sample_split"),
    ("edgesign.cli:regularity_report", "features.regularity_report"),
    ("edgesign.cli:confusion", "metrics.confusion"),
    ("edgesign.cli:cmd_ingest", "cli.ingest"),
    ("edgesign.cli:cmd_stats", "cli.stats"),
    ("edgesign.cli:cmd_split", "cli.split"),
    ("edgesign.cli:cmd_train", "cli.train"),
    ("edgesign.cli:cmd_predict", "cli.predict"),
    ("edgesign.cli:cmd_eval", "cli.eval"),
)

#: Results the output checks need; captured on every pass, traced or not.
CAPTURE_POINTS = (
    ("edgesign.batch:lp_run", "lp_run"),
    ("edgesign.batch:unreg_solve", "unreg_solve"),
    ("edgesign.batch:blc_predict_split", "predict"),
    ("edgesign.batch:logreg_predict_split", "predict"),
    ("edgesign.batch:lp_predict", "predict"),
    ("edgesign.batch:unreg_predict", "predict"),
    ("edgesign.features:minimize_edge_quadratic", "box_fit"),
    ("edgesign.cli:load_edge_list", "load_edge_list"),
)

CLI_COMMANDS = ("ingest", "stats", "split", "train", "predict", "eval")

#: Span names whose inclusive time per traced pass is reported as ``<name>.s``.
TIMED = (
    "batch.lp_run", "batch.unreg_solve", "batch.blc_fit", "batch.logreg_fit",
    "batch.lp_predict", "batch.unreg_predict", "batch.tune_threshold",
    "features.troll_trust", "features.psi2", "features.regularity_report",
    "online.run_online", "online.adversary_generate",
    "online.online_predict", "online.online_update",
    "graph.load_edge_list", "graph.SignedDigraph.save", "graph.SignedDigraph.load",
    "graph.EdgeSplit.save", "graph.EdgeSplit.load", "graph.sample_split",
    "batch.save_model", "batch.load_model", "batch.Prediction.to_csv",
    *(f"cli.{c}" for c in CLI_COMMANDS),
    "harness.run_experiment", "metrics.confusion", "genmodel.make_synthetic",
)

#: Span names whose self time per traced pass is reported as ``<name>.self_s``.
SELF_TIMED = (*(f"cli.{c}" for c in CLI_COMMANDS), "harness.run_experiment")

#: Counts the workloads report from their outputs, with the better direction.
COUNTS = (
    ("batch.lp_run.sweeps", "count", "lower"),
    ("batch.unreg_solve.iterations", "count", "lower"),
    ("features.minimize_edge_quadratic.iterations", "count", "lower"),
    ("online.adversary.forced_rounds", "count", "lower"),
    ("online.expected_mistakes", "count", "lower"),
    ("online.realized_mistakes", "count", "lower"),
    ("harness.failures", "count", "lower"),
)


def per_layer_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = [(f"{name}.s", "s", "lower") for name in TIMED]
    specs += [(f"{name}.self_s", "s", "lower") for name in SELF_TIMED]
    specs += [("features.troll_trust.calls", "count", "lower"), *COUNTS,
              ("batch.lp_run.s_per_sweep", "s", "lower"),
              ("batch.unreg_solve.s_per_iter", "s", "lower"),
              ("online.run_online.edges_per_s", "1/s", "higher"),
              ("online.round_us_p50", "us", "lower"),
              ("online.round_us_p99", "us", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return specs


def per_layer_values(totals, traced_runs, counts, round_us, overhead_s):
    """Per-layer metric values; a layer the workload never calls reads 0.

    ``totals`` comes from :func:`spans.layer_totals`; timings are the median
    over ``traced_runs``, except ``genmodel.make_synthetic.s``, which is the
    traced set-up (run id ``"setup"``). ``counts`` are the workload's own
    counters from a traced pass; ``round_us`` maps ``p50``/``p99`` to
    streaming-round latency measured with tracing off.
    """

    def median_of(name, field):
        return statistics.median(totals[run][name][field] if name in totals[run] else 0
                                 for run in traced_runs)

    values = {f"{name}.s": median_of(name, 1) for name in TIMED}
    values.update({f"{name}.self_s": median_of(name, 2) for name in SELF_TIMED})
    values["genmodel.make_synthetic.s"] = (
        totals["setup"]["genmodel.make_synthetic"][1] if "setup" in totals else 0.0)
    values["features.troll_trust.calls"] = median_of("features.troll_trust", 0)
    values.update({name: counts.get(name, 0) for name, _, _ in COUNTS})

    def ratio(a, b):
        return a / b if b else 0.0

    values["batch.lp_run.s_per_sweep"] = ratio(values["batch.lp_run.s"],
                                               values["batch.lp_run.sweeps"])
    values["batch.unreg_solve.s_per_iter"] = ratio(values["batch.unreg_solve.s"],
                                                   values["batch.unreg_solve.iterations"])
    values["online.run_online.edges_per_s"] = ratio(counts.get("online.run_online.edges", 0),
                                                    values["online.run_online.s"])
    values["online.round_us_p50"] = round_us.get("p50", 0.0)
    values["online.round_us_p99"] = round_us.get("p99", 0.0)
    values["trace.overhead_s"] = overhead_s
    return values
