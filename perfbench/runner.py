"""Runs one workload for a stated time and turns its passes into metrics.

Set-up runs at least ``SETUP_REPEATS`` times and until ``SETUP_SECONDS`` are
spent, and reports the median as ``setup_s``.
Then passes run back to back while the next one is expected to end within
the stated seconds (at least one). With tracing on, passes alternate between
untraced and traced, so the difference of their median wall times is the
tracing overhead; end-to-end timings only ever come from untraced passes.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import layers
from spans import Capture, Tracer, interposed, layer_totals
from workloads import WORKLOADS

SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

#: Metrics every workload reports with tracing off, with their units.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("error_rate", "ratio"))

#: (percentile, samples needed for ten of them to lie beyond it)
LADDER = ((50.0, 20), (90.0, 100), (99.0, 1000), (99.9, 10000), (99.99, 100000))


def tail_percentile(samples):
    """(p, value, n) for the highest ladder percentile with at least ten of
    the n samples beyond it; p and value are None when there is none."""
    n = len(samples)
    eligible = [p for p, needed in LADDER if n >= needed]
    if not eligible:
        return None, None, n
    return eligible[-1], float(np.percentile(samples, eligible[-1])), n


def timing_note(samples, unit):
    """Median note for a timing: sample count and the tail percentile rule."""
    p, value, n = tail_percentile(samples)
    tail = f", p{p:g} {value:.6g} {unit}" if p is not None else ""
    return f"median of n={n}{tail}"


@dataclass
class Pass:
    wall: float
    traced: bool
    review: object


def measure(workload, seed, seconds, trace, out_dir):
    """Run the workload; return (result dict, report lines)."""
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=out_dir)
    try:
        return _measure(workload, seed, seconds, trace, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, out_dir, workdir):
    clock = time.perf_counter
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        start = clock()
        inputs = workload.setup(seed, workdir)
        setup_times.append(clock() - start)
    tracer = Tracer(layers.TRACE_POINTS)
    if trace:
        with tracer.recording("setup"):
            inputs = workload.setup(seed, workdir)

    passes = []
    begin = clock()
    while True:
        traced = trace and len(passes) % 2 == 1
        capture = Capture()
        with interposed(layers.CAPTURE_POINTS, capture.wrapper_for), \
                (tracer.recording(f"pass{len(passes)}") if traced else nullcontext()):
            start = clock()
            outputs = workload.run(inputs)
            wall = clock() - start
        passes.append(Pass(wall, traced, workload.review(inputs, outputs, capture)))
        del outputs, capture
        if trace and len(passes) < 2:
            continue
        if clock() - begin + statistics.median(p.wall for p in passes) > seconds:
            break

    problems = [m for p in passes for m in p.review.problems]
    problems = list(dict.fromkeys(problems + workload.final_checks(inputs)))
    failures = [f for p in passes for f in p.review.failures]
    attempted = sum(p.review.attempted for p in passes)
    untraced = [p for p in passes if not p.traced]
    lines = [f"workload {workload.name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    lines += [f"  pass {i}: {p.wall:.6f} s{' (traced)' if p.traced else ''}"
              for i, p in enumerate(passes)]

    walls = [p.wall for p in untraced]
    e2e = {"wall_s": statistics.median(walls),
           "setup_s": statistics.median(setup_times),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "error_rate": statistics.median(p.review.error_rate for p in untraced)}
    notes = {"wall_s": timing_note(walls, "s"),
             "setup_s": timing_note(setup_times, "s"),
             "peak_rss_mb": "whole process",
             "error_rate": "share of wrong predictions"}
    report = [(name, e2e[name], unit, notes[name]) for name, unit in END_TO_END]
    report.append(("fail_rate", len(failures) / attempted, "ratio",
                   f"{len(failures)} failed of {attempted} attempted"))
    report += [(name, value, "ratio" if name.endswith("rate") else "mcc", f"n={n}")
               for name, (value, n) in sorted(untraced[0].review.quality.items())]
    round_us = [x for p in untraced for x in p.review.round_us]
    round_pct = ({"p50": float(np.percentile(round_us, 50)),
                  "p99": float(np.percentile(round_us, 99))} if round_us else {})
    report += [(f"round_us_{p}", value, "us", f"n={len(round_us)}")
               for p, value in round_pct.items()]
    if round_us:
        tail, value, n = tail_percentile(round_us)
        report.append((f"round_us_p{tail:g}", value, "us", f"n={n}, highest with ten beyond"))
    lines += [f"  {name:<28} {value:>14.6g} {unit:<6} {note}" for name, value, unit, note in report]

    if trace:
        metrics = _per_layer(tracer, passes, round_pct, out_dir, workload.name, seed, lines)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            problems.append(f"metric {name} is not finite")
            entry["value"] = None
    lines += [f"  failed: {f}" for f in dict.fromkeys(failures)]
    lines += [f"  CHECK FAILED: {p}" for p in problems]
    result = {"correct": not problems, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, lines


def _per_layer(tracer, passes, round_pct, out_dir, name, seed, lines):
    totals = layer_totals(tracer.spans)
    traced_runs = [f"pass{i}" for i, p in enumerate(passes) if p.traced]
    counts = next(p.review.counts for p in passes if p.traced)
    overhead = (statistics.median(p.wall for p in passes if p.traced)
                - statistics.median(p.wall for p in passes if not p.traced))
    values = layers.per_layer_values(totals, traced_runs, counts, round_pct, overhead)
    units = {metric: unit for metric, unit, _ in layers.per_layer_specs()}

    span_file = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl")
    with open(span_file, "w", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(span._asdict()) + "\n")
    lines.append(f"  spans: {len(tracer.spans)} written to {os.path.relpath(span_file)}")
    lines.append(f"  {'layer (first traced pass)':<40} {'calls':>8} {'s':>12} {'self_s':>12}")
    first = totals[traced_runs[0]]
    for layer, (calls, inclusive, own) in sorted(first.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {layer:<40} {calls:>8} {inclusive:>12.6f} {own:>12.6f}")
    setup = totals.get("setup", {})
    for layer, (calls, inclusive, own) in sorted(setup.items()):
        lines.append(f"  {'setup: ' + layer:<40} {calls:>8} {inclusive:>12.6f} {own:>12.6f}")
    lines.append(f"  {'trace.overhead_s':<40} {overhead:>+12.6f} s")
    return {metric: {"value": float(values[metric]), "unit": units[metric]} for metric in units}


def main(name, seed, seconds, trace, out_dir):
    workload = WORKLOADS.get(name)
    if workload is None:
        print(f"error: unknown workload {name!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, lines = measure(workload, seed, seconds, trace, out_dir)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
