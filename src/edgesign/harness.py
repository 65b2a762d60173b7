"""Experiment orchestration: fraction sweeps, repetitions, timing, reports.

A sweep fixes one labeled graph (loaded or synthesized), then for every
(training fraction, repetition) pair draws a fresh split with seed
``base_seed XOR repetition``, fits each requested method, predicts the test
edges, and scores MCC and accuracy. Cells aggregate over repetitions; a
failing method run is recorded in its cell without disturbing the rest.

The graph's regularity report shares no data with the cells. On a graph of
at least :data:`OVERLAP_EDGES` edges, when psi2 is asked for and the process
may run on more than one CPU, the report is computed on a second thread
while the cells run; otherwise it follows the cells. Either way the report is
the same apart from ``seconds_mean``, which on an overlapped sweep includes
time the cells share with the report's thread.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import batch
from .errors import DataError
from .features import regularity_report
from .genmodel import bayes_scores, make_synthetic, sign_with_tie
from .graph import SignedDigraph, json_number, load_graph, sample_split
from .metrics import accuracy, confusion, mcc

DEFAULT_FRACTIONS = (0.05, 0.10, 0.15, 0.20, 0.25)
METHODS = (*batch.METHODS, "bayes-oracle")

#: Edge count from which the regularity report overlaps the cells. NumPy
#: releases the GIL for most of psi2's work only on large arrays; on small
#: ones the two threads just contend for it. On a 2-CPU VM a 4-method,
#: 3-fraction sweep took overlapped/serial 1.58 of the time at 10k edges, 1.25
#: at 20k, 0.95 at 50k, 0.79 at 100k and 0.85 at 200k.
OVERLAP_EDGES = 50_000


@dataclass
class SyntheticSpec:
    """Recipe for a reproducible synthetic benchmark graph."""

    node_count: int
    prior: object
    mean_out_degree: int = 10
    topology: str = "fixed"
    seed: int = 0


@dataclass
class ExperimentSpec:
    """What to run: dataset or synthetic recipe, methods, fractions, seeds."""

    source: object  # path to a graph container / edge list, or SyntheticSpec
    methods: tuple = ("blc", "logreg", "lprop")
    fractions: tuple = DEFAULT_FRACTIONS
    repetitions: int = 12
    base_seed: int = 0
    include_psi2: bool = True

    def validate(self):
        for name in ("methods", "fractions"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"repeated {name}: {repeated}")
        for f in self.fractions:
            if not 0.0 < f < 1.0:
                raise ValueError(f"fractions must lie strictly in (0,1), got {f}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")


@dataclass
class Cell:
    """Aggregated results for one (method, fraction) pair."""

    method: str
    fraction: float
    mcc_values: list = field(default_factory=list)
    acc_values: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def to_json_dict(self):
        """The cell's report entry; a mean is None (JSON ``null``) when no repetition ran."""
        def mean(values):
            return json_number(float(np.mean(values))) if values else None

        return {
            "method": self.method,
            "fraction": self.fraction,
            "mcc_mean": mean(self.mcc_values),
            "mcc_std": float(np.std(self.mcc_values, ddof=1)) if len(self.mcc_values) > 1 else 0.0,
            "acc_mean": mean(self.acc_values),
            "mcc_values": list(self.mcc_values),
            "failures": list(self.failures),
            "seconds_mean": mean(self.seconds),
        }


@dataclass
class ExperimentReport:
    """Per-cell aggregates plus the dataset's regularity measures."""

    cells: list
    regularity: object
    repetitions: int
    base_seed: int
    node_count: int
    edge_count: int

    def to_json_dict(self):
        return {
            "format": "edgesign-report", "version": 1,
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "repetitions": self.repetitions,
            "base_seed": self.base_seed,
            "regularity": self.regularity.to_json_dict() if self.regularity else None,
            "cells": [c.to_json_dict()
                      for c in sorted(self.cells, key=lambda c: (c.fraction, c.method))],
        }

    def to_markdown(self):
        """The MCC table, mean ± std in percent: one row per fraction, one column per method."""
        cells = {(c.method, c.fraction): c.to_json_dict() for c in self.cells}
        methods = sorted({m for m, _ in cells})
        fractions = sorted({f for _, f in cells})
        rows = ["| fraction | " + " | ".join(methods) + " |", "|---" * (len(methods) + 1) + "|"]
        for f in fractions:
            entries = []
            for m in methods:
                mean, std = cells[m, f]["mcc_mean"], cells[m, f]["mcc_std"]
                entries.append(("nan" if mean is None else f"{100 * mean:.2f}")
                               + f" ± {100 * std:.2f}")
            rows.append(f"| {f:g} | " + " | ".join(entries) + " |")
        return "\n".join(rows) + "\n"


def _fit_predict(method, g, split, params):
    if method != "bayes-oracle":
        return batch.METHODS[method].fit(g, split).predict_split(g, split)
    if params is None:
        raise DataError("bayes-oracle needs generative parameters (synthetic runs only)")
    test = split.test_indices()
    scores = bayes_scores(params, g.src[test], g.dst[test])
    return batch.Prediction(
        edge_indices=test, src=g.src[test], dst=g.dst[test],
        scores=scores, labels=sign_with_tie(scores).astype(np.int8),
        threshold=0.0, method="bayes-oracle")


def load_source(source):
    """Resolve an experiment source into (graph, params-or-None)."""
    if isinstance(source, SyntheticSpec):
        return make_synthetic(source.node_count, source.prior, source.mean_out_degree,
                              source.seed, kind=source.topology)
    if isinstance(source, SignedDigraph):
        return source, None
    return load_graph(source), None


def _cpu_count():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(spec, threads=1):
    """Execute the sweep described by ``spec``.

    Repetition r uses split seed ``base_seed XOR r``. With ``threads > 1``
    repetitions run in a thread pool; aggregation is order-independent, so
    reports are identical either way.

    When ``spec.include_psi2`` holds, the graph has at least
    :data:`OVERLAP_EDGES` edges and the process may run on more than one
    CPU, the regularity report runs on one more thread while the cells run,
    so each cell's ``seconds_mean`` includes time shared with it; otherwise
    the report follows the cells. Ctrl-C during the cells takes effect only
    once the report's thread has finished, and an error the report raises
    leaves once the cells are done.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    spec.validate()
    g, params = load_source(spec.source)
    cells = {(m, f): Cell(method=m, fraction=f)
             for f in spec.fractions for m in spec.methods}

    def one_rep(rep):
        seed = spec.base_seed ^ rep
        out = []
        for fraction in spec.fractions:
            split = sample_split(g, fraction, seed)
            truth = g.labels[split.test_indices()]
            for method in spec.methods:
                t0 = time.perf_counter()
                try:
                    pred = _fit_predict(method, g, split, params)
                except Exception as exc:  # recorded per-cell, sweep continues
                    out.append((method, fraction, None, None, None,
                                f"rep {rep}: {type(exc).__name__}: {exc}"))
                    continue
                dt = time.perf_counter() - t0
                c = confusion(pred.labels, truth)
                out.append((method, fraction, mcc(c), accuracy(c), dt, None))
        return out

    overlap = spec.include_psi2 and g.edge_count >= OVERLAP_EDGES and _cpu_count() > 1
    # a pool starts its thread at the first submit, so the serial order starts none
    with ThreadPoolExecutor(max_workers=1) as beside:
        pending = beside.submit(regularity_report, g, include_psi2=True) if overlap else None
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(one_rep, range(spec.repetitions)))
        else:
            results = [one_rep(r) for r in range(spec.repetitions)]
        regularity = (pending.result() if overlap
                      else regularity_report(g, include_psi2=spec.include_psi2))
    for rep_out in results:
        for method, fraction, m_val, a_val, dt, failure in rep_out:
            cell = cells[(method, fraction)]
            if failure is not None:
                cell.failures.append(failure)
            else:
                cell.mcc_values.append(m_val)
                cell.acc_values.append(a_val)
                cell.seconds.append(dt)
    return ExperimentReport(cells=list(cells.values()), regularity=regularity,
                            repetitions=spec.repetitions, base_seed=spec.base_seed,
                            node_count=g.node_count, edge_count=g.edge_count)
