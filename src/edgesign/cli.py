"""Command-line frontend.

Subcommands: ingest, stats, split, train, predict, eval, sweep, synth,
online. Every randomized command requires an explicit --seed. Exit codes:
0 success, 2 argument error, 3 data error, 4 convergence error, 141 standard
output closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields
from itertools import repeat

import numpy as np

from . import batch, harness, online
from .errors import ConvergenceError, DataError
from .features import regularity_report
from .genmodel import PRIORS, make_synthetic, prior_from_json_dict
from .graph import (COUNT, SIGN_TOKENS, EdgeSplit, check_keys, check_known_keys, check_values,
                    intern_spans, is_number, json_number, load_edge_list, load_graph, read_json,
                    sample_split, span_signs, utf8_error, write_json)
from .metrics import accuracy, confusion, mcc

EXIT_ARGUMENT = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4
EXIT_BROKEN_PIPE = 141


def cmd_ingest(args):
    g = load_edge_list(args.input, delimiter=args.delimiter)
    g.save(args.output)
    rep = g.load_report
    print(f"nodes\t{g.node_count}")
    print(f"edges\t{g.edge_count}")
    print(f"positive_fraction\t{g.positive_fraction:.4f}")
    print(f"self_loops_dropped\t{rep.self_loops_dropped}")
    print(f"duplicates_merged\t{rep.duplicates_merged}")
    print(f"conflicts_dropped\t{rep.conflicts_dropped}")
    return 0


def cmd_stats(args):
    g = load_graph(args.graph)
    report = regularity_report(g, include_psi2=not args.no_psi2)
    payload = report.to_json_dict()
    payload.update({"node_count": g.node_count, "edge_count": g.edge_count,
                    "positive_fraction": json_number(g.positive_fraction)})
    if args.output:
        write_json(payload, args.output)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_split(args):
    g = load_graph(args.graph)
    split = sample_split(g, args.fraction, args.seed)
    split.save(args.output)
    print(f"training_edges\t{split.n_training}")
    print(f"test_edges\t{g.edge_count - split.n_training}")
    return 0


def _get_split(g, args):
    if args.split:
        return EdgeSplit.load(args.split, g.edge_count)
    if args.fraction is None or args.seed is None:
        raise DataError("either --split or both --fraction and --seed are required")
    return sample_split(g, args.fraction, args.seed)


def cmd_train(args):
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be a positive finite number, got {args.tol}")
    if args.max_iter is not None and args.max_iter < 1:
        raise ValueError(f"--max-iter must be at least 1, got {args.max_iter}")
    g = load_graph(args.graph)
    split = _get_split(g, args)
    # a bound the user leaves out takes the method's own default
    bounds = {k: v for k, v in (("tol", args.tol), ("max_iter", args.max_iter)) if v is not None}
    model = batch.METHODS[args.method].fit(g, split, **bounds)
    batch.save_model(model, args.output)
    print(f"model\t{args.output}")
    return 0


def cmd_predict(args):
    g = load_graph(args.graph)
    split = _get_split(g, args)
    model = batch.load_model(args.model)
    pred = model.predict_split(g, split)
    pred.to_csv(args.output, node_ids=g.node_ids)
    print(f"predictions\t{args.output}")
    return 0


PREDICTION_HEADER = ["src", "dst", "score", "label"]


def _node_index(node_ids, names):
    """The index in ``node_ids`` of each name, -1 for a name it lacks."""
    index = dict(zip(node_ids, range(len(node_ids))))
    return np.fromiter(map(index.get, names, repeat(-1)), np.int64, len(names))


def _read_predictions_csv(path, node_ids):
    """:func:`_read_predictions` by the ``csv`` module, one ``str`` per field."""
    src, dst, tokens = [], [], []
    add_src, add_dst, add_token = src.append, dst.append, tokens.append
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        limit = csv.field_size_limit(sys.maxsize)  # a field of any length, for this call only
        try:
            if next(reader, None) != PREDICTION_HEADER:
                raise DataError("prediction file lacks the src,dst,score,label header")
            for row in reader:
                try:
                    u, v, _, token = row
                except ValueError:
                    raise DataError(f"prediction file line {reader.line_num}: "
                                    f"expected 4 fields, got {len(row)}") from None
                add_src(u)
                add_dst(v)
                add_token(token)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"prediction file is not CSV text ({exc})") from exc
        finally:
            csv.field_size_limit(limit)
    labels = np.fromiter(map(SIGN_TOKENS.get, tokens, repeat(0)), np.int8, len(tokens))
    bad = np.flatnonzero(labels == 0)
    if bad.size:
        raise DataError(f"prediction file row {bad[0] + 1}: bad label {tokens[bad[0]]!r}")
    found = _node_index(node_ids, src + dst)
    return found[:len(src)], found[len(src):], labels


#: The separators of a well-formed file: the header's, then each row's.
_ROW_SEPARATORS = int.from_bytes(b",,,\n", "little")


def _read_predictions(path, node_ids):
    """(u, v, labels) of a ``src,dst,score,label`` file: each row's src and dst
    as indices into ``node_ids`` (-1 for an id it lacks), and its ±1 label.

    The file is read as bytes. One scan finds every ``\\n`` and ``,``; when
    they repeat as ``,,,\\n`` from the header on, they are the rows and fields.
    Labels are read from their bytes (:func:`graph.span_signs`); the id fields
    are interned (:func:`graph.intern_spans`), so each distinct id is decoded
    and looked up once. A file whose separators do not repeat so, or that holds
    a ``"`` or a ``\\r``, or that is not UTF-8, is read by the ``csv`` module
    instead, which gives the same results and words the errors.
    """
    with open(path, "rb") as f:
        data = f.read()
    # the csv module reads a file faster than the same text from an io.StringIO
    if b'"' in data or b"\r" in data or utf8_error(data):
        return _read_predictions_csv(path, node_ids)
    if not data.endswith(b"\n"):  # the last line's break is optional
        data += b"\n"
    b = np.frombuffer(data, dtype=np.uint8)
    cuts = np.flatnonzero((b == ord("\n")) | (b == ord(",")))
    seps = b[cuts]
    header = ",".join(PREDICTION_HEADER).encode() + b"\n"
    if not (data.startswith(header) and seps.size % 4 == 0
            and (seps.view("<u4") == _ROW_SEPARATORS).all()):
        return _read_predictions_csv(path, node_ids)  # it words the error
    cuts = cuts.reshape(-1, 4)
    starts, cuts = cuts[:-1, 3] + 1, cuts[1:]
    ends = cuts[:, 3]
    labels = span_signs(data, cuts[:, 2] + 1, ends)
    bad = np.flatnonzero(labels == 0)
    if bad.size:
        token = data[cuts[bad[0], 2] + 1:ends[bad[0]]].decode("utf-8")
        raise DataError(f"prediction file row {bad[0] + 1}: bad label {token!r}")
    ids, names = intern_spans(data, np.concatenate((starts, cuts[:, 0] + 1)),
                              np.concatenate((cuts[:, 0], cuts[:, 1])))
    found = _node_index(node_ids, names)[ids]
    return found[:starts.size], found[starts.size:], labels


def cmd_eval(args):
    g = load_graph(args.graph)
    split = _get_split(g, args)
    test = split.test_indices()
    u, v, labels = _read_predictions(args.predictions, g.node_ids)
    n = np.int64(g.node_count)
    # rows naming a node the graph lacks get key -1 and match no test edge
    have = np.where((u >= 0) & (v >= 0), u * n + v, -1)
    rows = np.argsort(have)
    have = have[rows]
    repeated = np.flatnonzero((have[1:] == have[:-1]) & (have[1:] >= 0))
    if repeated.size:
        key = have[repeated[0]]
        pair = (g.node_ids[key // n], g.node_ids[key % n])
        raise DataError(f"prediction file lists edge {pair!r} twice")
    want = g.src[test] * n + g.dst[test]
    edges = np.argsort(want)
    if not np.array_equal(have, want[edges]):
        missing = np.flatnonzero(~np.isin(want, have))
        if missing.size:
            e = test[missing[0]]
            pair = (g.node_ids[g.src[e]], g.node_ids[g.dst[e]])
            raise DataError(f"prediction file does not cover test edge {pair!r}")
        raise DataError("prediction file covers a different edge set than the split")
    c = confusion(labels[rows], g.labels[test[edges]])
    payload = {"tp": c.tp, "tn": c.tn, "fp": c.fp, "fn": c.fn,
               "mcc": mcc(c), "accuracy": json_number(accuracy(c))}
    if args.output:
        write_json(payload, args.output)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _prior_from_args(args):
    """The ``--prior-params`` values in field order: all of the kind's, or its required ones."""
    cls = PRIORS[args.prior]
    names = [f.name for f in fields(cls)]
    counts = sorted({len(cls.required), len(names)})
    if len(args.prior_params) not in counts:
        raise DataError(f"{args.prior} prior takes {' or '.join(map(str, counts))} "
                        f"parameters ({' '.join(names) or 'none'}), got {len(args.prior_params)}")
    return prior_from_json_dict({"kind": args.prior, **dict(zip(names, args.prior_params))})


def cmd_synth(args):
    prior = _prior_from_args(args)
    g, params = make_synthetic(args.nodes, prior, args.degree, args.seed,
                               kind=args.topology)
    g.save(args.output)
    if args.params_out:
        params.save(args.params_out)
    print(f"nodes\t{g.node_count}")
    print(f"edges\t{g.edge_count}")
    print(f"positive_fraction\t{g.positive_fraction:.4f}")
    return 0


def _is(kind):
    return lambda value: isinstance(value, kind)


def _is_list_of(ok):
    return lambda value: isinstance(value, list) and all(map(ok, value))


#: Check and description of each sweep-spec key a spec dataclass holds; a key
#: the spec leaves out takes the dataclass default, an unknown one is a DataError.
SYNTHETIC_KEYS = {"node_count": COUNT, "mean_out_degree": COUNT,
                  "topology": (_is(str), "a string"), "seed": COUNT}
EXPERIMENT_KEYS = {"methods": (_is_list_of(_is(str)), "a list of names"),
                   "fractions": (_is_list_of(is_number), "a list of numbers"),
                   "repetitions": COUNT, "base_seed": COUNT,
                   "include_psi2": (_is(bool), "true or false")}


def _spec_values(d, checks):
    """The keys of ``d`` that ``checks`` names, lists as tuples; a DataError on a bad value."""
    check_values(d, "sweep spec", checks)
    return {key: tuple(d[key]) if isinstance(d[key], list) else d[key]
            for key in checks if key in d}


def cmd_sweep(args):
    d = read_json(args.spec)
    source_key = "synthetic" if "synthetic" in d else "dataset"
    check_known_keys(d, "sweep spec", {source_key, *EXPERIMENT_KEYS})
    if source_key == "synthetic":
        s = d["synthetic"]
        check_keys(s, "sweep spec's synthetic entry", ("node_count", "prior"))
        check_known_keys(s, "sweep spec's synthetic entry", {"prior", *SYNTHETIC_KEYS})
        source = harness.SyntheticSpec(prior=prior_from_json_dict(s["prior"]),
                                       **_spec_values(s, SYNTHETIC_KEYS))
    else:
        check_keys(d, "sweep spec", ("dataset",))
        source = _spec_values(d, {"dataset": (_is(str), "a path")})["dataset"]
    spec = harness.ExperimentSpec(source=source, **_spec_values(d, EXPERIMENT_KEYS))
    report = harness.run_experiment(spec, threads=args.threads)
    write_json(report.to_json_dict(), args.output)
    print(report.to_markdown())
    return 0


def cmd_online(args):
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    g = load_graph(args.graph)
    reports = []
    for trial in range(args.trials):
        seed = args.seed + trial
        if args.adversary_k is not None:
            seq = online.adversary_generate(g, args.adversary_k, seed,
                                            include_tail=args.full_pass)
            reports.append(online.run_online(g, order=seq, seed=seed))
        else:
            reports.append(online.run_online(g, labeling=g.labels,
                                             order="random", seed=seed))
    payload = {
        "format": "edgesign-online-report", "version": 1,
        "trials": [r.to_json_dict() for r in reports],
        "mean_expected_mistakes": float(np.mean([r.expected_mistakes for r in reports])),
        "mean_realized_mistakes": float(np.mean([r.realized_mistakes for r in reports])),
    }
    write_json(payload, args.output)
    print(f"mean_expected_mistakes\t{payload['mean_expected_mistakes']!r}")
    print(f"mean_realized_mistakes\t{payload['mean_realized_mistakes']!r}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edgesign",
        description="Edge sign prediction in signed directed networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, clean and persist an edge list")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--delimiter", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="label-regularity report")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--no-psi2", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="draw and persist a training/test split")
    p.add_argument("graph")
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_split)

    for name, helptext in (("train", "fit a model on the training edges"),
                           ("predict", "score test edges with a fitted model"),
                           ("eval", "score a prediction file against the truth")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("graph")
        if name == "train":
            p.add_argument("--method", required=True,
                           choices=list(batch.METHODS))
            p.add_argument("-o", "--output", required=True)
            p.add_argument("--tol", type=float, default=None)
            p.add_argument("--max-iter", type=int, default=None)
        elif name == "predict":
            p.add_argument("model")
            p.add_argument("-o", "--output", required=True)
        else:
            p.add_argument("predictions")
            p.add_argument("-o", "--output", default=None)
        p.add_argument("--split", default=None)
        p.add_argument("--fraction", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func={"train": cmd_train, "predict": cmd_predict,
                             "eval": cmd_eval}[name])

    p = sub.add_parser("sweep", help="run a fraction sweep from a spec file")
    p.add_argument("spec")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic labeled graph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--topology", choices=["fixed", "er", "ring"], default="fixed")
    p.add_argument("--prior", choices=list(PRIORS), required=True)
    p.add_argument("--prior-params", type=float, nargs="*", default=[])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--params-out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("online", help="sequential prediction trials")
    p.add_argument("graph")
    p.add_argument("--adversary-k", type=int, default=None)
    p.add_argument("--full-pass", action="store_true")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_online)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send the rest to /dev/null so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT


if __name__ == "__main__":
    sys.exit(main())
