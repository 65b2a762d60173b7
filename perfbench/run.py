"""Benchmark command for edgesign.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload on the edgesign sources in ``src/`` beside this directory,
in this process, single-threaded. Without ``--workload`` it runs every
workload in turn, each in a process of its own. The last line of standard
output is the JSON result. The exit code is 0 when every output check
passed, 1 when one failed, and 2 on a usage error or when ``src/edgesign``
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Read by the BLAS libraries when NumPy loads, so they are set first.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="workload name; all workloads when omitted")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def run_all(args):
    """Every workload in its own process; one combined JSON line at the end."""
    from workloads import WORKLOADS  # names only; this process runs no workload

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, child.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{metric}": entry
                                    for metric, entry in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "edgesign" / "__init__.py").is_file():
        print(f"error: no edgesign sources at {ROOT / 'src' / 'edgesign'}", file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.workload is None:
        return run_all(args)
    import runner

    return runner.main(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
