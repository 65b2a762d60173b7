import os
import subprocess
import sys

import numpy as np
import pytest

import edgesign
from edgesign.graph import EdgeSplit, SignedDigraph


HAND_EDGES = "a\tb\t+1\na\tc\t-1\nb\tc\t+1\nc\tb\t-1\n"


@pytest.fixture
def hand_graph():
    """4-edge, 3-node graph {(a,b,+),(a,c,-),(b,c,+),(c,b,-)}."""
    from edgesign.graph import load_edge_list
    return load_edge_list(HAND_EDGES)


def make_split(mask, fraction=0.5, seed=0):
    return EdgeSplit(np.asarray(mask, dtype=bool), fraction, seed)


def random_graph(n, m, seed, neg_rate=0.3):
    """Random simple digraph with ~m edges and independent sign flips."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=3 * m)
    dst = rng.integers(0, n - 1, size=3 * m)
    dst += dst >= src
    keys = np.unique(src * np.int64(n) + dst)
    rng.shuffle(keys)
    keys = keys[:m]
    src, dst = keys // n, keys % n
    labels = np.where(rng.random(src.size) < neg_rate, -1, 1).astype(np.int8)
    return SignedDigraph(n, src, dst, labels, validate=False)


def run_python(args, **kwargs):
    """A fresh interpreter that imports this checkout's ``edgesign``."""
    source = os.path.dirname(os.path.dirname(edgesign.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kwargs)
