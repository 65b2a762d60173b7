"""Generative model for edge signs: latent (p, q) per node, Pr(+1) = (p_i+q_j)/2.

Each node carries a propensity to like (p) and to be liked (q), drawn i.i.d.
from a configurable prior. The label of edge (i, j) is +1 with probability
(p_i + q_j)/2. The minimum-error rule under this model is
sgn(p_i + q_j − 1), with sgn(0) = +1 throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError
from .graph import (COUNT, NUMBER, JsonContainer, SignedDigraph, check_container, check_keys,
                    check_known_keys, check_values, number_lists, sorted_unique)


def sign_with_tie(x):
    """sgn with the package-wide tie rule sgn(0) = +1."""
    return np.where(np.asarray(x) >= 0, 1, -1)


# ---------------------------------------------------------------------------
# Priors


class _Prior:
    """A prior's JSON form: its ``kind``, then its dataclass fields in order."""

    def validate(self):
        pass

    def to_json_dict(self):
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}


@dataclass
class UniformPrior(_Prior):
    """p and q independent Uniform(0, 1)."""

    kind = "uniform"
    required = ()

    def sample(self, n, rng):
        return rng.random(n), rng.random(n)


@dataclass
class BetaPrior(_Prior):
    """p ~ Beta(a_p, b_p), q ~ Beta(a_q, b_q), all independent."""

    a_p: float
    b_p: float
    a_q: float
    b_q: float

    kind = "beta"
    required = ("a_p", "b_p", "a_q", "b_q")

    def validate(self):
        if min(self.a_p, self.b_p, self.a_q, self.b_q) <= 0:
            raise ValueError("beta shape parameters must be positive")

    def sample(self, n, rng):
        return rng.beta(self.a_p, self.b_p, size=n), rng.beta(self.a_q, self.b_q, size=n)


@dataclass
class TwoPointPrior(_Prior):
    """Polarized prior: p_i = hi with probability weight, else lo.

    q draws its own independent coin; by default it shares (lo, hi, weight),
    but the q-side support can be overridden so edge-level rates (p_i+q_j)/2
    can be kept away from 1/2 on every node pair.
    """

    lo: float
    hi: float
    weight: float = 0.5
    q_lo: float = None
    q_hi: float = None
    q_weight: float = None

    kind = "two-point"
    required = ("lo", "hi", "weight")

    def __post_init__(self):
        if self.q_lo is None:
            self.q_lo = self.lo
        if self.q_hi is None:
            self.q_hi = self.hi
        if self.q_weight is None:
            self.q_weight = self.weight

    def validate(self):
        for lo, hi, w in ((self.lo, self.hi, self.weight),
                          (self.q_lo, self.q_hi, self.q_weight)):
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError(f"need 0 <= lo <= hi <= 1, got ({lo}, {hi})")
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"mixture weight must lie in [0, 1], got {w}")

    def sample(self, n, rng):
        p = np.where(rng.random(n) < self.weight, self.hi, self.lo)
        q = np.where(rng.random(n) < self.q_weight, self.q_hi, self.q_lo)
        return p, q


#: Prior class of each ``kind``. A prior's parameters are its dataclass fields;
#: those named in its ``required`` must be given, the others may be omitted.
PRIORS = {cls.kind: cls for cls in (UniformPrior, BetaPrior, TwoPointPrior)}


def prior_from_json_dict(d):
    """The prior a JSON object describes; an unknown key or a non-number value is a DataError."""
    check_keys(d, "prior", ("kind",))
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in PRIORS:
        raise DataError(f"unknown prior kind {kind!r}")
    cls = PRIORS[kind]
    check_keys(d, f"{kind} prior", cls.required)
    check_known_keys(d, f"{kind} prior", {"kind", *(f.name for f in fields(cls))})
    prior = cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})
    # the constructed prior's values, so a two-point q side left null takes the p side's
    check_values(prior.to_json_dict(), f"{kind} prior", {f.name: NUMBER for f in fields(cls)})
    return prior


# ---------------------------------------------------------------------------
# Parameters and label sampling


@dataclass
class GenParams(JsonContainer):
    """Per-node latent parameters plus the prior and seed that produced them."""

    p: np.ndarray
    q: np.ndarray
    prior: object
    seed: int

    def to_json_dict(self):
        return {"format": "edgesign-genparams", "version": 1,
                "p": self.p.tolist(), "q": self.q.tolist(),
                "prior": self.prior.to_json_dict() if self.prior is not None else None,
                "seed": self.seed}

    @classmethod
    def from_json_dict(cls, d):
        check_container(d, "edgesign-genparams", keys=("p", "q", "prior"), values={"seed": COUNT})
        p, q = number_lists(d, ("p", "q"))
        prior = prior_from_json_dict(d["prior"]) if d["prior"] is not None else None
        return cls(p, q, prior, d["seed"])


def sample_params(n, prior, seed):
    """Draw i.i.d. (p_i, q_i) pairs from the prior, reproducibly."""
    prior.validate()
    rng = np.random.default_rng(seed)
    p, q = prior.sample(n, rng)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if np.any((p < 0) | (p > 1) | (q < 0) | (q > 1)):
        raise ValueError("prior produced parameters outside [0, 1]")
    return GenParams(p=p, q=q, prior=prior, seed=int(seed))


def sample_labels(g, params, seed):
    """Draw a ±1 labeling of g's edges: +1 with probability (p_i + q_j)/2."""
    if params.p.size != g.node_count:
        raise DataError("parameter vectors do not match the node count")
    rng = np.random.default_rng(seed)
    eta = 0.5 * (params.p[g.src] + params.q[g.dst])
    return np.where(rng.random(g.edge_count) < eta, 1, -1).astype(np.int8)


def bayes_scores(params, src, dst):
    """Signed margin p_i + q_j − 1 of the minimum-error rule, vectorized."""
    return params.p[np.asarray(src)] + params.q[np.asarray(dst)] - 1.0


def eq1_rates(g, params):
    """Eq. (1): the expected positive-label rate over each node's out- and in-edges.

    Returns float arrays ``(out_rate, in_rate)`` of length |V|:
    out_rate[i] = (p_i + mean of q over i's out-neighbors)/2, the mean of
    (p_i+q_j)/2 over i's out-edges, and in_rate symmetrically over in-edges.
    A side with zero degree is NaN.
    """
    n = g.node_count
    eta = 0.5 * (params.p[g.src] + params.q[g.dst])
    out_degree, in_degree = g.degrees
    with np.errstate(invalid="ignore"):
        return (np.bincount(g.src, weights=eta, minlength=n) / out_degree,
                np.bincount(g.dst, weights=eta, minlength=n) / in_degree)


# ---------------------------------------------------------------------------
# Synthetic topologies


def sample_topology(n, out_degree, seed, kind="fixed"):
    """Random directed topology without self-loops or duplicate pairs.

    kind="fixed": every node draws `out_degree` targets at random (duplicates
    collapse, so realized out-degrees can dip slightly below the target).
    kind="er": Erdős–Rényi-style, |E| ~ Binomial with mean n·out_degree.
    kind="ring": deterministic circulant i → i+1..i+out_degree (mod n); every
    in/out degree is exactly out_degree.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if not 1 <= out_degree <= n - 1:
        raise ValueError(f"out_degree must lie in [1, {n - 1}]")
    rng = np.random.default_rng(seed)
    if kind == "ring":
        src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
        offsets = np.tile(np.arange(1, out_degree + 1, dtype=np.int64), n)
        dst = (src + offsets) % n
        return src, dst
    if kind == "fixed":
        src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
        dst = rng.integers(0, n - 1, size=src.size, dtype=np.int64)
        dst += dst >= src  # skip the diagonal
    elif kind == "er":
        m = rng.binomial(n * (n - 1), min(1.0, out_degree / (n - 1)))
        src = rng.integers(0, n, size=m, dtype=np.int64)
        dst = rng.integers(0, n - 1, size=m, dtype=np.int64)
        dst += dst >= src
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    keys = sorted_unique(src * np.int64(n) + dst)
    return keys // n, keys % n


def make_synthetic(n, prior, out_degree, seed, kind="fixed"):
    """Generate (graph, params): topology, latent parameters, sampled labels.

    Three independent seeded streams (topology, params, labels) are derived
    from the single seed so runs are replayable from one integer.
    """
    src, dst = sample_topology(n, out_degree, seed=seed, kind=kind)
    params = sample_params(n, prior, seed=seed + 1)
    stub = SignedDigraph(n, src, dst, np.ones(src.size, dtype=np.int8), validate=False)
    labels = sample_labels(stub, params, seed=seed + 2)
    return stub.with_labels(labels), params
