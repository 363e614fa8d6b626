"""Two-party conditional-probability behaviors and the stateful device.

A Behavior is a table P(x1,x2|u1,u2) over 4x4 outcomes and 9x9 settings,
nonnegative, normalized per setting pair, and no-signaling (each party's
marginal is independent of the other party's setting).

The ideal box for the 18-vector model has entries
``<v_a|v_b>^2 / (4 |v_a|^2 |v_b|^2)`` where v_a, v_b are the projector
vectors selected by the settings and outcomes.  All denominators are powers
of two not exceeding 64, so the float table is exact and the 504 indicator
entries are exactly zero.

A Device answers one round at a time with one model for every kind: it
plays behavior b1 until round tau and b2 from then on (iid devices never
reach tau).  Its memory holds only the settings seen so far and private
randomness, and tau depends on past settings only, so the distribution of
round k's outcome never depends on settings of later rounds (time-ordered
no-signaling holds by construction).  Devices and bit sources share no
state: a device is built, with its own generator, before any source bits
are drawn.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from .ks_bell import (N_OUTCOMES, N_SETTINGS, BellFunctional, KSModel,
                      gram_table, is_setting_pair, pair_index)
from .seeding import uniforms


@dataclass(frozen=True)
class Behavior:
    """Conditional probability table, indexed [u1-1, u2-1, x1-1, x2-1].

    `table` is float64; `exact` optionally carries the same entries as
    Fractions (object ndarray) for certification-grade arithmetic.
    """

    table: np.ndarray
    exact: np.ndarray | None = None
    meta: dict | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    max_normalization_residual: float
    max_signaling_residual: float


def ideal_quantum_box(model: KSModel) -> Behavior:
    """The maximally violating box, built in exact rational arithmetic.

    table(u1,u2,x1,x2) = <v_a|v_b>^2 / (4 |v_a|^2 |v_b|^2) with v_a, v_b
    the vectors of the cell (`ks_bell.gram_table`).  Entries are dyadic
    rationals, so the float table carries them exactly.
    """
    g = gram_table(model)
    norm_sq = np.einsum("aaxx->ax", g)              # |v|^2 at (setting, slot)
    den = 4 * norm_sq[:, None, :, None] * norm_sq[None, :, None, :]
    exact = np.array([Fraction(n, d) for n, d in
                      zip((g ** 2).ravel().tolist(), den.ravel().tolist())],
                     dtype=object).reshape(g.shape)
    return Behavior(table=exact.astype(float), exact=exact,
                    meta={"kind": "ideal"})


def uniform_box() -> Behavior:
    exact = np.full((N_SETTINGS, N_SETTINGS, N_OUTCOMES, N_OUTCOMES),
                    Fraction(1, 16), dtype=object)
    return Behavior(table=np.full(exact.shape, 1.0 / 16.0), exact=exact,
                    meta={"kind": "uniform"})


def deterministic_behavior(alice: tuple[int, ...], bob: tuple[int, ...]) -> Behavior:
    """Local deterministic box: outcome (alice[u1-1], bob[u2-1]) w.p. 1."""
    table = np.zeros((N_SETTINGS, N_SETTINGS, N_OUTCOMES, N_OUTCOMES))
    u, x1, x2 = np.arange(N_SETTINGS), np.subtract(alice, 1), np.subtract(bob, 1)
    table[u[:, None], u, x1[:, None], x2] = 1.0
    return Behavior(table=table, meta={"kind": "deterministic"})


def depolarize(b: Behavior, eta: float) -> Behavior:
    """Mix with white noise: (1-eta) * b + eta * uniform(1/16).  The mix is
    a float table only: a float eta has no exact table to match."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"noise weight must be in [0,1], got {eta}")
    return Behavior(table=(1.0 - eta) * b.table + eta / 16.0,
                    meta={"kind": "depolarized", "eta": eta,
                          "base": (b.meta or {}).get("kind")})


def validate_behavior(b: Behavior, tol: float = 1e-12) -> ValidationReport:
    """Report normalization and signaling residuals; ok iff both <= tol."""
    sums = b.table.sum(axis=(2, 3))
    norm_res = float(np.abs(sums - 1.0).max())
    # Alice marginal over x2 should not vary with u2; Bob symmetric.
    alice = b.table.sum(axis=3)            # (u1, u2, x1)
    bob = b.table.sum(axis=2)              # (u1, u2, x2)
    sig_a = float((alice.max(axis=1) - alice.min(axis=1)).max())
    sig_b = float((bob.max(axis=0) - bob.min(axis=0)).max())
    sig_res = max(sig_a, sig_b)
    return ValidationReport(ok=(norm_res <= tol and sig_res <= tol),
                            max_normalization_residual=norm_res,
                            max_signaling_residual=sig_res)


def bell_value(b: Behavior, f: BellFunctional, measure=None) -> float:
    """sum_u nu(u) sum_x B(x,u) P(x|u).

    measure: the setting weights nu, None for equal weights or a normalized
    (9,9) array.
    """
    if measure is None:
        nu = np.full((N_SETTINGS, N_SETTINGS), 1.0 / 81.0)
    else:
        nu = np.asarray(measure, dtype=float)
        if nu.shape != (N_SETTINGS, N_SETTINGS):
            raise ValueError("measure must have shape (9, 9)")
        if abs(nu.sum() - 1.0) > 1e-9:
            raise ValueError("measure is not normalized")
    ind = f.indicator_array().astype(float)     # (u1,u2,x1,x2)
    return float(((ind * b.table).sum(axis=(2, 3)) * nu).sum())


def bell_value_exact(b: Behavior, f: BellFunctional) -> Fraction:
    """Raw indicator sum in exact arithmetic (requires an exact table)."""
    if b.exact is None:
        raise ValueError("behavior has no exact table")
    return sum((b.exact.flat[c] for c in f.bell_cells), Fraction(0))


def cumulative_tables(b: Behavior) -> np.ndarray:
    """Row `ks_bell.pair_index(u1, u2)`: the cumulative outcome
    probabilities of that setting pair in row-major (x1 outer, x2 inner)
    order; the sampling order is fixed so transcripts are reproducible bit
    for bit."""
    cums = np.cumsum(b.table.reshape(N_SETTINGS ** 2, N_OUTCOMES ** 2), axis=1)
    cums[:, -1] = np.maximum(cums[:, -1], 1.0)  # guard the last bin against rounding
    return cums


class Device:
    """Plays behavior b1 until round tau, then b2 from round tau on.

    respond(k, u) -> (x1, x2) draws exactly one `rng.random()`; k is the
    0-based round index, calls must be made in round order, and u must be
    two ints in 1..9 (else ValueError).  tau never
    changes the draw, only the table it is read from:
        iid              tau is never reached (b1 throughout)
        switch_after     tau = k
        history_trigger  tau = the round after `pattern` first completes as a
                         contiguous block of past settings
    `pattern` and the memory `_recent` (the last len(pattern) rounds) are
    bytes of setting pairs' `ks_bell.pair_index`.
    `respond_chunk` answers a run of rounds at once with the same draws,
    outcomes, tau and memory as `respond` round by round.  Build devices
    with `make_iid_device` or `make_adversarial_device`.
    """

    def __init__(self, spec: dict, b1: Behavior, b2: Behavior, seed: int,
                 tau: float = math.inf, pattern: bytes = b""):
        self._spec = spec
        self.seed = seed
        self.rng = Random(seed)
        self.tau = tau
        self.pattern = pattern
        self._recent = b""
        self._cums1 = cumulative_tables(b1)
        self._cums2 = self._cums1 if b2 is b1 else cumulative_tables(b2)

    def respond(self, k: int, u: tuple[int, int]) -> tuple[int, int]:
        if not is_setting_pair(u):
            raise ValueError(f"setting pair needs two ints in 1..9, got {u!r}")
        pair = pair_index(*u)
        cums = self._cums1 if k < self.tau else self._cums2
        # every cum[-1] >= 1 > random(), so c is an outcome pair code 0..15
        c = bisect_right(cums[pair].tolist(), self.rng.random())
        if self.pattern and k < self.tau:
            self._recent = (self._recent + bytes((pair,)))[-len(self.pattern):]
            if self._recent == self.pattern:
                self.tau = k + 1
        return (c // 4 + 1, c % 4 + 1)

    def respond_chunk(self, k: int, pairs: np.ndarray) -> np.ndarray:
        """Outcome codes 4 (x1-1) + (x2-1) of rounds k, k+1, ... whose
        setting pairs have the `ks_bell.pair_index` values `pairs`: one
        uniform r per round, and the code is the count of entries <= r in
        the round's cumulative row, which is what bisect_right returns."""
        r = uniforms(self.rng, len(pairs))
        if self.pattern and self.tau == math.inf:
            self._watch(k, pairs)
        split = int(min(max(self.tau - k, 0), len(pairs)))  # rounds before tau
        return np.concatenate([
            (self._cums1[pairs[:split]] <= r[:split, None]).sum(axis=1),
            (self._cums2[pairs[split:]] <= r[split:, None]).sum(axis=1)])

    def _watch(self, k: int, pairs: np.ndarray) -> None:
        """Set tau if `pattern` first completes in rounds k, k+1, ..., and
        keep the settings of the last len(pattern) rounds up to then."""
        size, carried = len(self.pattern), len(self._recent)
        seq = self._recent + pairs.astype(np.uint8).tobytes()
        start = seq.find(self.pattern)  # fixed length: first start, first end
        if start >= 0:
            self.tau = k + start + size - carried
            seq = seq[:start + size]
        self._recent = seq[-size:]

    def spec(self) -> dict:
        return dict(self._spec, seed=self.seed)


def make_iid_device(behavior: Behavior, seed: int = 0) -> Device:
    return Device({"kind": "iid", "behavior": behavior.meta or {}},
                  behavior, behavior, seed)


def make_adversarial_device(spec: dict, seed: int = 0) -> Device:
    """Build a stateful device from a serializable spec, the one check of it.

    Supported kinds: switch_after {k, b1, b2}, k an int >= 0 (not a bool),
    and history_trigger {pattern, b1, b2}, pattern a non-empty list of
    [u1, u2] setting pairs in 1..9; else ValueError("device.k: ...") or
    ValueError("device.pattern: ...").  b1/b2 are Behavior objects.
    """
    kind = spec.get("kind")
    if kind == "switch_after":
        if not (type(k := spec.get("k")) is int and k >= 0):
            raise ValueError(f"device.k: needs an int >= 0, got {k!r}")
        return Device({"kind": kind, "k": k}, spec["b1"], spec["b2"],
                      seed, tau=k)
    if kind == "history_trigger":
        if not (isinstance(pattern := spec.get("pattern"), (list, tuple))
                and pattern and all(map(is_setting_pair, pattern))):
            raise ValueError("device.pattern: needs a non-empty list of setting"
                             f" pairs in 1..9, got {pattern!r}")
        return Device({"kind": kind, "pattern": [list(p) for p in pattern]},
                      spec["b1"], spec["b2"], seed,
                      pattern=bytes(pair_index(*p) for p in pattern))
    raise ValueError(f"unknown adversarial device kind: {kind!r}")
