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
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from .ks_bell import N_OUTCOMES, N_SETTINGS, BellFunctional, KSModel


@dataclass(frozen=True)
class Behavior:
    """Conditional probability table, indexed [u1-1, u2-1, x1-1, x2-1].

    `table` is float64; `exact` optionally carries the same entries as
    Fractions (object ndarray) for certification-grade arithmetic.
    """

    table: np.ndarray
    exact: np.ndarray | None = None
    meta: dict | None = None

    def prob(self, x: tuple[int, int], u: tuple[int, int]) -> float:
        return float(self.table[u[0] - 1, u[1] - 1, x[0] - 1, x[1] - 1])

    def prob_exact(self, x: tuple[int, int], u: tuple[int, int]) -> Fraction:
        if self.exact is None:
            raise ValueError("behavior has no exact table")
        return self.exact[u[0] - 1, u[1] - 1, x[0] - 1, x[1] - 1]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    max_normalization_residual: float
    max_signaling_residual: float


def ideal_quantum_box(model: KSModel) -> Behavior:
    """The maximally violating box, built in exact rational arithmetic.

    table(u1,u2,x1,x2) = <v_a|v_b>^2 / (4 |v_a|^2 |v_b|^2) with
    v_a = vector(u1,x1) and v_b = vector(u2,x2).  Entries are dyadic
    rationals, so the float table carries them exactly.
    """
    exact = np.empty((N_SETTINGS, N_SETTINGS, N_OUTCOMES, N_OUTCOMES), dtype=object)
    for u1 in range(1, N_SETTINGS + 1):
        for u2 in range(1, N_SETTINGS + 1):
            for x1 in range(1, N_OUTCOMES + 1):
                for x2 in range(1, N_OUTCOMES + 1):
                    a = model.vector_at(u1, x1)
                    b = model.vector_at(u2, x2)
                    num = model.inner(a, b) ** 2
                    den = 4 * model.norm_sq(a) * model.norm_sq(b)
                    exact[u1 - 1, u2 - 1, x1 - 1, x2 - 1] = Fraction(num, den)
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
    for u1 in range(N_SETTINGS):
        for u2 in range(N_SETTINGS):
            table[u1, u2, alice[u1] - 1, bob[u2] - 1] = 1.0
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
    total = Fraction(0)
    for (x1, x2), (u1, u2) in f.sb:
        total += b.exact[u1 - 1, u2 - 1, x1 - 1, x2 - 1]
    return total


def cumulative_tables(b: Behavior) -> list[list[float]]:
    """Per setting pair, cumulative outcome probabilities in row-major
    (x1 outer, x2 inner) order; the sampling order is fixed so transcripts
    are reproducible bit for bit."""
    cums = []
    for u1 in range(N_SETTINGS):
        for u2 in range(N_SETTINGS):
            flat = b.table[u1, u2].reshape(-1)
            c = np.cumsum(flat).tolist()
            c[-1] = max(c[-1], 1.0)      # guard the last bin against rounding
            cums.append(c)
    return cums


class Device:
    """Plays behavior b1 until round tau, then b2 from round tau on.

    respond(k, u) -> (x1, x2) draws exactly one `rng.random()`; k is the
    0-based round index and calls must be made in round order.  tau never
    changes the draw, only the table it is read from:
        iid              tau is never reached (b1 throughout)
        switch_after     tau = k
        history_trigger  tau = the round after `pattern` first completes as a
                         contiguous block of past settings
    Build devices with `make_iid_device` or `make_adversarial_device`.
    """

    def __init__(self, spec: dict, b1: Behavior, b2: Behavior, seed: int,
                 tau: float = math.inf, pattern: tuple = ()):
        self._spec = spec
        self.seed = seed
        self.rng = Random(seed)
        self.tau = tau
        self.pattern = pattern
        self._recent: deque = deque(maxlen=len(pattern))
        self._cums1 = cumulative_tables(b1)
        self._cums2 = self._cums1 if b2 is b1 else cumulative_tables(b2)

    def respond(self, k: int, u: tuple[int, int]) -> tuple[int, int]:
        cums = self._cums1 if k < self.tau else self._cums2
        # every cum[-1] >= 1 > random(), so c is an outcome pair code 0..15
        c = bisect_right(cums[(u[0] - 1) * 9 + (u[1] - 1)], self.rng.random())
        if self.pattern and k < self.tau:
            self._recent.append(tuple(u))
            if tuple(self._recent) == self.pattern:
                self.tau = k + 1
        return (c // 4 + 1, c % 4 + 1)

    def spec(self) -> dict:
        return dict(self._spec, seed=self.seed)


def make_iid_device(behavior: Behavior, seed: int = 0) -> Device:
    return Device({"kind": "iid", "behavior": behavior.meta or {}},
                  behavior, behavior, seed)


def make_adversarial_device(spec: dict, seed: int = 0) -> Device:
    """Build a stateful device from a serializable spec.

    Supported kinds: switch_after {k, b1, b2} and history_trigger
    {pattern, b1, b2}; b1/b2 are Behavior objects supplied by the caller.
    """
    kind = spec.get("kind")
    if kind == "switch_after":
        if spec["k"] < 0:
            raise ValueError("switch round must be >= 0")
        return Device({"kind": kind, "k": spec["k"]}, spec["b1"], spec["b2"],
                      seed, tau=spec["k"])
    if kind == "history_trigger":
        pattern = tuple(tuple(p) for p in spec["pattern"])
        if not pattern:
            raise ValueError("pattern must be non-empty")
        return Device({"kind": kind, "pattern": [list(p) for p in pattern]},
                      spec["b1"], spec["b2"], seed, pattern=pattern)
    raise ValueError(f"unknown adversarial device kind: {kind!r}")
