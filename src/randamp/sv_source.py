"""Weak bit sources with bounded conditional bias, and the bits-to-settings
map used to pick measurement settings.

A source with reliability parameter eps emits bits whose conditional
probability of 0, given the entire history, always lies in
[1/2 - eps, 1/2 + eps].  Honest and adversarial strategies are provided;
each one exposes its conditional law exactly (`conditional_p0`), so the band
constraint can be checked by exhaustive enumeration rather than trusted.

Settings are chosen with 4 bits per party, MSB first (b1 b2 b3 b4 gives
v = 8 b1 + 4 b2 + 2 b3 + b4) and the surjection setting = (v mod 9) + 1.
Settings 1..7 then have two 4-bit preimages, settings 8..9 have one.  No
rejection sampling is used: a rejected block would break the per-round
accounting that the concentration argument for settings relies on (the sum
over unconstrained rounds must telescope to one by normalization).

The adversarial concentration oracle computes, by exact dynamic programming
over one 8-bit block, the least probability any strategy can leave on a
target setting pair; the chance of avoiding the target in k chosen rounds is
then that least mass complemented and raised to the k-th power, because
strategies couple rounds only through history while the per-round optimum is
history-independent.  This exact maximum is verified against the closed-form
envelope zeta^k with zeta = 1 - (1/2 - eps)^8.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

BITS_PER_PARTY = 4
BITS_PER_ROUND = 2 * BITS_PER_PARTY


def _as_fraction(v) -> Fraction:
    """Exact conversion; floats convert by their exact binary value."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v)
    raise TypeError(f"cannot convert {type(v).__name__} to Fraction")


@dataclass(frozen=True)
class SettingMap:
    """Per-party surjection from 4-bit values 0..15 onto settings 1..9."""

    name: str = "mod9"

    def setting_of(self, v: int) -> int:
        return (v % 9) + 1

    def preimages(self, setting: int) -> tuple[int, ...]:
        return tuple(v for v in range(16) if self.setting_of(v) == setting)

    def pair_preimage_count(self, u: tuple[int, int]) -> int:
        return len(self.preimages(u[0])) * len(self.preimages(u[1]))

    def map_block(self, block: int) -> tuple[int, int]:
        """8-bit packed block (party 1 in the high nibble) -> setting pair."""
        return (self.setting_of(block >> 4), self.setting_of(block & 0xF))

    def pair_block_preimages(self, u: tuple[int, int]) -> tuple[int, ...]:
        return tuple(a * 16 + b for a in self.preimages(u[0])
                     for b in self.preimages(u[1]))


DEFAULT_MAP = SettingMap()


def map_bits_to_settings(bits, mapping: SettingMap = DEFAULT_MAP) -> tuple[int, int]:
    """Map exactly 8 bits, MSB-first per party, to a setting pair."""
    bits = list(bits)
    if len(bits) != 8 or any(b not in (0, 1) for b in bits):
        raise ValueError("expected exactly 8 bits")
    block = 0
    for b in bits:
        block = block * 2 + b
    return mapping.map_block(block)


# --- strategies ---------------------------------------------------------
#
# A strategy reports the conditional probability of emitting 0 given the
# bits emitted so far.  All built-ins depend on history only through the
# position in the stream and the prefix of the current 8-bit block, which
# keeps the exact checks cheap.


class UnbiasedStrategy:
    name = "unbiased"

    def __init__(self):
        self.eps = Fraction(0)

    def p0(self, history) -> Fraction:
        return Fraction(1, 2)


class ConstantBiasStrategy:
    """Cycles through a fixed sequence of signed biases, by bit position."""

    name = "constant_bias"

    def __init__(self, biases, eps):
        self.eps = _as_fraction(eps)
        self.biases = tuple(_as_fraction(b) for b in biases)
        if not self.biases:
            raise ValueError("bias sequence must be non-empty")
        if any(abs(b) > self.eps for b in self.biases):
            raise ValueError("bias magnitude exceeds the source parameter")

    def p0(self, history) -> Fraction:
        return Fraction(1, 2) + self.biases[len(history) % len(self.biases)]


class _BlockPolicyStrategy:
    """Base for strategies defined by a per-block policy table.

    Node 1 is the block root; consuming bit b moves to node 2*node + b.
    The policy assigns each internal node a probability of emitting 0.
    """

    def __init__(self, eps, policy: dict[int, Fraction]):
        self.eps = _as_fraction(eps)
        self.policy = policy

    def p0(self, history) -> Fraction:
        node = 1
        for b in history[len(history) - len(history) % BITS_PER_ROUND:]:
            node = 2 * node + b
        return self.policy[node]


def _leaf_values(leaf_fn: Callable[[int], Fraction]) -> list:
    """Values of the depth-8 block tree, heap-indexed (leaves at 256..511)."""
    vals = [None] * 512
    for leaf in range(256):
        vals[256 + leaf] = _as_fraction(leaf_fn(leaf))
    return vals


def _tree_extremum(eps: Fraction, leaf_fn: Callable[[int], Fraction],
                   minimize: bool) -> tuple[Fraction, dict[int, Fraction]]:
    """Optimal value and per-node policy for one 8-bit block.

    The objective E[leaf value] is linear in each conditional probability,
    so the optimum sits at a band endpoint: the favored child gets weight
    1/2 + eps.  Ties resolve toward bit 0 for determinism.
    """
    half = Fraction(1, 2)
    vals = _leaf_values(leaf_fn)
    policy: dict[int, Fraction] = {}
    for node in range(255, 0, -1):
        v0, v1 = vals[2 * node], vals[2 * node + 1]
        prefer0 = (v0 <= v1) if minimize else (v0 >= v1)
        p0 = half + eps if prefer0 else half - eps
        policy[node] = p0
        vals[node] = p0 * v0 + (1 - p0) * v1
    return vals[1], policy


class AvoidTargetStrategy(_BlockPolicyStrategy):
    """Each bit biased to minimize the mass left on a target setting pair."""

    name = "avoid_target"

    def __init__(self, eps, target: tuple[int, int] = (1, 2),
                 mapping: SettingMap = DEFAULT_MAP):
        epsf = _as_fraction(eps)
        pre = set(mapping.pair_block_preimages(target))
        _, policy = _tree_extremum(
            epsf, lambda leaf: Fraction(1 if leaf in pre else 0), minimize=True)
        super().__init__(epsf, policy)
        self.target = tuple(target)


class TowardPatternStrategy(_BlockPolicyStrategy):
    """Per block, pushes every bit toward a fixed 8-bit pattern."""

    name = "toward_pattern"

    def __init__(self, eps, pattern: int):
        epsf = _as_fraction(eps)
        if not 0 <= pattern < 256:
            raise ValueError("pattern must be an 8-bit value")
        half = Fraction(1, 2)
        policy = {}
        for node in range(1, 256):
            depth = node.bit_length() - 1
            want = (pattern >> (BITS_PER_ROUND - 1 - depth)) & 1
            policy[node] = half - epsf if want else half + epsf
        super().__init__(epsf, policy)
        self.pattern = pattern


def make_strategy(spec, eps):
    """Strategy from a serializable spec: "unbiased",
    ("constant_bias", [b1, b2, ...]), ("avoid_target",) or
    ("avoid_target", (u1, u2)), ("toward_pattern", pattern)."""
    if spec == "unbiased" or spec is None:
        return UnbiasedStrategy()
    kind, *args = spec if isinstance(spec, (tuple, list)) else (spec,)
    if kind == "constant_bias" and args:
        return ConstantBiasStrategy(args[0], eps)
    if kind == "avoid_target":
        return AvoidTargetStrategy(eps, tuple(args[0]) if args else (1, 2))
    if kind == "toward_pattern" and args:
        return TowardPatternStrategy(eps, args[0])
    raise ValueError(f"unknown source strategy {spec!r}")


def _plain_spec(spec):
    """JSON form of a valid strategy spec: lists for tuples, exact strings
    for Fractions, and a bare name for a spec without arguments."""
    if spec is None or isinstance(spec, str):
        return spec or "unbiased"
    if len(spec) == 1:
        return spec[0]
    return json.loads(json.dumps(spec, default=str))


class SVSource:
    """Stateful bit stream with bounded conditional bias.

    The stream is deterministic given (eps, strategy, seed).  The unbiased
    strategy consumes the generator via getrandbits; biased strategies draw
    one uniform per bit and compare against the strategy's conditional law.
    """

    def __init__(self, eps=0, strategy="unbiased", seed: int = 0):
        self.eps = _as_fraction(eps)
        if not 0 <= self.eps < Fraction(1, 2):
            raise ValueError("source parameter must be in [0, 1/2)")
        if hasattr(strategy, "p0"):
            self.strategy = strategy
            self._spec = getattr(strategy, "name", "custom")
        else:
            self.strategy = make_strategy(strategy, self.eps)
            self._spec = _plain_spec(strategy)
        if self.strategy.eps > self.eps:
            raise ValueError("strategy bias exceeds the source parameter")
        self.seed = seed
        self.rng = Random(seed)
        self.bits_emitted = 0
        self._unbiased = isinstance(self.strategy, UnbiasedStrategy)
        # Unbiased stream: refilled in fixed 32-bit units so the emitted
        # bit sequence does not depend on the caller's chunking.
        self._buf = 0
        self._buf_len = 0
        # Block-policy strategies: track (node, position) incrementally.
        self._node = 1
        self._policy = getattr(self.strategy, "policy", None)
        self._cycle = getattr(self.strategy, "biases", None)

    def _p0_float(self) -> float:
        if self._policy is not None:
            return float(self._policy[self._node])
        if self._cycle is not None:
            return 0.5 + float(self._cycle[self.bits_emitted % len(self._cycle)])
        return 0.5

    def _advance(self, bit: int) -> None:
        self.bits_emitted += 1
        if self._policy is not None:
            self._node = 2 * self._node + bit
            if self.bits_emitted % BITS_PER_ROUND == 0:
                self._node = 1

    def _take_unbiased(self, k: int) -> int:
        while self._buf_len < k:
            self._buf = (self._buf << 32) | self.rng.getrandbits(32)
            self._buf_len += 32
        self._buf_len -= k
        block = self._buf >> self._buf_len
        self._buf &= (1 << self._buf_len) - 1
        self.bits_emitted += k
        return block

    def next_bits(self, k: int) -> list[int]:
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._unbiased:
            block = self._take_unbiased(k)
            return [(block >> (k - 1 - i)) & 1 for i in range(k)]
        out = []
        for _ in range(k):
            bit = 0 if self.rng.random() < self._p0_float() else 1
            out.append(bit)
            self._advance(bit)
        return out

    def next_block(self, k: int) -> int:
        """Next k bits packed MSB-first; same stream as next_bits."""
        if self._unbiased:
            return self._take_unbiased(k)
        block = 0
        for _ in range(k):
            bit = 0 if self.rng.random() < self._p0_float() else 1
            block = block * 2 + bit
            self._advance(bit)
        return block

    def conditional_p0(self, history) -> Fraction:
        """Exact conditional law of the next bit after `history`."""
        return self.strategy.p0(list(history))

    def spec(self) -> dict:
        """Serializable (epsilon, strategy, seed).  A source built from a
        strategy spec is rebuilt, stream and all, by passing these three
        back to SVSource; a strategy object is recorded by name only."""
        return {"epsilon": float(self.eps), "strategy": self._spec,
                "seed": self.seed}


# --- measure bounds and the concentration premise ------------------------


def setting_measure_bounds(eps, mapping: SettingMap, u: tuple[int, int]
                           ) -> tuple[float, float]:
    """Universal envelope on the probability of drawing setting pair u.

    lower: (1/2-eps)^8, valid because u has at least one 8-bit preimage and
    any fixed bit string has at least that probability under any strategy.
    upper: (#preimages) * (1/2+eps)^8.  Only the lower side is used by the
    randomness bound; the upper side scales with the preimage count because
    the bit-to-setting map is not injective.
    """
    epsf = _as_fraction(eps)
    lower = (Fraction(1, 2) - epsf) ** BITS_PER_ROUND
    upper = mapping.pair_preimage_count(u) * (Fraction(1, 2) + epsf) ** BITS_PER_ROUND
    return float(lower), float(min(upper, 1))


def setting_measure_extrema(eps, mapping: SettingMap, u: tuple[int, int]
                            ) -> tuple[Fraction, Fraction]:
    """Exact min and max of P(pair = u) over all strategies, by block DP."""
    epsf = _as_fraction(eps)
    pre = set(mapping.pair_block_preimages(u))
    leaf = lambda v: Fraction(1 if v in pre else 0)
    lo, _ = _tree_extremum(epsf, leaf, minimize=True)
    hi, _ = _tree_extremum(epsf, leaf, minimize=False)
    return lo, hi


def sv_chernoff_oracle(eps, mapping: SettingMap = DEFAULT_MAP, k: int = 1,
                       target: tuple[int, int] = (1, 2)) -> dict:
    """Exact worst-case probability of avoiding `target` in k chosen rounds.

    exact_max = (1 - p_min)^k with p_min the DP-exact least per-round mass
    on the target; zeta_bound = zeta^k, zeta = 1 - (1/2-eps)^8.  The oracle
    asserts exact_max <= zeta_bound (the premise of the exponential
    concentration bound for source-chosen settings).
    """
    if not 1 <= k <= 20:
        raise ValueError("exact mode supports 1 <= k <= 20")
    epsf = _as_fraction(eps)
    p_min, _ = setting_measure_extrema(epsf, mapping, target)
    exact_max = (1 - p_min) ** k
    zeta = 1 - (Fraction(1, 2) - epsf) ** BITS_PER_ROUND
    zeta_bound = zeta ** k
    assert exact_max <= zeta_bound, \
        f"concentration premise violated: {exact_max} > {zeta_bound}"
    return {"exact_max": exact_max, "zeta": zeta, "zeta_bound": zeta_bound,
            "p_min": p_min, "k": k}
