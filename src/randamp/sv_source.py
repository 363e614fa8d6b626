"""Weak bit sources with bounded conditional bias, and the bits-to-settings
map used to pick measurement settings.

A source with reliability parameter eps emits bits whose conditional
probability of 0, given the entire history, always lies in
[1/2 - eps, 1/2 + eps].  Every strategy, honest or adversarial, is one
`Strategy` table over the 8-bit block tree (exact P(0) per block row and
node, plus the floats the sampler compares against).  The exact law
(`conditional_p0`, checked against the band by exhaustive enumeration), the
bit stream and the vectorized tail check in `bounds` all read that table.

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
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

from .ks_bell import TARGET_SETTINGS

BITS_PER_PARTY = 4
BITS_PER_ROUND = 2 * BITS_PER_PARTY


def _as_fraction(v) -> Fraction:
    """Exact conversion; floats convert by their exact binary value.  A bool
    is not a number here."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, float, str)) and not isinstance(v, bool):
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


# --- strategies ---------------------------------------------------------
#
# A bit's conditional law depends on its history only through the index of
# its 8-bit block, modulo the table's row count, and the node that the
# block's prefix has reached.

HALF = Fraction(1, 2)
NODES = 1 << BITS_PER_ROUND     # heap nodes 1..255 of a block; 0 is unused


@dataclass(frozen=True)
class Strategy:
    """A source strategy as one block-tree table.

    Node 1 is the root of every 8-bit block, and consuming bit b moves from
    a node to 2*node + b.  rows[r][node] is the exact P(0) at `node` of
    every block whose index is r modulo len(rows); floats[r][node] is the
    value a uniform draw is compared against.  Index 0 of a row is unused.
    """

    name: str
    rows: tuple[tuple[Fraction, ...], ...]
    floats: tuple[tuple[float, ...], ...]

    def p0(self, history) -> Fraction:
        """Exact conditional probability of 0 after `history`."""
        depth = len(history) % BITS_PER_ROUND
        node = 1
        for b in history[len(history) - depth:]:
            node = 2 * node + b
        return self.rows[len(history) // BITS_PER_ROUND % len(self.rows)][node]


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
    vals = _leaf_values(leaf_fn)
    policy: dict[int, Fraction] = {}
    for node in range(255, 0, -1):
        v0, v1 = vals[2 * node], vals[2 * node + 1]
        prefer0 = (v0 <= v1) if minimize else (v0 >= v1)
        p0 = HALF + eps if prefer0 else HALF - eps
        policy[node] = p0
        vals[node] = p0 * v0 + (1 - p0) * v1
    return vals[1], policy


def _table(name: str, eps: Fraction, p0_of: Callable[[int, int], Fraction],
           n_rows: int = 1, float_of: Callable[[Fraction], float] = float
           ) -> Strategy:
    """The strategy with P(0) = p0_of(r, node) at `node` of block row r,
    checked against the band |P(0) - 1/2| <= eps."""
    rows = tuple(tuple([HALF] + [p0_of(r, node) for node in range(1, NODES)])
                 for r in range(n_rows))
    as_float = {p: float_of(p) for p in set().union(*rows)}
    if any(abs(p - HALF) > eps for p in as_float):
        raise ValueError("bias magnitude exceeds the source parameter")
    return Strategy(name, rows,
                    tuple(tuple(as_float[p] for p in row) for row in rows))


# built once: a campaign builds a source, and so a strategy, per trial
UNBIASED = _table("unbiased", Fraction(0), lambda r, node: HALF)


def make_strategy(spec, eps) -> Strategy:
    """Strategy from a serializable spec:
    "unbiased";
    ("constant_bias", [b1, b2, ...]): bit j has P(0) = 1/2 + b[j mod len(b)],
        for a cycle of any length;
    ("avoid_target",) or ("avoid_target", (u1, u2)): per block, the least
        mass on the setting pair (default the tomography target
        `ks_bell.TARGET_SETTINGS`);
    ("toward_pattern", p): per block, every bit pushed toward the 8-bit p."""
    eps = _as_fraction(eps)
    kind, *args = spec if isinstance(spec, (tuple, list)) else (spec,)
    if kind in ("unbiased", None):
        return UNBIASED
    if kind == "constant_bias" and args:
        biases = [_as_fraction(b) for b in args[0]]
        if not biases:
            raise ValueError("bias sequence must be non-empty")
        cycle = len(biases)

        def p0_of(r, node):     # bit 8r + depth of the stream
            depth = node.bit_length() - 1
            return HALF + biases[(BITS_PER_ROUND * r + depth) % cycle]
        # 0.5 + float(b) rather than float(1/2 + b): they differ for some
        # exact b (1/3, say), and a stream from a Fraction spec compares
        # against the former
        return _table(kind, eps, p0_of, cycle // math.gcd(cycle, BITS_PER_ROUND),
                      float_of=lambda p: 0.5 + float(p - HALF))
    if kind == "avoid_target":
        target = args[0] if args else TARGET_SETTINGS
        if not (isinstance(target, (tuple, list)) and len(target) == 2
                and all(type(u) is int and 1 <= u <= 9 for u in target)):
            raise ValueError(f"avoid_target needs a setting pair in 1..9,"
                             f" got {target!r}")
        pre = set(DEFAULT_MAP.pair_block_preimages(tuple(target)))
        _, policy = _tree_extremum(
            eps, lambda leaf: Fraction(1 if leaf in pre else 0), minimize=True)
        return _table(kind, eps, lambda r, node: policy[node])
    if kind == "toward_pattern" and args:
        pattern = args[0]
        if not (type(pattern) is int and 0 <= pattern < NODES):
            raise ValueError(f"pattern must be an int in 0..255, got {pattern!r}")

        def p0_of(r, node):     # the pattern's bit at this node's depth
            want = (pattern >> (BITS_PER_ROUND - node.bit_length())) & 1
            return HALF - eps if want else HALF + eps
        return _table(kind, eps, p0_of)
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

    The stream is deterministic given (eps, strategy spec, seed).  The
    unbiased strategy consumes the generator via getrandbits; every other
    strategy draws one uniform per bit and emits 0 when it falls below the
    strategy's `floats` entry at the current block row and node.
    """

    def __init__(self, eps=0, strategy="unbiased", seed: int = 0):
        self.eps = _as_fraction(eps)
        if not 0 <= self.eps < HALF:
            raise ValueError("source parameter must be in [0, 1/2)")
        self.strategy = make_strategy(strategy, self.eps)
        self._spec = _plain_spec(strategy)
        self.seed = seed
        self.rng = Random(seed)
        self.bits_emitted = 0
        # The spec name, not the table, picks the getrandbits path: a
        # constant_bias [0] source has the unbiased law but draws uniforms.
        self._unbiased = self.strategy.name == "unbiased"
        # Unbiased stream: refilled in fixed 32-bit units so the emitted
        # bit sequence does not depend on the caller's chunking.
        self._buf = 0
        self._buf_len = 0
        self._node = 1          # biased stream: node in the current block

    def _take_unbiased(self, k: int) -> int:
        while self._buf_len < k:
            if k - self._buf_len <= 32:     # a round's 8 bits: one word
                self._buf = (self._buf << 32) | self.rng.getrandbits(32)
                self._buf_len += 32
            else:   # join the whole words once: growing the int a word at
                # a time copies it each time, O(k^2) for a long draw
                words, get = (k - self._buf_len) // 32, self.rng.getrandbits
                self._buf = (self._buf << 32 * words) | int.from_bytes(
                    b"".join(get(32).to_bytes(4, "big") for _ in range(words)),
                    "big")
                self._buf_len += 32 * words
        self._buf_len -= k
        block = self._buf >> self._buf_len
        self._buf &= (1 << self._buf_len) - 1
        self.bits_emitted += k
        return block

    def _take_biased(self, k: int) -> list[int]:
        """k bits down the block tree, one uniform each against `floats`."""
        floats, rand = self.strategy.floats, self.rng.random
        block, node = self.bits_emitted // BITS_PER_ROUND, self._node
        row = floats[block % len(floats)]
        bits = []
        for _ in range(k):
            bit = 0 if rand() < row[node] else 1
            bits.append(bit)
            node = 2 * node + bit
            if node >= NODES:
                node = 1
                block += 1
                row = floats[block % len(floats)]
        self._node = node
        self.bits_emitted += k
        return bits

    def next_bits(self, k: int) -> list[int]:
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._unbiased:      # one format: k shifts of a k-bit int are O(k^2)
            return list(map(int, format(self._take_unbiased(k), f"0{k}b")))
        return self._take_biased(k)

    def next_block(self, k: int) -> int:
        """Next k bits packed MSB-first; same stream as next_bits."""
        if self._unbiased:
            return self._take_unbiased(k)
        block = 0
        for bit in self._take_biased(k):
            block = 2 * block + bit
        return block

    def conditional_p0(self, history) -> Fraction:
        """Exact conditional law of the next bit after `history`."""
        return self.strategy.p0(list(history))

    def spec(self) -> dict:
        """Serializable (epsilon, strategy, seed); passing these three back
        to SVSource rebuilds the source, stream and all."""
        return {"epsilon": float(self.eps), "strategy": self._spec,
                "seed": self.seed}


# --- measure bounds and the concentration premise ------------------------


def setting_measure_extrema(eps, u: tuple[int, int]
                            ) -> tuple[Fraction, Fraction]:
    """Exact min and max of P(pair = u) over all strategies, by block DP."""
    epsf = _as_fraction(eps)
    pre = set(DEFAULT_MAP.pair_block_preimages(u))
    leaf = lambda v: Fraction(1 if v in pre else 0)
    lo, _ = _tree_extremum(epsf, leaf, minimize=True)
    hi, _ = _tree_extremum(epsf, leaf, minimize=False)
    return lo, hi


def sv_chernoff_oracle(eps, k: int = 1) -> dict:
    """Exact worst-case probability of avoiding the tomography target
    `ks_bell.TARGET_SETTINGS` in k chosen rounds.

    exact_max = (1 - p_min)^k with p_min the DP-exact least per-round mass
    on the target; zeta_bound = zeta^k, zeta = 1 - (1/2-eps)^8.  The oracle
    asserts exact_max <= zeta_bound (the premise of the exponential
    concentration bound for source-chosen settings).
    """
    if not 1 <= k <= 20:
        raise ValueError("exact mode supports 1 <= k <= 20")
    epsf = _as_fraction(eps)
    p_min, _ = setting_measure_extrema(epsf, TARGET_SETTINGS)
    exact_max = (1 - p_min) ** k
    zeta = 1 - (Fraction(1, 2) - epsf) ** BITS_PER_ROUND
    zeta_bound = zeta ** k
    assert exact_max <= zeta_bound, \
        f"concentration premise violated: {exact_max} > {zeta_bound}"
    return {"exact_max": exact_max, "zeta": zeta, "zeta_bound": zeta_bound,
            "p_min": p_min, "k": k}
