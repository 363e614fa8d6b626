"""Weak bit sources with bounded conditional bias, and the bits-to-settings
map used to pick measurement settings.

A source with reliability parameter eps emits bits whose conditional
probability of 0, given the entire history, always lies in
[1/2 - eps, 1/2 + eps].  Every strategy, honest or adversarial, is one
`Strategy` table over the 8-bit block tree (exact P(0) per block row and
node, plus the floats the sampler compares against).  The exact law
(`conditional_p0`, checked against the band by exhaustive enumeration) reads
that table, and `walk` is the one sampler of it: the biased bit stream and
the tail check in `bounds` both draw whole blocks through it.

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

import numpy as np

from .ks_bell import TARGET_SETTINGS, is_setting_pair, pair_index
from .seeding import uniforms, words

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
    """Per-party surjection from 4-bit values 0..15 onto settings 1..9; per
    8-bit block `map_block`, with inverse image `blocks_of` (and table
    `BLOCK_PAIR` in `ks_bell.pair_index` form)."""

    name: str = "mod9"

    def setting_of(self, v: int) -> int:
        return (v % 9) + 1

    def map_block(self, block: int) -> tuple[int, int]:
        """8-bit packed block (party 1 in the high nibble) -> setting pair."""
        return (self.setting_of(block >> 4), self.setting_of(block & 0xF))

    def blocks_of(self, u) -> tuple[int, ...]:
        """The 8-bit blocks b with map_block(b) == tuple(u); none for a pair
        outside 1..9 (compared as pairs: a pair_index would alias one)."""
        return tuple(b for b in range(256) if self.map_block(b) == tuple(u))


DEFAULT_MAP = SettingMap()

# `ks_bell.pair_index` of each 8-bit block's settings
BLOCK_PAIR = pair_index(DEFAULT_MAP.setting_of(np.arange(256) >> 4),
                        DEFAULT_MAP.setting_of(np.arange(256) & 0xF))


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


def walk(floats, rows, u: np.ndarray) -> np.ndarray:
    """The 8-bit values of blocks walked down the block tree at once.

    Block i reads row rows[i] % len(floats) of the table `floats`, and its
    bit at each depth is 0 when u[i, depth] is below the entry at its node,
    else 1; so a uniform u[i, depth] emits 0 with that entry's probability.
    """
    floats = np.asarray(floats)
    start = np.asarray(rows) % len(floats) * NODES  # of each row, in flat
    flat = floats.ravel()       # one index per step: faster than [row, node]
    node = np.ones(len(u), np.intp)
    for depth in range(BITS_PER_ROUND):
        node = 2 * node + (u[:, depth] >= flat[start + node])
    return node - NODES


# Each strategy kind and the numbers of arguments it takes.
_ARITY = {"unbiased": (0,), "constant_bias": (1,), "avoid_target": (0, 1),
          "toward_pattern": (1,)}

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
    ("toward_pattern", p): per block, every bit pushed toward the 8-bit p.
    A spec with another kind or another number of arguments raises
    ValueError."""
    eps = _as_fraction(eps)
    kind, *args = spec if isinstance(spec, (tuple, list)) and spec else (spec,)
    if not (isinstance(kind, str) and len(args) in _ARITY.get(kind, ())):
        raise ValueError(f"not a strategy kind with the arguments it takes: {spec!r}")
    if kind == "unbiased":
        return UNBIASED
    if kind == "constant_bias":
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
        if not is_setting_pair(target):
            raise ValueError(f"avoid_target needs a setting pair in 1..9,"
                             f" got {target!r}")
        pre = set(DEFAULT_MAP.blocks_of(target))
        _, policy = _tree_extremum(
            eps, lambda leaf: Fraction(1 if leaf in pre else 0), minimize=True)
        return _table(kind, eps, lambda r, node: policy[node])
    pattern = args[0]           # toward_pattern, the last kind
    if not (type(pattern) is int and 0 <= pattern < NODES):
        raise ValueError(f"pattern must be an int in 0..255, got {pattern!r}")

    def p0_of(r, node):         # the pattern's bit at this node's depth
        want = (pattern >> (BITS_PER_ROUND - node.bit_length())) & 1
        return HALF - eps if want else HALF + eps
    return _table(kind, eps, p0_of)


def _plain_spec(spec):
    """JSON form of a valid strategy spec: lists for tuples, exact strings
    for Fractions, and a bare name for a spec without arguments."""
    if isinstance(spec, str):
        return spec
    if len(spec) == 1:
        return spec[0]
    return json.loads(json.dumps(spec, default=str))


class SVSource:
    """Stateful bit stream with bounded conditional bias.

    The stream is deterministic given (eps, strategy spec, seed).  Every
    draw takes bits off the front of one buffer, which is refilled with the
    fewest whole units that cover the draw: 32-bit getrandbits words for
    the unbiased strategy, and for every other strategy 8-bit blocks, each
    bit one uniform walked down the strategy's block tree (`walk`).  So the
    bits do not depend on how a caller splits its draws, and a draw that
    ends inside a unit leaves the rest of that unit in the buffer, already
    drawn from the generator.
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
        self._buf = 0           # the _buf_len bits drawn and not yet taken
        self._buf_len = 0

    def _refill(self, k: int) -> None:
        """Draw the fewest whole units that make the buffer hold k bits."""
        if self._unbiased:
            fresh = words(self.rng, -(-(k - self._buf_len) // 32)).astype(">u4")
        else:
            count = -(-(k - self._buf_len) // BITS_PER_ROUND)
            first = (self.bits_emitted + self._buf_len) // BITS_PER_ROUND
            fresh = walk(self.strategy.floats, first + np.arange(count),
                         uniforms(self.rng, BITS_PER_ROUND * count)
                         .reshape(count, BITS_PER_ROUND)).astype(np.uint8)
        # joined at once: growing the int a unit at a time copies it each
        # time, O(k^2) for a long draw
        self._buf = (self._buf << 8 * fresh.nbytes) | int.from_bytes(
            fresh.tobytes(), "big")
        self._buf_len += 8 * fresh.nbytes

    def _take(self, k: int) -> int:
        """The next k bits of the stream, packed MSB-first."""
        if self._buf_len < k:
            self._refill(k)
        self._buf_len -= k
        block = self._buf >> self._buf_len
        self._buf &= (1 << self._buf_len) - 1
        self.bits_emitted += k
        return block

    def next_bits(self, k: int) -> list[int]:
        if k < 1:
            raise ValueError("k must be >= 1")
        # one format: k shifts of a k-bit int are O(k^2)
        return list(map(int, format(self._take(k), f"0{k}b")))

    def next_block(self, k: int) -> int:
        """Next k bits packed MSB-first; same stream as next_bits."""
        return self._take(k)

    def next_blocks(self, m: int) -> np.ndarray:
        """The next m 8-bit blocks as a uint8 array, the stream of m
        next_block(8) calls."""
        return np.frombuffer(self._take(BITS_PER_ROUND * m).to_bytes(m, "big"),
                             np.uint8)

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
    pre = set(DEFAULT_MAP.blocks_of(u))
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
