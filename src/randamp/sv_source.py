"""Weak bit sources with bounded conditional bias, and the bits-to-settings
map used to pick measurement settings.

A source with reliability parameter eps emits bits whose conditional
probability of 0, given the entire history, always lies in
[1/2 - eps, 1/2 + eps].  Every strategy, honest or adversarial, is one
`Strategy` table over the 8-bit block tree (exact P(0) per block row and
node, plus the floats the sampler compares against).  Its exact rows are
the source's law, which the tests check against the band, and `walk` is
the one sampler of it: the biased bit stream draws its consecutive blocks
through it.  The floats of a depth take at most two distinct values, so
`walk` needs no walk down the tree: it compares a block's 8 uniforms with
each depth's sorted thresholds, packs each compare into one byte, and
reads the block off a table built with the strategy.  The bit at a node
of depth j is bit 7 - j of the byte of its float's rank, so every bit is
the tree walk's.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .ks_bell import TARGET_SETTINGS, is_setting_pair, pair_index
from .seeding import Stream

BITS_PER_PARTY = 4
BITS_PER_ROUND = 2 * BITS_PER_PARTY
# Blocks a biased refill draws and walks at a time, so a long draw holds at
# most 256 KB of uniforms.  A whole CHUNK's blocks at once (16384) ran
# `adversarial` 2% faster in the median of 8 alternating pairs but won only
# 5 of them, and added 0.6 MB of peak RSS; an n = 10^5 avoid_target run
# takes 0-2 minor faults either way once warm.  Smaller pieces cost more
# numpy calls.
REFILL_PIECE = 4096


def _as_fraction(v) -> Fraction:
    """Exact conversion; floats convert by their exact binary value.  A bool
    is not a number here, and a string over a zero denominator raises
    ValueError naming it."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, float, str)) and not isinstance(v, bool):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"{v!r} has a zero denominator") from None
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


# Most distinct thresholds any depth of a one-row table may hold, so a block
# is one lookup in a table of 256**MAX_THRESHOLDS entries (64 KB).  Every
# make_strategy kind needs at most two: avoid_target's 1/2 +- eps.
MAX_THRESHOLDS = 2
# Blocks per row of the sampler's compare: a row of 8 thresholds, one block,
# is too short an inner loop for numpy.
_TILE_BLOCKS = 64


@dataclass(frozen=True)
class Strategy:
    """A source strategy as one block-tree table and its sampling tables.

    Node 1 is the root of every 8-bit block, and consuming bit b moves from
    a node to 2*node + b.  rows[r][node] is the exact P(0) at `node` of
    every block whose index is r modulo len(rows); floats[r][node] is the
    value a uniform draw is compared against.  Index 0 of a row is unused.

    The sampling tables, built once with the strategy, are what `walk`
    reads.  thresholds[k, r, j] is the k-th smallest distinct float of row
    r at depth j (the nodes 2^j .. 2^(j+1) - 1), +inf past the last, for
    k < K <= MAX_THRESHOLDS.  blocks, of 256**K entries, is one table for
    every row: blocks[c] is the 8-bit value of a block whose compare bytes
    are c = B_0 | B_1 << 8 | ..., with B_k the byte whose bit 7 - j says
    the depth-j uniform is >= thresholds[k, r, j] of the block's row r: the
    bit at a node of depth j is bit 7 - j of B_k, k the rank of the node's
    float among its depth's thresholds.  A table of more than one row has
    K = 1, and every row's block table is then the identity.
    """

    name: str
    rows: tuple[tuple[Fraction, ...], ...]
    floats: tuple[tuple[float, ...], ...]
    thresholds: np.ndarray = field(compare=False, repr=False)
    blocks: np.ndarray = field(compare=False, repr=False)


def _tree_extremum(eps: Fraction, leaf_fn: Callable[[int], Fraction],
                   minimize: bool) -> tuple[Fraction, dict[int, Fraction]]:
    """Optimal value and per-node policy for one 8-bit block.

    The objective E[leaf value] is linear in each conditional probability,
    so the optimum sits at a band endpoint: the favored child gets weight
    1/2 + eps.  Ties resolve toward bit 0 for determinism.  Computed in
    integers: with eps = a/q and leaves over a common denominator d, a node
    h levels above the leaves holds its value times d (2q)^h, which is
    (q + 2a) times its favored child's plus (q - 2a) times the other's.
    """
    leaves = [_as_fraction(leaf_fn(leaf)) for leaf in range(NODES)]
    den = math.lcm(*(v.denominator for v in leaves))
    vals = [0] * NODES + [v.numerator * (den // v.denominator) for v in leaves]
    heavy, light = eps.denominator + 2 * eps.numerator, \
        eps.denominator - 2 * eps.numerator
    toward0, toward1 = HALF + eps, HALF - eps
    policy: dict[int, Fraction] = {}
    for node in range(NODES - 1, 0, -1):
        v0, v1 = vals[2 * node], vals[2 * node + 1]
        prefer0 = (v0 <= v1) if minimize else (v0 >= v1)
        policy[node] = toward0 if prefer0 else toward1
        vals[node] = heavy * v0 + light * v1 if prefer0 \
            else light * v0 + heavy * v1
    return (Fraction(vals[1], den * (2 * eps.denominator) ** BITS_PER_ROUND),
            policy)


def _sampling_tables(floats) -> tuple[np.ndarray, np.ndarray]:
    """`Strategy.thresholds` and `Strategy.blocks` of the float rows."""
    depths = [[sorted(set(row[1 << j:2 << j])) for j in range(BITS_PER_ROUND)]
              for row in floats]
    k_max = max(len(level) for row in depths for level in row)
    # A table of more rows (constant_bias, P(0) by depth alone) has one
    # threshold a depth, so every row's block table is the identity.
    limit = MAX_THRESHOLDS if len(floats) == 1 else 1
    if k_max > limit:
        raise ValueError(f"a depth of the table has {k_max} distinct"
                         f" thresholds, more than {limit}")
    thresholds = np.full((k_max, len(floats), BITS_PER_ROUND), np.inf)
    # The walk is built over q_0 q_1 .. q_7, each q_j the k_max compare
    # bits of depth j (bit k: the uniform reached threshold k), q_0 most
    # significant; `order` is the q index of each compare-byte index c,
    # whose byte B_k holds bit k of every q_j.
    bit_of = (np.arange(1 << k_max, dtype=np.uint16)
              >> np.arange(k_max, dtype=np.uint16)[:, None]) & 1
    byte = np.arange(256)
    spread = sum((byte >> i & 1) << k_max * i for i in range(BITS_PER_ROUND))
    order = np.zeros(1, np.intp)
    for k in range(k_max - 1, -1, -1):
        order = (order[:, None] | spread << k).ravel()
    for r, levels in enumerate(depths):
        for j, level in enumerate(levels):
            thresholds[:len(level), r, j] = level
    node = np.ones(1, np.uint16)        # reached by each q_0 .. q_j so far
    for j, level in enumerate(depths[0]):
        rank = np.array([level.index(f) for f in floats[0][1 << j:2 << j]])
        node = (2 * node[:, None] + bit_of[rank[node - (1 << j)]]).ravel()
    blocks = (node - NODES).astype(np.uint8).take(order)
    thresholds.setflags(write=False)
    blocks.setflags(write=False)
    return thresholds, blocks


def _table(name: str, eps: Fraction, p0_of: Callable[[int, int], Fraction],
           n_rows: int = 1, float_of: Callable[[Fraction], float] = float
           ) -> Strategy:
    """The strategy with P(0) = p0_of(r, node) at `node` of block row r,
    checked against the band |P(0) - 1/2| <= eps, with its sampling
    tables; a depth of more than MAX_THRESHOLDS distinct floats, or of
    more than one when n_rows > 1, raises ValueError."""
    rows = tuple(tuple([HALF] + [p0_of(r, node) for node in range(1, NODES)])
                 for r in range(n_rows))
    as_float = {p: float_of(p) for p in set().union(*rows)}
    if any(abs(p - HALF) > eps for p in as_float):
        raise ValueError("bias magnitude exceeds the source parameter")
    floats = tuple(tuple(as_float[p] for p in row) for row in rows)
    return Strategy(name, rows, floats, *_sampling_tables(floats))


def walk(strategy: Strategy, first: int, u: np.ndarray) -> np.ndarray:
    """The 8-bit values of consecutive blocks drawn from their uniforms at
    once.

    u holds one row of 8 uniforms per block, depth 0 first.  Block i is
    block first + i of the stream and reads that index's row of the table
    modulo its row count.  Its bit at each depth is 0 when the uniform is
    below the float at the node the block has reached, else 1, so a uniform
    emits 0 with that float's probability.  This is read off the sampling
    tables: K compares against the depths' sorted thresholds of the
    block's row, each packed to one byte a block, and one lookup in the
    `blocks` table that every row shares.
    """
    thresholds, n_rows = strategy.thresholds, len(strategy.rows)
    # a row of the compare covers whole periods of n_rows blocks
    periods = -(-_TILE_BLOCKS // n_rows)
    width = BITS_PER_ROUND * n_rows * periods
    tiles = np.tile(thresholds[:, (first + np.arange(n_rows)) % n_rows]
                    .reshape(len(thresholds), -1), periods)
    flat = u.reshape(-1)
    cut = len(flat) - len(flat) % width
    hit = np.empty(len(flat), bool)
    index = np.zeros(len(u), np.uint16)
    for k, tile in enumerate(tiles):
        np.greater_equal(flat[:cut].reshape(-1, width), tile,
                         out=hit[:cut].reshape(-1, width))
        np.greater_equal(flat[cut:], tile[:len(flat) - cut], out=hit[cut:])
        index |= np.packbits(hit).astype(np.uint16) << 8 * k
    return strategy.blocks.take(index)


# Each strategy kind and the numbers of arguments it takes.
_ARITY = {"unbiased": (0,), "constant_bias": (1,), "avoid_target": (0, 1),
          "toward_pattern": (1,)}

# built once: a campaign builds a source, and so a strategy, per trial
UNBIASED = _table("unbiased", Fraction(0), lambda r, node: HALF)


def make_strategy(spec, eps) -> Strategy:
    """Strategy from a serializable spec:
    "unbiased";
    ("constant_bias", [b1, b2, ...]): bit j has P(0) = 1/2 + b[j mod len(b)],
        for a cycle (a non-empty list or tuple) of any length;
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
        if not (isinstance(args[0], (list, tuple)) and args[0]):
            raise ValueError("bias cycle must be a non-empty list of numbers,"
                             f" got {args[0]!r}")
        biases = [_as_fraction(b) for b in args[0]]
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
    draw takes bits off the front of one byte buffer, which is refilled with
    the fewest whole units that cover the draw: 32-bit words of the seed's
    `seeding.Stream`, as big-endian bytes, for the unbiased strategy, and
    for every other strategy 8-bit blocks, each bit one uniform compared
    at the block's node in the strategy's table (`walk`), REFILL_PIECE
    blocks at a time.  So the bits do not depend on how a caller splits
    its draws, and a draw that ends inside a unit leaves the rest of that
    unit in the buffer, already drawn from the generator.
    """

    def __init__(self, eps=0, strategy="unbiased", seed: int = 0,
                 table: Strategy | None = None):
        """`table`, if given, is `make_strategy(strategy, eps)` already
        built: a campaign builds it once and hands it to every trial."""
        self.eps = _as_fraction(eps)
        if not 0 <= self.eps < HALF:
            raise ValueError("source parameter must be in [0, 1/2)")
        self.strategy = make_strategy(strategy, self.eps) if table is None \
            else table
        self._spec = _plain_spec(strategy)
        self.seed = seed
        self.rng = Stream(seed)
        self.bits_emitted = 0
        # The spec name, not the table, picks the word path: a
        # constant_bias [0] source has the unbiased law but draws uniforms.
        self._unbiased = self.strategy.name == "unbiased"
        # drawn bytes, of which the first _taken bits are already emitted
        self._buf = np.empty(0, np.uint8)
        self._taken = 0

    def _refill(self, k: int) -> None:
        """Draw the fewest whole units that make the buffer hold k bits."""
        held = 8 * len(self._buf) - self._taken
        if self._unbiased:
            fresh = self.rng.words(-(-(k - held) // 32)).astype(">u4")
        else:
            count = -(-(k - held) // BITS_PER_ROUND)
            first = (self.bits_emitted + held) // BITS_PER_ROUND
            fresh = np.empty(count, np.uint8)
            for i in range(0, count, REFILL_PIECE):
                m = min(REFILL_PIECE, count - i)
                u = self.rng.uniforms(BITS_PER_ROUND * m)
                fresh[i:i + m] = walk(self.strategy, first + i,
                                      u.reshape(m, BITS_PER_ROUND))
        self._buf = np.concatenate([self._buf[self._taken >> 3:],
                                    fresh.view(np.uint8)])
        self._taken &= 7

    def _take(self, k: int) -> tuple[np.ndarray, int]:
        """The bytes that hold the next k bits of the stream, and the count
        of bits of their first byte that precede them."""
        if k < 0:
            raise ValueError(f"cannot draw a negative number of bits, got {k}")
        if 8 * len(self._buf) - self._taken < k:
            self._refill(k)
        start, skip = self._taken >> 3, self._taken & 7
        self._taken += k
        self.bits_emitted += k
        return self._buf[start:(self._taken + 7) >> 3], skip

    def next_bits(self, k: int) -> list[int]:
        if k < 1:
            raise ValueError("k must be >= 1")
        seg, skip = self._take(k)
        return np.unpackbits(seg)[skip:skip + k].tolist()

    def next_block(self, k: int) -> int:
        """Next k bits packed MSB-first; same stream as next_bits."""
        seg, skip = self._take(k)
        tail = 8 * len(seg) - skip - k     # bits of the last byte after them
        return (int.from_bytes(seg.tobytes(), "big") >> tail) & ((1 << k) - 1)

    def next_blocks(self, m: int) -> np.ndarray:
        """The next m 8-bit blocks as a uint8 array, the stream of m
        next_block(8) calls."""
        seg, skip = self._take(BITS_PER_ROUND * m)
        if not skip:
            return seg
        return seg[:-1] << skip | seg[1:] >> (8 - skip)

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
    raises ArithmeticError unless exact_max <= zeta_bound (the premise of
    the exponential concentration bound for source-chosen settings), also
    under `python -O`.
    """
    if not 1 <= k <= 20:
        raise ValueError("exact mode supports 1 <= k <= 20")
    epsf = _as_fraction(eps)
    p_min, _ = setting_measure_extrema(epsf, TARGET_SETTINGS)
    exact_max = (1 - p_min) ** k
    zeta = 1 - (Fraction(1, 2) - epsf) ** BITS_PER_ROUND
    zeta_bound = zeta ** k
    if not exact_max <= zeta_bound:
        raise ArithmeticError(
            f"concentration premise violated: {exact_max} > {zeta_bound}")
    return {"exact_max": exact_max, "zeta": zeta, "zeta_bound": zeta_bound,
            "p_min": p_min, "k": k}
