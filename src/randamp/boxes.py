"""Two-party conditional-probability behaviors and the stateful device.

A Behavior is a float table P(x1,x2|u1,u2) over 4x4 outcomes and 9x9
settings, nonnegative, normalized per setting pair, and no-signaling (each
party's marginal is independent of the other party's setting).

The ideal box for the 18-vector model has entries
``<v_a|v_b>^2 / (4 |v_a|^2 |v_b|^2)`` where v_a, v_b are the projector
vectors selected by the settings and outcomes.  All denominators are powers
of two not exceeding 64, so the float quotient of the integer Gram ratios
is exact and the 504 indicator entries are exactly zero.

A Device answers one round at a time with one model for every kind: it
plays behavior b1 until round tau and b2 from then on (iid devices never
reach tau).  Its memory holds only the settings seen so far and private
randomness, and tau depends on past settings only, so the distribution of
round k's outcome never depends on settings of later rounds (time-ordered
no-signaling holds by construction).  Devices and bit sources share no
state: a device is built, with its own generator, before any source bits
are drawn.

A round's outcome is inversion sampling on the integer
k = (a >> 5) 2^26 + (b >> 6) of its two 32-bit words a, b (random() is
k / 2^53): its code 4 (x1-1) + (x2-1) is the count of the pair's integer
thresholds t = ceil(cum 2^53) <= k, cum the pair's cumulative
probabilities (`Behavior.thresholds`).  The top 8 bits of k are a >> 24.
They cut the range of k into 256 buckets, and on each the code is fixed
unless a threshold lies strictly inside it (the guide table of Chen and
Asau 1974; Devroye 1986, III.2.4).  `Behavior.block_cells` spreads these
codes over the 8-bit source blocks that choose the settings: its entry at
block * 256 + bucket is the round's cell (`ks_bell.var_index`),
16 pair + code, with the pair the block's (`sv_source.BLOCK_PAIR`), or -1
for a bucket a threshold splits; so every block of one pair reads the same
row.  `Device.respond_chunk` reads each round's cell off it from the
round's block and first word alone, and only rounds in a split bucket form
k and count the pair's thresholds <= k.  That is the one sampler:
`Device.respond` is it on a single round.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ks_bell import (N_CELLS, N_OUTCOMES, N_SETTINGS, KSModel,
                      gram_table, is_setting_pair, pair_index)
from .seeding import Stream
from .sv_source import BLOCK_PAIR


@dataclass(frozen=True)
class Behavior:
    """Conditional probability table, indexed [u1-1, u2-1, x1-1, x2-1].

    `table` is float64; `meta` is what a transcript header records of it.
    `thresholds` and `block_cells` are the sampling tables a `Device`
    reads, built from `table` on first use and kept on the behavior.
    """

    table: np.ndarray
    meta: dict

    @cached_property
    def thresholds(self) -> np.ndarray:
        """(81, 16) int64 in 0..2^53: row `ks_bell.pair_index(u1, u2)`
        holds t = ceil(cum 2^53) for the cumulative outcome probabilities
        cum of that setting pair in row-major (x1 outer, x2 inner) order,
        the last set to 2^53 so that rounding never leaves a draw past it.
        A draw k has code the count of t <= k; the order is fixed so
        transcripts are reproducible bit for bit.  Built once per
        behavior."""
        cums = np.add.accumulate(
            self.table.reshape(N_SETTINGS ** 2, N_OUTCOMES ** 2), axis=1)
        t = np.clip(np.ceil(cums * 2.0 ** 53), 0, 2.0 ** 53).astype(np.int64)
        t[:, -1] = 2 ** 53
        t.flags.writeable = False   # shared by every device of the behavior
        return t

    @cached_property
    def block_cells(self) -> np.ndarray:
        """(65536,) int16: entry block * 256 + h is 16 p + the code of every
        draw k in bucket h, [h 2^45, (h+1) 2^45), in setting pair
        p = BLOCK_PAIR[block]; or -1 where a threshold of p lies strictly
        inside that bucket.  A t on a bucket's lower edge is counted
        throughout it.  128 KB, built once per behavior."""
        t = self.thresholds
        first = -(-t >> 45)             # the first bucket that counts t, 0..256
        rows = np.arange(N_SETTINGS ** 2)[:, None]
        counts = np.bincount((rows * 257 + first).ravel(),
                             minlength=N_SETTINGS ** 2 * 257).reshape(-1, 257)
        cells = np.add.accumulate(counts[:, :256], axis=1, dtype=np.int16)
        cells += np.arange(0, N_CELLS, N_OUTCOMES ** 2, dtype=np.int16)[:, None]
        inside = t & (2 ** 45 - 1) != 0
        cells[np.nonzero(inside)[0], (t >> 45)[inside]] = -1
        cells = cells.take(BLOCK_PAIR, axis=0).ravel()
        cells.flags.writeable = False
        return cells


def ideal_quantum_box(model: KSModel) -> Behavior:
    """The maximally violating box.

    table(u1,u2,x1,x2) = <v_a|v_b>^2 / (4 |v_a|^2 |v_b|^2) with v_a, v_b
    the vectors of the cell (`ks_bell.gram_table`), divided on integer
    arrays; exact, as every denominator is a power of two at most 64.
    """
    g = gram_table(model)
    norm_sq = np.einsum("aaxx->ax", g)              # |v|^2 at (setting, slot)
    den = 4 * norm_sq[:, None, :, None] * norm_sq[None, :, None, :]
    return Behavior(table=g ** 2 / den, meta={"kind": "ideal"})


def uniform_box() -> Behavior:
    table = np.full((N_SETTINGS, N_SETTINGS, N_OUTCOMES, N_OUTCOMES), 1 / 16)
    return Behavior(table=table, meta={"kind": "uniform"})


def depolarize(b: Behavior, eta: float) -> Behavior:
    """Mix with white noise: (1-eta) * b + eta * uniform(1/16)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"noise weight must be in [0,1], got {eta}")
    return Behavior(table=(1.0 - eta) * b.table + eta / 16.0,
                    meta={"kind": "depolarized", "eta": eta,
                          "base": b.meta.get("kind")})


class Device:
    """Plays behavior b1 until round tau, then b2 from round tau on.

    `respond_chunk(k, blocks)` answers rounds k, k+1, ... at once, each
    from the 8-bit source block that chose its settings; it is the one
    sampler, and each round draws the two words of one random() from
    `rng`.  respond(k, u) -> (x1, x2) is `respond_chunk` on the one round
    k, on the first block of `DEFAULT_MAP.blocks_of(u)`, after a check that
    u is two ints in 1..9 (else ValueError, before any draw).  k is the
    0-based round index, and calls must be made in round order.  tau never
    changes the draw, only the behavior it is read from:
        iid              tau is never reached (b1 throughout)
        switch_after     tau = k
        history_trigger  tau = the round after `pattern` first completes as a
                         contiguous block of past settings
    `pattern` and the memory `_recent` (the last len(pattern) rounds) are
    bytes of setting pairs' `ks_bell.pair_index`.  A device holds its
    behaviors, not tables: every device of one behavior shares that
    behavior's tables.  Build devices with `make_iid_device` or
    `make_adversarial_device`.
    """

    def __init__(self, spec: dict, b1: Behavior, b2: Behavior, seed: int,
                 tau: float = math.inf, pattern: bytes = b""):
        self._spec = spec
        self.seed = seed
        self.rng = Stream(seed)
        self.tau = tau
        self.pattern = pattern
        self._recent = b""
        self._b1, self._b2 = b1, b2

    def respond(self, k: int, u: tuple[int, int]) -> tuple[int, int]:
        if not is_setting_pair(u):
            raise ValueError(f"setting pair needs two ints in 1..9, got {u!r}")
        block = np.argmax(BLOCK_PAIR == pair_index(*u))   # the first of u's
        c = int(self.respond_chunk(k, np.array([block], np.uint8))[0]) % 16
        return (c // 4 + 1, c % 4 + 1)

    def respond_chunk(self, k: int, blocks: np.ndarray) -> np.ndarray:
        """The int16 cells (`ks_bell.var_index`) of rounds k, k+1, ...
        whose settings were chosen by the 8-bit source blocks `blocks`, a
        uint8 array.  Each round draws the two words a, b of one random(),
        and its cell is the `Behavior.block_cells` entry of its block, in
        the behavior the round plays, at bucket a >> 24 (the top 8 bits of
        the draw's 53-bit integer k).  Where that entry is -1 a threshold
        splits the bucket, and the cell is 16 pair + the count of the
        pair's `thresholds` <= k.  So a run answered in chunks of any size
        draws the same words and gives the same cells, tau and memory."""
        w = self.rng.words(2 * len(blocks))
        if self.pattern and self.tau == math.inf:
            self._watch(k, blocks)
        split = int(min(max(self.tau - k, 0), len(blocks)))  # rounds before tau
        if not 0 < split < len(blocks):     # one behavior: one pass
            return _cells(self._b1 if split else self._b2, blocks, w)
        return np.concatenate([_cells(self._b1, blocks[:split], w[:2 * split]),
                               _cells(self._b2, blocks[split:], w[2 * split:])])

    def _watch(self, k: int, blocks: np.ndarray) -> None:
        """Set tau if `pattern` first completes in rounds k, k+1, ..., and
        keep the settings of the last len(pattern) rounds up to then."""
        size, carried = len(self.pattern), len(self._recent)
        seq = self._recent + BLOCK_PAIR.take(blocks).astype(np.uint8).tobytes()
        start = seq.find(self.pattern)  # fixed length: first start, first end
        if start >= 0:
            self.tau = k + start + size - carried
            seq = seq[:start + size]
        self._recent = seq[-size:]

    def spec(self) -> dict:
        return dict(self._spec, seed=self.seed)


# The byte of a uint64 word that holds its bits 24..31: a >> 24 of a 32-bit
# draw a.
_TOP_BYTE = 3 if sys.byteorder == "little" else 4


def _cells(behavior: Behavior, blocks: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The cells of rounds of source blocks `blocks` in `behavior` whose
    `random()` draws have first words w[0::2] and second words w[1::2],
    `Stream.words`' uint64 array: one `block_cells` read at the uint16
    index block * 256 + (a >> 24), else the count of thresholds <= k
    (`Device.respond_chunk`)."""
    index = np.left_shift(blocks, 8, dtype=np.uint16)
    index |= w.view(np.uint8)[_TOP_BYTE::16]
    cells = behavior.block_cells.take(index)
    (split,) = np.nonzero(cells < 0)
    if len(split):
        pairs = BLOCK_PAIR.take(blocks[split])
        a, b = w.reshape(-1, 2)[split].T.astype(np.int64)
        k = (a >> 5) << 26 | b >> 6
        cells[split] = N_OUTCOMES ** 2 * pairs + \
            (behavior.thresholds[pairs] <= k[:, None]).sum(axis=1)
    return cells


def make_iid_device(behavior: Behavior, seed: int = 0) -> Device:
    return Device({"kind": "iid", "behavior": behavior.meta},
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
