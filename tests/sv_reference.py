"""The scalar references for `SVSource`'s stream and `Device`'s outcomes,
one generator draw at a time.

An unbiased source draws 32-bit getrandbits words and emits each one's bits
MSB-first.  Every other source draws one uniform per bit: at node `node` of
block row r (node 1 the root, bit b moving to 2*node + b), the bit is 0 when
the uniform is below `strategy.floats[r % rows][node]`.  Bits are drawn a
whole word or block at a time, as the engine refills its buffer, so a
reference and an engine source built alike emit the same bits and leave
their generators in the same state.

`walk` and `tree_extremum` are the block samplers' and the block DP's
step-by-step forms: a walk down the tree one depth at a time, and the
extremum in normalized Fractions.

A device's round draws one random() r and bisects it in the cumulative
outcome probabilities of its setting pair, summed left to right from
`Behavior.table` in the behavior the round plays (b1 before tau, b2 from
tau on), with the last entry raised to 1.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from random import Random

import numpy as np

from randamp.sv_source import BITS_PER_ROUND, HALF, NODES, SVSource


class ReferenceSource:
    """The stream of SVSource(eps, strategy, seed), one bit at a time."""

    def __init__(self, eps, strategy="unbiased", seed=0):
        engine = SVSource(eps, strategy, seed)  # the table and the spec only
        self.floats = engine.strategy.floats
        self.unbiased = engine.strategy.name == "unbiased"
        self._spec = engine.spec()
        self.rng = Random(seed)
        self.pending = []       # bits drawn and not yet emitted
        self.bits_emitted = 0

    def _refill(self):
        if self.unbiased:
            word = self.rng.getrandbits(32)
            self.pending += [(word >> (31 - i)) & 1 for i in range(32)]
            return
        block = (self.bits_emitted + len(self.pending)) // BITS_PER_ROUND
        row = self.floats[block % len(self.floats)]
        node = 1
        for _ in range(BITS_PER_ROUND):
            bit = 0 if self.rng.random() < row[node] else 1
            self.pending.append(bit)
            node = 2 * node + bit

    def next_bits(self, k):
        while len(self.pending) < k:
            self._refill()
        bits, self.pending = self.pending[:k], self.pending[k:]
        self.bits_emitted += k
        return bits

    def next_block(self, k):
        block = 0
        for bit in self.next_bits(k):
            block = 2 * block + bit
        return block

    def spec(self):
        return self._spec


class ReferenceDevice:
    """The outcomes of a `Device`, one round at a time: the same behaviors,
    seed, tau and trigger pattern, drawn from its own `Random(seed)`."""

    def __init__(self, engine):
        self.rows1, self.rows2 = (_cumulative_rows(b.table)
                                  for b in (engine._b1, engine._b2))
        self.tau, self.pattern = engine.tau, engine.pattern
        self._spec = engine.spec()
        self.rng = Random(engine.seed)
        self._recent = b""      # the last len(pattern) setting pairs

    def respond(self, k, u):
        pair = (u[0] - 1) * 9 + (u[1] - 1)
        rows = self.rows1 if k < self.tau else self.rows2
        code = bisect_right(rows[pair], self.rng.random())
        if self.pattern and k < self.tau:
            self._recent = (self._recent + bytes((pair,)))[-len(self.pattern):]
            if self._recent == self.pattern:
                self.tau = k + 1
        return (code // 4 + 1, code % 4 + 1)

    def spec(self):
        return self._spec


def _cumulative_rows(table):
    """Per setting pair 0..80, the running sums of its 16 outcome
    probabilities in row-major (x1, x2) order, the last at least 1."""
    rows = [list(accumulate(row)) for row in table.reshape(81, 16).tolist()]
    for row in rows:
        row[-1] = max(row[-1], 1.0)
    return rows


def rng_state(rng):
    """The generator state of a `seeding.Stream` or a `random.Random`, in
    `random.Random.getstate()` form."""
    if isinstance(rng, Random):
        return rng.getstate()
    state = rng._gen.bit_generator.state["state"]
    return 3, (*state["key"].tolist(), int(state["pos"])), None


def stream_state(source):
    """(generator state, bits drawn and not yet emitted, bits emitted) of an
    SVSource or a ReferenceSource."""
    if isinstance(source, ReferenceSource):
        pending = source.pending
    else:
        pending = np.unpackbits(source._buf)[source._taken:].tolist()
    return rng_state(source.rng), pending, source.bits_emitted


def walk(floats, rows, u):
    """The 8-bit values of blocks walked down the block tree one depth at a
    time: block i reads row rows[i] % len(floats) of the table `floats`,
    and its bit at each depth is 0 when u[i, depth] is below the entry at
    its node, else 1."""
    floats = np.asarray(floats)
    start = np.asarray(rows) % len(floats) * NODES  # of each row, in flat
    flat = floats.ravel()
    node = np.ones(len(u), np.intp)
    for depth in range(BITS_PER_ROUND):
        node = 2 * node + (u[:, depth] >= flat[start + node])
    return node - NODES


def tree_extremum(eps, leaf_fn, minimize):
    """`sv_source._tree_extremum` in Fractions: each node is p0 v0 +
    (1 - p0) v1 of its children, p0 = 1/2 + eps toward the favored child
    (bit 0 on a tie)."""
    vals = [None] * NODES + [Fraction(leaf_fn(leaf)) for leaf in range(NODES)]
    policy = {}
    for node in range(NODES - 1, 0, -1):
        v0, v1 = vals[2 * node], vals[2 * node + 1]
        prefer0 = (v0 <= v1) if minimize else (v0 >= v1)
        p0 = HALF + eps if prefer0 else HALF - eps
        policy[node] = p0
        vals[node] = p0 * v0 + (1 - p0) * v1
    return vals[1], policy
