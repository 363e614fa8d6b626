"""The scalar reference for `SVSource`'s stream, one generator draw at a time.

An unbiased source draws 32-bit getrandbits words and emits each one's bits
MSB-first.  Every other source draws one uniform per bit: at node `node` of
block row r (node 1 the root, bit b moving to 2*node + b), the bit is 0 when
the uniform is below `strategy.floats[r % rows][node]`.  Bits are drawn a
whole word or block at a time, as the engine refills its buffer, so a
reference and an engine source built alike emit the same bits and leave
their generators in the same state.
"""

from random import Random

from randamp.sv_source import BITS_PER_ROUND, SVSource


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


def stream_state(source):
    """(generator state, bits drawn and not yet emitted, bits emitted) of an
    SVSource or a ReferenceSource."""
    if isinstance(source, ReferenceSource):
        pending = source.pending
    else:
        pending = [(source._buf >> (source._buf_len - 1 - i)) & 1
                   for i in range(source._buf_len)]
    return source.rng.getstate(), pending, source.bits_emitted
