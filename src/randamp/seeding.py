"""Deterministic seed derivation for parallel trials, and the generator
stream every protocol draw comes from.

Campaign trial t gets seed ``splitmix64(master + t * GOLDEN)``; device and
source generators inside one trial are derived with distinct stream tags.
The mix is the standard splitmix64 finalizer, a 64-bit avalanche permutation,
so neighbouring trial indices yield statistically unrelated generator seeds
while remaining reproducible across platforms.

A `Stream(seed)` is the Mersenne Twister stream of ``random.Random(seed)``,
drawn through numpy's `MT19937`, which is the same generator (Matsumoto and
Nishimura 1998): keyed with Random's 624 key words and position, it yields
the same 32-bit words at under half the cost a word, and the same random()
doubles, a block at a time, at a third the cost.
"""

from __future__ import annotations

from functools import cache, cached_property
from random import Random

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(v: int) -> int:
    v = (v + _GOLDEN) & _MASK
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK
    return (v ^ (v >> 31)) & _MASK


def derive_seed(master: int, index: int, tag: int = 0) -> int:
    """Seed for sub-stream `index` (trial) and `tag` (role within a trial)."""
    return splitmix64((master & _MASK) + index * _GOLDEN + tag * 0x1D8E4E27C47D124F)


@cache
def _zero_key():
    """A seed sequence of zero words.  An MT19937 built on it skips
    SeedSequence's hashing (about 0.1 ms); its key is set right after."""
    from numpy.random.bit_generator import ISeedSequence

    class ZeroKey(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return [0] * n_words
    return ZeroKey()


class Stream:
    """The draws of ``random.Random(seed)``: `words(m)` are its next m
    getrandbits(32) values and `uniforms(m)` its next m random() values,
    and the MT19937 state after them is Random's.  numpy's MT19937 makes a
    double from two words as random() does, ((a >> 5) 2^26 + (b >> 6)) / 2^53.

    The generator is built on the first draw, with `numpy.random` imported
    there, so a stream that never draws costs an object and no import.
    """

    def __init__(self, seed: int):
        self.seed = seed

    @cached_property
    def _gen(self):
        from numpy.random import MT19937, Generator
        *key, pos = Random(self.seed).getstate()[1]
        mt = MT19937(_zero_key())
        mt.state = {"bit_generator": "MT19937",
                    "state": {"key": key, "pos": pos}}
        return Generator(mt)

    def words(self, m: int) -> np.ndarray:
        """The next m 32-bit words, in draw order, as the uint64 array
        that MT19937 draws them into (each value < 2^32): a caller reads
        what it needs of them, so the words are not copied to uint32."""
        return self._gen.bit_generator.random_raw(m)

    def uniforms(self, m: int) -> np.ndarray:
        """The next m random() values, in draw order."""
        return self._gen.random(m)
