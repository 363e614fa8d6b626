"""Deterministic seed derivation for parallel trials.

Campaign trial t gets seed ``splitmix64(master + t * GOLDEN)``; device and
source generators inside one trial are derived with distinct stream tags.
The mix is the standard splitmix64 finalizer, a 64-bit avalanche permutation,
so neighbouring trial indices yield statistically unrelated generator seeds
while remaining reproducible across platforms.

`words` and `uniforms` take a batch of draws from a `random.Random` at once,
with the values and the generator state that as many single draws give;
`uniforms_of` turns drawn words into the uniforms they make.
"""

from __future__ import annotations

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


def words(rng: Random, m: int) -> np.ndarray:
    """The next m rng.getrandbits(32) draws, in draw order.  getrandbits(32 m)
    is those m words, the first least significant."""
    return np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")


def uniforms(rng: Random, m: int) -> np.ndarray:
    """The next m rng.random() draws, in draw order."""
    return uniforms_of(words(rng, 2 * m))


def uniforms_of(w: np.ndarray) -> np.ndarray:
    """The random() values of the word pairs a, b = w[0::2], w[1::2]:
    random() joins them as ((a >> 5) 2^26 + (b >> 6)) / 2^53, exactly in
    float64."""
    return ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) / 9007199254740992.0
