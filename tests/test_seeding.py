from random import Random

import numpy as np
import pytest

from randamp.seeding import Stream
from sv_reference import rng_state

# the ends of the 32-bit and 64-bit ranges, the first key past 32 bits, and
# random 64-bit seeds
SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1] + \
    [Random(2026).getrandbits(64) for _ in range(4)]
# one word; the last, the first past and the one after a 624-word refill of
# the twister's state; and several refills
SIZES = (1, 623, 624, 625, 5000)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_draws_are_randoms_draws(seed):
    """words(m) and uniforms(m), interleaved, are Random's getrandbits(32)
    and random() draws, and leave Random's state.  The words come as the
    uint64 array MT19937 draws them into."""
    stream, ref = Stream(seed), Random(seed)
    for m in SIZES:
        got = stream.words(m)
        assert got.dtype == np.uint64
        assert got.tolist() == [ref.getrandbits(32) for _ in range(m)]
        assert stream.uniforms(m).tolist() == [ref.random() for _ in range(m)]
    assert rng_state(stream) == ref.getstate()


def test_stream_state_before_any_draw():
    assert rng_state(Stream(7)) == Random(7).getstate()
