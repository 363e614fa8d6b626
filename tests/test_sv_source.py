import hashlib
from fractions import Fraction

import numpy as np
import pytest

from randamp.ks_bell import pair_index
from randamp.sv_source import (BLOCK_PAIR, DEFAULT_MAP, SVSource,
                               _tree_extremum, make_strategy,
                               setting_measure_extrema, sv_chernoff_oracle)
from sv_reference import ReferenceSource, stream_state

HALF = Fraction(1, 2)


def all_histories(max_depth):
    stack = [[]]
    while stack:
        h = stack.pop()
        yield h
        if len(h) < max_depth:
            stack.append(h + [0])
            stack.append(h + [1])


@pytest.mark.parametrize("eps,strategy", [
    (Fraction(0), "unbiased"),
    (Fraction(1, 10), ("constant_bias", [Fraction(1, 10), Fraction(-1, 10)])),
    (Fraction(1, 10), ("avoid_target",)),
    (Fraction(3, 10), ("avoid_target",)),
    (Fraction(1, 10), ("toward_pattern", 0b00000001)),
    (Fraction(45, 100), ("toward_pattern", 0b10110001)),
    (Fraction(2, 5), ("constant_bias", [Fraction(1, 3), Fraction(-2, 5), 0.25])),
])
def test_band_exhaustive_depth_12(eps, strategy):
    src = SVSource(eps, strategy, seed=0)
    for h in all_histories(12):
        assert abs(src.conditional_p0(h) - HALF) <= eps


def test_adaptive_depth3_table():
    src = SVSource(Fraction(1, 10), ("avoid_target",), seed=0)
    table = {tuple(h): src.conditional_p0(h) for h in all_histories(3)
             if len(h) == 3}
    assert len(table) == 8
    assert all(abs(p - HALF) <= Fraction(1, 10) for p in table.values())
    assert all(p in (Fraction(2, 5), Fraction(3, 5)) for p in table.values())


def test_unbiased_empirical_bias():
    src = SVSource(0, "unbiased", seed=314)
    n = 1_000_000
    mean = sum(src.next_bits(n)) / n
    assert abs(mean - 0.5) < 3 * 0.5 / n ** 0.5


def test_constant_bias_empirical():
    src = SVSource(Fraction(1, 10), ("constant_bias", [Fraction(1, 10)]), seed=7)
    n = 1_000_000
    zeros = n - sum(src.next_bits(n))
    assert abs(zeros / n - 0.6) < 0.005


def test_strategy_bias_cannot_exceed_source_parameter():
    with pytest.raises(ValueError):
        SVSource(Fraction(1, 20), ("constant_bias", [Fraction(1, 10)]), seed=0)


def test_constant_bias_cycle_of_any_length():
    """Bit j has P(0) = 1/2 + b[j mod len(b)], also across block boundaries
    for a cycle length that does not divide 8."""
    for biases in ([Fraction(1, 10)], [Fraction(1, 10), -0.05],
                   [Fraction(1, 3), Fraction(-1, 10), 0.25],
                   [0.1, -0.2, 0.3, Fraction(-1, 7), 0.0]):
        src = SVSource(Fraction(2, 5), ("constant_bias", biases), seed=0)
        for j in range(48):
            assert src.conditional_p0([j % 2] * j) == \
                HALF + Fraction(biases[j % len(biases)])


def test_avoid_target_needs_a_setting_pair():
    # [0, 12] has no 8-bit preimages: it would push every bit toward 0
    for target in ([0, 12], (1, 10), (1,), (1, 2, 3), (1.0, 2), (True, 2),
                   "12", 5):
        with pytest.raises(ValueError):
            make_strategy(("avoid_target", target), Fraction(1, 20))
    assert make_strategy(("avoid_target", [9, 9]), Fraction(1, 20)).name == \
        "avoid_target"


def test_source_takes_a_spec_only():
    with pytest.raises(ValueError):
        SVSource(0, make_strategy("unbiased", 0), seed=0)


# (eps, spec, sha256 of the first 4020 bits), frozen from the per-kind
# strategy classes that preceded the single block-tree table
STREAM_DIGESTS = [
    (0, "unbiased",
     "1cf3abc548f3b1897fca067b151b2f5cf0472a5a6f33d4483225cf9b639fd86c"),
    (0.05, ("constant_bias", [0.05]),
     "08797653ae7448af2d90c6cfc5bddb715f18c98317a0dc792ae08177a474a793"),
    (0.05, ("constant_bias", [0.05, -0.05]),
     "4ee745ba3a3ccbcb8db7e4392b7c32be758de628865bfc487699eaef0e53edcc"),
    (Fraction(2, 5), ("constant_bias", [Fraction(1, 3), Fraction(-1, 10), 0.25]),
     "84276a9466c6d501a9118abc98c5c151e77eb78273816209a005425fd92fbff7"),
    (0.3, ("constant_bias", [0.1, -0.2, 0.3, Fraction(-1, 7), 0.0]),
     "4bfd39e9b94b0610b8ef58aaf2f7fdb9b220e976ccf707961f258029c5b6ab78"),
    (Fraction(1, 10), ("avoid_target",),
     "59a47b65e6178c5e89a2779ea8f86af9870b8054cda3a3b06affa2da0db13ffc"),
    (0.05, ("avoid_target", (3, 4)),
     "4179789f6e8c3975eff6b244894e9cfd2fb31a780e95b260b706a3ad2cd14d91"),
    (0.05, ("toward_pattern", 0b10110001),
     "e09ab7b9500ce08488e1a37ebff34d2be908fa0eb4bcc8190f97bf4e501bc960"),
]


# next_bits and next_block calls of mixed lengths, so draws start and end
# inside blocks and words
MIXED_DRAWS = (("bits", 3), ("block", 8), ("bits", 13), ("block", 5),
               ("block", 8), ("bits", 1), ("block", 21), ("bits", 8))


def _mixed_stream(src, repeats=60):
    out = []
    for _ in range(repeats):
        for how, k in MIXED_DRAWS:
            if how == "bits":
                out += src.next_bits(k)
            else:
                blk = src.next_block(k)
                out += [(blk >> (k - 1 - i)) & 1 for i in range(k)]
    return out


@pytest.mark.parametrize("eps, spec, digest", STREAM_DIGESTS)
def test_stream_digest(eps, spec, digest):
    """Regression anchor for every strategy kind."""
    out = _mixed_stream(SVSource(eps, spec, seed=2026))
    assert hashlib.sha256(bytes(out)).hexdigest() == digest


@pytest.mark.parametrize("eps, spec", [row[:2] for row in STREAM_DIGESTS])
def test_stream_is_the_reference_stream(eps, spec):
    """The engine's bits and state after mixed draws are the scalar
    reference's, draw by draw."""
    src, ref = SVSource(eps, spec, seed=2026), ReferenceSource(eps, spec, 2026)
    for _ in range(6):
        assert _mixed_stream(src, 1) == _mixed_stream(ref, 1)
        assert stream_state(src) == stream_state(ref)


def test_stream_is_chunking_invariant():
    for eps, spec in [(0, "unbiased"), (Fraction(1, 10), ("avoid_target",))]:
        a = SVSource(eps, spec, seed=5).next_bits(64)
        s = SVSource(eps, spec, seed=5)
        b = s.next_bits(3) + s.next_bits(29)
        blk = s.next_block(32)
        b += [(blk >> (31 - i)) & 1 for i in range(32)]
        assert a == b


@pytest.mark.parametrize("eps, spec", [
    (0, "unbiased"),
    (0.05, ("avoid_target",)),
    (0.05, ("constant_bias", [0.05, -0.02, 0.03])),
])
def test_bulk_blocks_are_the_block_stream(eps, spec):
    """next_blocks(m) is m next_block(8) calls, generator state included,
    from stream position 0, after whole blocks and after a draw that ends
    inside a block."""
    bulk, single = SVSource(eps, spec, seed=3), SVSource(eps, spec, seed=3)
    for m in (1, 5, 1000, 1):
        if m == 5:
            assert bulk.next_bits(5) == single.next_bits(5)
        assert bulk.next_blocks(m).tolist() == \
            [single.next_block(8) for _ in range(m)]
    assert stream_state(bulk) == stream_state(single)


def test_bulk_blocks_of_a_biased_source_start_inside_a_block():
    """After next_bits(5), next_blocks reads the block's last 3 bits first,
    as the scalar reference does."""
    src = SVSource(0.05, ("avoid_target",), seed=3)
    ref = ReferenceSource(0.05, ("avoid_target",), seed=3)
    assert src.next_bits(5) == ref.next_bits(5)
    assert src.next_blocks(300).tolist() == \
        [ref.next_block(8) for _ in range(300)]
    assert stream_state(src) == stream_state(ref)


def test_map_examples():
    assert DEFAULT_MAP.map_block(0b00000001) == (1, 2)
    assert DEFAULT_MAP.map_block(0xFF) == (7, 7)


def test_block_pair_table_is_the_block_map():
    assert BLOCK_PAIR.tolist() == \
        [pair_index(*DEFAULT_MAP.map_block(b)) for b in range(256)]


def test_map_preimage_structure():
    counts = [sum(DEFAULT_MAP.setting_of(v) == s for v in range(16))
              for s in range(1, 10)]
    assert counts == [2, 2, 2, 2, 2, 2, 2, 1, 1]
    assert {DEFAULT_MAP.setting_of(v) for v in range(16)} == set(range(1, 10))
    nu = sum(1 for v in range(256) if DEFAULT_MAP.map_block(v) == (1, 2)) / 256
    assert nu == 1 / 64
    assert DEFAULT_MAP.blocks_of([1, 2]) == (0x01, 0x0A, 0x91, 0x9A)
    # no block maps to a pair outside 1..9, though pair_index(0, 12)
    # equals pair_index(1, 3)
    assert DEFAULT_MAP.blocks_of((0, 12)) == ()
    assert sorted(b for u1 in range(1, 10) for u2 in range(1, 10)
                  for b in DEFAULT_MAP.blocks_of((u1, u2))) == list(range(256))


def test_measure_bounds_and_extrema():
    exact_lo, exact_hi = setting_measure_extrema(Fraction(0), (1, 2))
    assert exact_lo == exact_hi == Fraction(1, 64)


def test_dp_min_dominates_lower_bound_all_settings():
    eps = Fraction(1, 10)
    lower = (HALF - eps) ** 8
    for u1 in range(1, 10):
        for u2 in range(1, 10):
            lo, hi = setting_measure_extrema(eps, (u1, u2))
            assert lower <= lo <= hi
            assert hi <= len(DEFAULT_MAP.blocks_of((u1, u2))) * (HALF + eps) ** 8


def test_avoid_strategy_attains_dp_minimum():
    """Sampling with the avoid strategy hits the target at the DP-min rate."""
    eps = Fraction(1, 10)
    p_min, _ = setting_measure_extrema(eps, (1, 2))
    src = SVSource(eps, ("avoid_target",), seed=11)
    n = 200_000
    hits = np.count_nonzero(BLOCK_PAIR[src.next_blocks(n)] == pair_index(1, 2))
    p = float(p_min)
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(hits / n - p) < 5 * sigma


def test_chernoff_oracle_examples():
    got = sv_chernoff_oracle(0, 1)
    assert got["exact_max"] == Fraction(63, 64)
    assert got["zeta"] == Fraction(255, 256)
    assert sv_chernoff_oracle(0, 2)["exact_max"] == Fraction(63, 64) ** 2
    got01 = sv_chernoff_oracle(Fraction(1, 10), 1)
    assert got01["exact_max"] <= 1 - Fraction(2, 5) ** 8
    with pytest.raises(ValueError):
        sv_chernoff_oracle(0, 25)


def test_chernoff_oracle_grid_small():
    for eps in (Fraction(0), Fraction(1, 10), Fraction(3, 10)):
        for k in (1, 3, 7):
            got = sv_chernoff_oracle(eps, k)
            assert got["exact_max"] <= got["zeta_bound"]


def test_two_round_literal_dp_matches_multiplicative_composition():
    """Exhaustive 16-bit tree: max P(avoid target in both of 2 rounds)
    equals (1 - p_min)^2."""
    eps = Fraction(1, 10)
    pre = set(DEFAULT_MAP.blocks_of((1, 2)))
    p_min, _ = setting_measure_extrema(eps, (1, 2))

    depth = 16
    n_leaves = 1 << depth
    vals = [Fraction(0)] * (2 * n_leaves)
    for leaf in range(n_leaves):
        b1, b2 = leaf >> 8, leaf & 0xFF
        vals[n_leaves + leaf] = Fraction(1 if (b1 not in pre and b2 not in pre) else 0)
    for node in range(n_leaves - 1, 0, -1):
        v0, v1 = vals[2 * node], vals[2 * node + 1]
        p0 = HALF + eps if v0 >= v1 else HALF - eps
        vals[node] = p0 * v0 + (1 - p0) * v1
    assert vals[1] == (1 - p_min) ** 2


def test_tree_extremum_toy():
    # one-bit-relevant leaf function: mass on leaves with top bit 0
    val, _ = _tree_extremum(Fraction(1, 10),
                            lambda leaf: Fraction(1 if leaf < 128 else 0),
                            minimize=True)
    assert val == Fraction(2, 5)
    val, _ = _tree_extremum(Fraction(1, 10),
                            lambda leaf: Fraction(1 if leaf < 128 else 0),
                            minimize=False)
    assert val == Fraction(3, 5)


def test_source_spec_roundtrip():
    src = SVSource(Fraction(1, 10), ("avoid_target",), seed=9)
    spec = src.spec()
    assert spec == {"epsilon": 0.1, "strategy": "avoid_target", "seed": 9}
