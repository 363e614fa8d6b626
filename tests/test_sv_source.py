import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randamp
from randamp.ks_bell import pair_index
from randamp.sv_source import (BLOCK_PAIR, DEFAULT_MAP, MAX_THRESHOLDS,
                               REFILL_PIECE, SVSource, _table, _tree_extremum,
                               make_strategy, setting_measure_extrema,
                               sv_chernoff_oracle, walk)
from checks import exact_p0
import sv_reference
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
        assert abs(exact_p0(src, h) - HALF) <= eps


def test_adaptive_depth3_table():
    src = SVSource(Fraction(1, 10), ("avoid_target",), seed=0)
    table = {tuple(h): exact_p0(src, h) for h in all_histories(3)
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
            assert exact_p0(src, [j % 2] * j) == \
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


def test_biased_draw_across_refill_pieces_is_the_reference_stream():
    """A draw of more than two refill pieces, starting inside a block, is
    the scalar reference's bit for bit, generator state included.  The
    strategy's three block rows do not divide REFILL_PIECE, so each piece
    starts on another row."""
    spec = ("constant_bias", [0.05, -0.02, 0.03])
    src, ref = SVSource(0.05, spec, seed=11), ReferenceSource(0.05, spec, 11)
    assert len(src.strategy.rows) == 3 and REFILL_PIECE % 3
    m = 2 * REFILL_PIECE + 7
    assert src.next_bits(5) == ref.next_bits(5)
    assert src.next_bits(8 * m) == ref.next_bits(8 * m)
    assert stream_state(src) == stream_state(ref)


def _draw(source, how, k):
    """One draw: next_bits(k) as bits, next_block(k) as an int, or
    next_blocks(k) as a list of blocks; a ReferenceSource's blocks are its
    next 8k bits packed, the stream of k next_block(8) calls."""
    if how == "bits":
        return source.next_bits(k)
    if how == "block":
        return source.next_block(k)
    if isinstance(source, ReferenceSource):
        return np.packbits(source.next_bits(8 * k)).tolist() if k else []
    return source.next_blocks(k).tolist()


_DRAWS = st.lists(st.one_of(
    st.tuples(st.just("bits"), st.integers(1, 40)),
    st.tuples(st.sampled_from(("block", "blocks")), st.integers(0, 40)),
    # longer than a biased refill piece, so a refill walks two pieces
    st.just(("bits", 8 * REFILL_PIECE + 3)),
    st.just(("blocks", REFILL_PIECE + 3)),
    st.tuples(st.sampled_from(("bits", "block", "blocks")), st.just(-3))),
    max_size=8)


@pytest.mark.parametrize("eps, spec", [row[:2] for row in STREAM_DIGESTS])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(offset=st.integers(0, 7), draws=_DRAWS)
def test_interleaved_draws_are_the_reference_stream(eps, spec, offset, draws):
    """Any interleaving of next_bits, next_block and next_blocks, from any
    bit offset in a block, is the scalar reference's, draw by draw, with the
    same generator state and pending bits after each; a negative size
    raises ValueError and changes nothing."""
    src, ref = SVSource(eps, spec, seed=41), ReferenceSource(eps, spec, 41)
    for how, k in [("bits", offset)] * (offset > 0) + draws:
        if k < 0:
            before = stream_state(src)
            with pytest.raises(ValueError):
                _draw(src, how, k)
            assert stream_state(src) == before
            continue
        assert _draw(src, how, k) == _draw(ref, how, k)
        assert stream_state(src) == stream_state(ref)


@pytest.mark.parametrize("offset", range(8))
def test_blocks_from_every_bit_offset(offset):
    """next_blocks after `offset` bits, from the unbiased word path and the
    biased block path, is the scalar reference's."""
    for eps, spec in [(0, "unbiased"), (0.05, ("avoid_target",))]:
        src, ref = SVSource(eps, spec, seed=8), ReferenceSource(eps, spec, 8)
        if offset:
            assert src.next_bits(offset) == ref.next_bits(offset)
        for m in (0, 1, 6, 33):
            assert _draw(src, "blocks", m) == _draw(ref, "blocks", m)
            assert stream_state(src) == stream_state(ref)


def test_negative_draw_sizes_raise_before_any_change():
    src = SVSource(0, "unbiased", seed=3)
    src.next_bits(5)
    before = stream_state(src)
    for draw, k in ((src.next_block, -3), (src.next_blocks, -1),
                    (src.next_bits, -2)):
        with pytest.raises(ValueError):
            draw(k)
        assert stream_state(src) == before and src.bits_emitted == 5
    assert src.next_block(0) == 0
    assert src.next_blocks(0).tolist() == []
    assert stream_state(src) == before


# eps: 0, 1/20 and the float 0.05 (whose exact value is not 1/20), 1/5,
# and random rationals below 1/2
_EPS = st.sampled_from([Fraction(0), Fraction(1, 20), 0.05, Fraction(1, 5)]) \
    | st.fractions(0, Fraction(49, 100), max_denominator=1000)


@st.composite
def _strategies(draw):
    """A make_strategy table of any kind at any eps: constant_bias cycles
    of 1-5 entries (several block rows unless the length divides 8),
    avoid_target at any setting pair, toward_pattern at any pattern."""
    eps = draw(_EPS)
    kind = draw(st.sampled_from(["unbiased", "constant_bias", "avoid_target",
                                 "toward_pattern"]))
    if kind == "constant_bias":
        bias = st.sampled_from([eps, -eps, 0.0]) | st.fractions(
            -1, 1, max_denominator=12).map(lambda t: t * Fraction(eps))
        spec = (kind, draw(st.lists(bias, min_size=1, max_size=5)))
    elif kind == "avoid_target":
        spec = (kind, draw(st.tuples(st.integers(1, 9), st.integers(1, 9))))
    elif kind == "toward_pattern":
        spec = (kind, draw(st.integers(0, 255)))
    else:
        spec = kind
    return make_strategy(spec, eps)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(strategy=_strategies(), first=st.integers(0, 10 ** 6),
       m=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       exact=st.floats(0, 1))
def test_table_walk_is_the_reference_walk(strategy, first, m, seed, exact):
    """`walk` over the sampling tables is the depth-by-depth walk of
    `strategy.floats`, block for block, from any first block row, on
    uniforms of which a share `exact` equal a threshold of the table or
    0.0.  Every table has at most MAX_THRESHOLDS = 2 thresholds a depth,
    and one block table of 256**K entries for all its rows."""
    assert len(strategy.thresholds) <= MAX_THRESHOLDS == 2
    assert strategy.blocks.size == 256 ** len(strategy.thresholds)
    rng = np.random.default_rng(seed)
    u = rng.random((m, 8))
    values = sorted(set().union(*strategy.floats)) + [0.0]
    on = rng.random((m, 8)) < exact
    u[on] = rng.choice(values, on.sum())
    rows = first + np.arange(m)
    assert walk(strategy, first, u).tolist() == \
        sv_reference.walk(strategy.floats, rows, u).tolist()


def test_a_table_with_three_thresholds_at_a_depth_raises():
    """Depth 2 (nodes 4..7) holds 1/2 - 1/10, 1/2 and 1/2 + 1/10.  A table
    of two rows may hold only one threshold a depth: its rows share the
    identity block table."""
    tenth = Fraction(1, 10)
    with pytest.raises(ValueError, match="3 distinct thresholds, more than 2"):
        _table("three", tenth,
               lambda r, node: HALF + tenth * (node % 3 - 1) if 4 <= node < 8
               else HALF)
    with pytest.raises(ValueError, match="2 distinct thresholds, more than 1"):
        _table("two rows", tenth,
               lambda r, node: HALF + tenth * (node % 2) if 4 <= node < 8
               else HALF, n_rows=2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(eps=st.fractions(0, HALF, max_denominator=10 ** 6).filter(
           lambda e: e < HALF) | st.just(Fraction(0.05)),
       seed=st.integers(0, 2 ** 32 - 1), minimize=st.booleans())
def test_integer_extremum_is_the_fraction_dp(eps, seed, minimize):
    """`_tree_extremum` in scaled integers has the value and the policy of
    the DP in Fractions, for random rational leaves with many ties."""
    rng = np.random.default_rng(seed)
    leaves = [Fraction(int(a), int(b)) for a, b in
              zip(rng.integers(-4, 5, 256), rng.integers(1, 8, 256))]
    leaf = leaves.__getitem__
    assert _tree_extremum(eps, leaf, minimize) == \
        sv_reference.tree_extremum(eps, leaf, minimize)


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


def test_chernoff_oracle_premise_check_survives_python_O():
    """A violated premise raises under `python -O` too: with a per-round
    least mass of 0 on the target, exact_max = 1 > zeta."""
    code = ("from fractions import Fraction\n"
            "import randamp.sv_source as sv\n"
            "sv.setting_measure_extrema = lambda eps, u: (Fraction(0),) * 2\n"
            "assert not __debug__\n"
            "try:\n"
            "    sv.sv_chernoff_oracle(Fraction(1, 10), 3)\n"
            "except ArithmeticError as err:\n"
            "    print(err)\n")
    src = str(Path(randamp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("concentration premise violated: 1 > ")


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
