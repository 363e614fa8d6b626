import time
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from randamp.extractor import (ExtractorConfig, encode_outcome_bits, extract,
                               extraction_report,
                               max_sequence_probability_chained,
                               max_sequence_probability_product,
                               sequence_probability_bound,
                               transcript_to_source, uniformity_test)
from randamp.protocol import ProtocolParams, replay_transcript


def bits(s):
    return [int(c) for c in s]


def test_extract_hand_examples():
    cfg1 = ExtractorConfig(m=1, L=4)
    assert extract(bits("1010"), bits("1100"), cfg1) == [1]
    cfg2 = ExtractorConfig(m=2, L=4)
    assert extract(bits("1010"), bits("1100"), cfg2) == [1, 1]
    assert extract(bits("0000"), bits("1011"), cfg2) == [0, 0]


def test_extract_pads_and_truncates():
    cfg = ExtractorConfig(m=1, L=4)
    assert extract(bits("10"), bits("110010"), cfg) == \
        extract(bits("1000"), bits("1100"), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        ExtractorConfig(m=5, L=4)
    with pytest.raises(ValueError):
        ExtractorConfig(m=1, L=4, rule="bogus")


def test_bilinearity_fuzz():
    rng = Random(8)
    cfg = ExtractorConfig(m=8, L=32)
    for _ in range(200):
        x = [rng.randrange(2) for _ in range(32)]
        xp = [rng.randrange(2) for _ in range(32)]
        t = [rng.randrange(2) for _ in range(32)]
        xxor = [a ^ b for a, b in zip(x, xp)]
        lhs = extract(xxor, t, cfg)
        rhs = [a ^ b for a, b in zip(extract(x, t, cfg), extract(xp, t, cfg))]
        assert lhs == rhs


@pytest.mark.parametrize("L", [4, 8, 12, 16])
def test_balanced_over_uniform_t_for_fixed_nonzero_x(L):
    cfg = ExtractorConfig(m=1, L=L)
    rng = Random(L)
    xs = [[1] + [0] * (L - 1), [rng.randrange(2) for _ in range(L)]]
    if sum(xs[1]) == 0:
        xs[1][0] = 1
    for x in xs:
        ones = 0
        for tv in range(1 << L):
            t = [(tv >> (L - 1 - i)) & 1 for i in range(L)]
            ones += extract(x, t, cfg)[0]
        assert ones == (1 << L) // 2        # exactly balanced


def test_single_one_x_gives_uniform_joint_output():
    # x = e_0: output bits are distinct coordinates of t, jointly uniform
    L, m = 8, 2
    cfg = ExtractorConfig(m=m, L=L)
    x = [1] + [0] * (L - 1)
    counts = [0] * (1 << m)
    for tv in range(1 << L):
        t = [(tv >> (L - 1 - i)) & 1 for i in range(L)]
        out = extract(x, t, cfg)
        counts[(out[0] << 1) | out[1]] += 1
    assert counts == [(1 << L) // 4] * 4


def test_correlated_inputs_show_bias():
    """t = x violates independence: over all nonzero 4-bit x the single
    output bit is the weight parity, 8 odd vs 7 even, bias 1/30 != 0."""
    cfg = ExtractorConfig(m=1, L=4)
    outs = []
    for xv in range(1, 16):
        x = [(xv >> (3 - i)) & 1 for i in range(4)]
        outs.append(extract(x, x, cfg)[0])
    bias = sum(outs) / len(outs) - 0.5
    assert bias == pytest.approx(8 / 15 - 0.5)
    assert bias > 0.03


def test_extract_matches_the_rotation_definition():
    """bit j = sum_i x_i t_((i + j) mod L) mod 2 on the inputs padded or
    truncated to L, with inputs longer and shorter than L, so the wrapped
    part of the rotation is exercised."""
    rng = Random(21)
    for _ in range(300):
        L = rng.randint(1, 400)
        m = rng.randint(1, min(L, 40))
        x = [rng.randrange(2) for _ in range(rng.randint(0, 500))]
        t = [rng.randrange(2) for _ in range(rng.randint(0, 500))]
        xp, tp = (v[:L] + [0] * (L - len(v[:L])) for v in (x, t))
        want = [sum(xp[i] & tp[(i + j) % L] for i in range(L)) & 1
                for j in range(m)]
        assert extract(x, t, ExtractorConfig(m=m, L=L)) == want


def test_extract_cost_does_not_grow_with_L():
    """Inputs of at most 300 bits meet no wrapped bit at L = 400 or at
    L = 10^9, so both give the same output, and the huge L costs nothing."""
    rng = Random(22)
    for _ in range(20):
        x = [rng.randrange(2) for _ in range(rng.randint(1, 300))]
        t = [rng.randrange(2) for _ in range(rng.randint(1, 300))]
        start = time.perf_counter()
        huge = extract(x, t, ExtractorConfig(m=32, L=10 ** 9))
        assert time.perf_counter() - start < 1.0
        assert huge == extract(x, t, ExtractorConfig(m=32, L=400))


def _accepted_run(records):
    """The run of `records` at delta = 1, so its Bell test passes."""
    params = ProtocolParams(n=len(records), delta=1.0, enforce_bounds=False)
    return replay_transcript(params, records)


def test_transcript_to_source_rules():
    records = [(1, 2, 1, 3), (3, 3, 2, 2), (1, 2, 4, 1), (2, 1, 1, 1)]
    run = _accepted_run(records)
    tgt = transcript_to_source(run, "target_rounds")
    assert tgt == encode_outcome_bits(1, 3) + encode_outcome_bits(4, 1)
    assert transcript_to_source(run, "all_rounds") == sum(
        (encode_outcome_bits(x1, x2) for (_, _, x1, x2) in records), [])
    assert len(transcript_to_source(run, "all_rounds")) == 4 * len(records)


def test_transcript_to_source_requires_accept():
    run = _accepted_run([(3, 3, 1, 1)])     # no target round: aborted
    assert run.verdict == "AbortTomography"
    with pytest.raises(ValueError, match="accepted run"):
        transcript_to_source(run, "target_rounds")


def test_transcript_to_source_empty_selection():
    run = _accepted_run([(3, 3, 1, 1)])
    with pytest.raises(ValueError):
        transcript_to_source(run, "target_rounds")


def test_encode_outcome_bits():
    assert encode_outcome_bits(1, 1) == [0, 0, 0, 0]
    assert encode_outcome_bits(4, 3) == [1, 1, 1, 0]
    assert encode_outcome_bits(2, 4) == [0, 1, 1, 1]


def test_extraction_report_rates():
    cfg = ExtractorConfig(m=32, L=256)
    rep = extraction_report(6000, 100_000, cfg, honest_rate_x=0.5, rate_t=1.0,
                            certified_rate_x=1e-9)
    assert rep["honest_condition_met"]          # 1.5 > 1.375
    assert not rep["certified_condition_met"]   # worst case far below
    assert rep["rate_required_sum"] == pytest.approx(1 + (64 + 32) / 256)


def _word_bits(words):
    """64-bit words as bit lists: bit i of a list is bit i of its word."""
    return np.unpackbits(words.astype("<u8").view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little").tolist()


def test_uniformity_test_fresh_uniform_sources():
    rng = np.random.default_rng(123)
    n = 20_000
    x = rng.integers(0, 2 ** 64, n, dtype=np.uint64)
    t = rng.integers(0, 2 ** 64, n, dtype=np.uint64)
    cfg = ExtractorConfig(m=4, L=64)
    out = np.array([extract(a, b, cfg)
                    for a, b in zip(_word_bits(x), _word_bits(t))])
    vals = (out * (1 << np.arange(3, -1, -1))).sum(axis=1)
    rep = uniformity_test(vals, m=4)
    assert all(abs(b) < 0.02 for b in rep["bias_per_bit"])
    assert rep["chi2_pvalue"] > 1e-4


def test_uniformity_test_validation():
    with pytest.raises(ValueError):
        uniformity_test([0, 1] * 100, m=1)       # too few samples
    with pytest.raises(ValueError):
        uniformity_test(list(range(1000)), m=9)  # joint test capped at m=8


def test_sequence_probability_bound_values():
    assert sequence_probability_bound(8, Fraction(3, 4)) == Fraction(3, 4) ** 8
    assert float(sequence_probability_bound(8, Fraction(3, 4))) == \
        pytest.approx(0.100113, abs=1e-6)
    assert sequence_probability_bound(0, Fraction(3, 4)) == 1
    assert sequence_probability_bound(5, 1) == 1


def test_product_device_attains_bound_exactly():
    got = max_sequence_probability_product(8, positions=range(8),
                                           gamma=Fraction(3, 4))
    assert got == Fraction(3, 4) ** 8
    got = max_sequence_probability_product(8, positions=[1, 4], gamma=Fraction(1, 2))
    assert got == Fraction(1, 4)


def test_chained_device_respects_bound():
    for n, positions in ((6, [0, 2, 4]), (6, range(6)), (5, [1])):
        gamma = Fraction(2, 5)
        got = max_sequence_probability_chained(n, positions, gamma)
        assert got <= sequence_probability_bound(len(list(positions)), gamma)
        assert got > 0
