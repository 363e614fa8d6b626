import dataclasses
import hashlib
import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from scipy.stats import chisquare

from randamp.boxes import (Behavior, depolarize, ideal_quantum_box,
                           make_adversarial_device, make_iid_device,
                           uniform_box)
from randamp.ks_bell import (build_ks_model, classical_minimum, pair_index,
                             var_index)
from randamp.sv_source import BLOCK_PAIR, DEFAULT_MAP
from randamp.ns_certify import _verify_primal, build_lp
from checks import bell_sum, deterministic_behavior, exact_table, residuals
from sv_reference import _cumulative_rows


def test_ideal_box_reference_values(ideal, functional):
    exact = exact_table(ideal.table)
    assert bell_sum(exact, functional) == 0
    assert bell_sum(ideal.table, functional) == 0.0
    assert exact.flat[var_index(1, 2, 1, 3)] == Fraction(1, 16)
    assert ideal.table.flat[var_index(1, 2, 1, 3)] == 1 / 16
    # shared vector v4 at (x1,x2) = (4,1) for settings (1,2)
    assert exact.flat[var_index(1, 2, 4, 1)] == Fraction(1, 4)


def test_ideal_box_exact_table_frozen(ideal, functional):
    # every one of the 1296 entries as a Fraction, in cell order
    text = "\n".join(str(Fraction(v)) for v in ideal.table.ravel().tolist())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "d06a72e4ff638a4db1f1d309492dd47f83c6e962c84b9cf1dbf0a52a43dd200a"
    assert bell_sum(exact_table(uniform_box().table), functional) == \
        Fraction(504, 16)


def test_ideal_box_exact_rational_structure(ideal):
    exact = exact_table(ideal.table)
    for idx in np.ndindex(9, 9, 4, 4):
        fr = exact[idx]
        assert 64 % fr.denominator == 0
        assert float(fr) == ideal.table[idx]       # dyadic: floats exact
    for u1 in range(9):
        for u2 in range(9):
            assert sum(exact[u1, u2].reshape(-1)) == 1


def test_ideal_box_float_table_is_its_exact_table(model, ideal):
    """The float table, divided on integer arrays, is the exact table
    converted entry by entry, bit for bit; each exact entry is the cell's
    Gram ratio <v_a|v_b>^2 / (4 |v_a|^2 |v_b|^2) from vector coordinates."""
    assert ideal.table.dtype == np.float64
    exact = exact_table(ideal.table)
    assert ideal.table.tobytes() == exact.astype(float).tobytes()

    def inner(i, j):
        return sum(a * b for a, b in
                   zip(model.vectors[i - 1], model.vectors[j - 1]))
    for u1, u2, x1, x2 in np.ndindex(9, 9, 4, 4):
        a, b = model.bases[u1][x1], model.bases[u2][x2]
        assert exact[u1, u2, x1, x2] == \
            Fraction(inner(a, b) ** 2, 4 * inner(a, a) * inner(b, b))


def test_ideal_box_validates_exactly(ideal, functional):
    """Nonnegative, normalized and no-signaling in exact arithmetic, with
    no mass on a Bell cell; and the float table has residuals 0."""
    assert _verify_primal(build_lp(functional, 0),
                          list(exact_table(ideal.table).ravel()))
    assert residuals(ideal.table) == (0.0, 0.0)


def test_validate_catches_signaling():
    table = np.full((9, 9, 4, 4), 1 / 16)
    # shift Alice's marginal for u2 = 2 only
    table[0, 1, 0, :] += 0.1 / 4
    table[0, 1, 1, :] -= 0.1 / 4
    normalization, signaling = residuals(table)
    assert signaling == pytest.approx(0.1, abs=1e-12)
    assert normalization <= 1e-12


def test_validate_catches_normalization():
    table = np.full((9, 9, 4, 4), 1 / 16)
    table[3, 3] *= 0.9
    assert residuals(table)[0] == pytest.approx(0.1, abs=1e-12)


def test_depolarize_endpoints(ideal, functional):
    assert np.array_equal(depolarize(ideal, 0.0).table, ideal.table)
    assert np.all(depolarize(ideal, 1.0).table == 1 / 16)
    assert [f.name for f in dataclasses.fields(depolarize(ideal, 0.3))] == \
        ["table", "meta"]                   # a float table, no exact one
    with pytest.raises(ValueError):
        depolarize(ideal, 1.5)


def test_depolarize_bell_linearity(ideal, functional):
    for eta in (0.1, 0.5, 0.9):
        got = bell_sum(depolarize(ideal, eta).table, functional)
        assert got == pytest.approx(31.5 * eta, rel=1e-12)
    assert max(residuals(depolarize(ideal, 0.3).table)) <= 1e-12


def test_bell_value_uniform_box(functional):
    uniform = np.full((9, 9), 1 / 81)
    assert bell_sum(uniform_box().table, functional, uniform) == \
        pytest.approx(504 / (16 * 81))
    assert bell_sum(uniform_box().table, functional) == 31.5


def test_bell_value_concentrated_measure(functional):
    measure = np.zeros((9, 9))
    measure[0, 0] = 1.0
    got = bell_sum(uniform_box().table, functional, measure)
    assert got == pytest.approx(12 / 16)


def test_bell_value_linear_in_behavior(ideal, functional):
    rng = Random(5)
    uni = uniform_box()
    for _ in range(20):
        a = rng.random()
        mix = a * ideal.table + (1 - a) * uni.table
        want = a * bell_sum(ideal.table, functional) + \
            (1 - a) * bell_sum(uni.table, functional)
        assert bell_sum(mix, functional) == pytest.approx(want, rel=1e-12)


def test_iid_device_deterministic_box():
    alice = tuple([2] * 9)
    bob = tuple([3] * 9)
    dev = make_iid_device(deterministic_behavior(alice, bob), seed=0)
    for k in range(50):
        assert dev.respond(k, (4, 7)) == (2, 3)


def test_respond_checks_its_setting_pair(ideal):
    """(0, 12) was answered from the row of (1, 3), and (10, 10) raised
    IndexError: a setting pair is two ints in 1..9, else ValueError, which
    is raised before the round's uniform is drawn."""
    dev = make_iid_device(ideal, seed=0)
    for u in ((0, 12), (10, 10), (1, 0), (True, 1), (1.0, 2), (np.int64(1), 2),
              (1,), (1, 2, 3), 5):
        with pytest.raises(ValueError, match="^setting pair needs two ints"):
            dev.respond(0, u)
    assert dev.respond(0, (9, 9)) == \
        make_iid_device(ideal, seed=0).respond(0, (9, 9))


class _ForcedDraws:
    """A `seeding.Stream` stand-in whose draws are the given integers k, one
    a round: words(m) pops the next m of the words a, b that random() joins
    into k, in draw order, as `Stream.words` gives them (uint64)."""

    def __init__(self, ks):
        self.w = [v for k in ks for v in ((k >> 26) << 5, (k % 2 ** 26) << 6)]

    def words(self, m):
        assert m <= len(self.w)
        drawn, self.w = self.w[:m], self.w[m:]
        return np.array(drawn, np.uint64)


# Source blocks of setting pairs (1, 1), the block 0, and (2, 4)
BLOCKS = (0x00, 0xA3)


def test_respond_chunk_counts_a_cumulative_entry_equal_to_r():
    """As bisect_right does, a uniform r equal to a cumulative entry counts
    it: on the uniform box (entries j/16) r = j/16 gives code j, so the
    cell 16 pair + j.  The draws k = j 2^49 (words a = j 2^28, b = 0) make
    random() = j/16 exactly."""
    for block in BLOCKS:
        dev = make_iid_device(uniform_box(), seed=0)
        dev.rng = _ForcedDraws([j << 49 for j in range(16)])
        cells = dev.respond_chunk(0, np.full(16, block, np.uint8))
        assert cells.tolist() == [16 * BLOCK_PAIR[block] + j for j in range(16)]


def _cums(b):
    """The float cumulative rows of b's table, as the reference device
    bisects them."""
    return np.array(_cumulative_rows(b.table))


def _five_boxes(ideal, functional):
    """The ideal, uniform, lp_attack_zero, depolarized (eta 0.03) and a
    deterministic box."""
    from randamp.ns_certify import zero_target_box
    lp_attack_zero = zero_target_box(functional)
    return [ideal, uniform_box(), lp_attack_zero, depolarize(ideal, 0.03),
            deterministic_behavior((1, 2, 3, 4, 1, 2, 3, 4, 1),
                                   (4, 4, 3, 3, 2, 2, 1, 1, 4))]


def test_block_table_is_the_count_at_both_ends_of_every_bucket(ideal,
                                                               functional):
    """The thresholds are ceil(cum 2^53) of the float cumulative rows, the
    last 2^53; and on a block of setting pair p the block table's entry at
    bucket h is 16 p + the count of cumulative entries <= k / 2^53 at both
    ends k of bucket h, or -1 where the two counts differ."""
    h = np.arange(256)
    low, high = h * 2.0 ** 45 / 2 ** 53, ((h + 1) * 2 ** 45 - 1) / 2.0 ** 53
    for b in _five_boxes(ideal, functional):
        cums = _cums(b)
        t = b.thresholds
        assert t.dtype == np.int64 and t.shape == (81, 16)
        assert not t.flags.writeable
        assert np.array_equal(t, np.minimum(np.ceil(cums * 2.0 ** 53), 2.0 ** 53))
        assert (t[:, -1] == 2 ** 53).all()
        at_low = (cums[:, None, :] <= low[:, None]).sum(axis=2)
        at_high = (cums[:, None, :] <= high[:, None]).sum(axis=2)
        want = np.where(at_low == at_high, 16 * np.arange(81)[:, None] + at_low,
                        -1)
        assert np.array_equal(b.block_cells.reshape(256, 256),
                              want.take(BLOCK_PAIR, axis=0)), b.meta
    assert (depolarize(ideal, 0.03).block_cells < 0).any()


def test_block_table_reads_only_the_settings(ideal, functional):
    """Every block that the map sends to one setting pair reads the same
    row of the block table, so the device reads a block only through its
    settings."""
    for b in _five_boxes(ideal, functional):
        rows = b.block_cells.reshape(256, 256)
        assert b.block_cells.dtype == np.int16 and not rows.flags.writeable
        for u in itertools.product(range(1, 10), repeat=2):
            first, *rest = DEFAULT_MAP.blocks_of(u)
            assert all(np.array_equal(rows[first], rows[other])
                       for other in rest)


def test_respond_chunk_on_a_split_bucket_and_on_a_bucket_edge(ideal):
    """Draws k = t - 1 and k = t around a threshold t give codes c and c + 1,
    so cells 16 pair + c and + c + 1: through the count of thresholds <= k
    when t lies strictly inside a bucket (depolarized eta 0.03; and a
    cumulative entry 1/512, where k = t is r = cum exactly), through the
    block table when t is a bucket edge (uniform box, the threshold 5/16 of
    setting pair (3, 4)); on each block of the pair, and as `respond` gives
    them."""
    noisy = depolarize(ideal, 0.03)
    t = noisy.thresholds
    pair, j = map(int, np.argwhere((t % 2 ** 45 != 0) & (t < 2 ** 53))[0])
    fine = Behavior(table=uniform_box().table.copy(), meta={"kind": "fine"})
    fine.table[0, 0, 0, :2] = [1 / 512, 1 / 16 - 1 / 512]
    uni = uniform_box()
    edge = int(uni.thresholds[21, 4])
    assert edge == 5 * 2 ** 49
    for b, p, th, split in ((noisy, pair, int(t[pair, j]), True),
                            (fine, 0, 2 ** 44, True), (uni, 21, edge, False)):
        ks = [th - 1, th]
        c = int((b.thresholds[p] < th).sum())
        u = (p // 9 + 1, p % 9 + 1)
        assert pair_index(*u) == p
        dev = make_iid_device(b, seed=0)
        for block in DEFAULT_MAP.blocks_of(u):
            assert b.block_cells[[block * 256 + (k >> 45) for k in ks]
                                 ].tolist() == \
                ([-1, -1] if split else [16 * p + c, 16 * p + c + 1])
            dev.rng = _ForcedDraws(ks)
            assert dev.respond_chunk(0, np.full(2, block, np.uint8)
                                     ).tolist() == [16 * p + c, 16 * p + c + 1]
        dev.rng = _ForcedDraws(ks)
        assert [dev.respond(k, u) for k in range(2)] == \
            [(c // 4 + 1, c % 4 + 1), ((c + 1) // 4 + 1, (c + 1) % 4 + 1)]


@pytest.mark.parametrize("eta", [0.03, 0.3])
def test_respond_chunk_bisects_at_every_split_threshold(ideal, eta):
    """At every threshold t strictly inside a bucket, the draws k = t - 1
    and k = t give the code that bisect_right gives on the float
    cumulative row at k / 2^53 (`tests/sv_reference.py`)."""
    b = depolarize(ideal, eta)
    rows = _cumulative_rows(b.table)
    inside = b.thresholds % 2 ** 45 != 0
    pairs, _ = np.nonzero(inside)
    ks = [k for th in b.thresholds[inside].tolist() for k in (th - 1, th)]
    assert len(ks) > 1000       # 585 thresholds at eta 0.03, 583 at 0.3
    blocks = [DEFAULT_MAP.blocks_of((p // 9 + 1, p % 9 + 1))[0]
              for p in pairs.tolist() for _ in range(2)]
    dev = make_iid_device(b, seed=0)
    dev.rng = _ForcedDraws(ks)
    cells = dev.respond_chunk(0, np.array(blocks, np.uint8))
    assert cells.tolist() == [16 * BLOCK_PAIR[block] +
                              bisect_right(rows[BLOCK_PAIR[block]], k / 2 ** 53)
                              for block, k in zip(blocks, ks)]


@pytest.mark.parametrize("spec", [{"kind": "depolarized", "eta": 0.3},
                                  {"kind": "switch_after", "k": 5}],
                         ids=lambda s: s["kind"])
def test_devices_of_one_factory_share_their_tables(spec):
    """A device builds no table: the first round drawn builds its
    behaviors' tables, and every later device of the factory reads the
    same objects."""
    from randamp.cli import build_device_factory
    factory = build_device_factory(spec)
    first = factory(1)
    behaviors = (first._b1, first._b2)
    tables = {"thresholds", "block_cells"}
    assert not any(tables & vars(b).keys() for b in behaviors)
    first.respond_chunk(0, np.arange(256, dtype=np.uint8))
    for seed in (2, 3):
        dev = factory(seed)
        for mine, theirs in zip((dev._b1, dev._b2), behaviors):
            assert all(getattr(mine, t) is getattr(theirs, t) for t in tables)


def test_iid_device_chi2_uniform():
    for block in BLOCKS:
        dev = make_iid_device(uniform_box(), seed=123)
        cells = dev.respond_chunk(0, np.full(100_000, block, np.uint8))
        codes = cells - 16 * BLOCK_PAIR[block]
        assert codes.min() >= 0 and codes.max() < 16
        _, p = chisquare(np.bincount(codes, minlength=16))
        assert p > 1e-3


def test_iid_device_seed_fixture():
    # Regression anchor, generated once at first release from the ideal box:
    # seed 2024, settings cycling (1,1),(1,2),...,(1,5).
    dev = make_iid_device(ideal_quantum_box(build_ks_model()), seed=2024)
    got = [dev.respond(k - 1, (1, k)) for k in range(1, 6)]
    assert got == [(2, 2), (3, 4), (2, 1), (4, 3), (2, 4)]


def test_iid_device_frequencies_within_5_sigma(ideal):
    dev = make_iid_device(ideal, seed=11)
    n = 10_000
    u = (1, 2)
    counts = np.zeros((4, 4))
    for k in range(n):
        x1, x2 = dev.respond(k, u)
        counts[x1 - 1, x2 - 1] += 1
    for x1 in range(4):
        for x2 in range(4):
            p = ideal.table[0, 1, x1, x2]
            sigma = math.sqrt(max(p * (1 - p) * n, 1e-9))
            assert abs(counts[x1, x2] - p * n) <= 5 * sigma + 1e-9


def test_switch_after_zero_is_iid_second_box(ideal):
    uni = uniform_box()
    sw = make_adversarial_device({"kind": "switch_after", "k": 0,
                                  "b1": ideal, "b2": uni}, seed=3)
    iid = make_iid_device(uni, seed=3)
    for k in range(200):
        u = ((k % 9) + 1, (k * 5 % 9) + 1)
        assert sw.respond(k, u) == iid.respond(k, u)


def test_switch_after_halfway_bell_rate(ideal, functional):
    _, (alice, bob) = classical_minimum(functional)
    det = deterministic_behavior(alice, bob)
    rate_det = bell_sum(det.table, functional) / 81  # uniform-setting Bell rate
    n, trials = 400, 40
    rng = Random(99)
    total = 0
    ind = functional.indicator_array()
    for t in range(trials):
        dev = make_adversarial_device({"kind": "switch_after", "k": n // 2,
                                       "b1": ideal, "b2": det}, seed=t)
        hits = 0
        for k in range(n):
            u = (rng.randrange(9) + 1, rng.randrange(9) + 1)
            x = dev.respond(k, u)
            hits += int(ind[u[0] - 1, u[1] - 1, x[0] - 1, x[1] - 1])
        total += hits / n
    mean_ln = total / trials
    assert mean_ln == pytest.approx(0.5 * rate_det, abs=0.02)


def test_history_trigger_switches_on_past_inputs(ideal):
    uni = uniform_box()
    pattern = [(1, 1), (2, 2)]
    dev = make_adversarial_device({"kind": "history_trigger",
                                   "pattern": pattern,
                                   "b1": deterministic_behavior((1,) * 9, (1,) * 9),
                                   "b2": deterministic_behavior((4,) * 9, (4,) * 9)},
                                  seed=0)
    # pattern completes at round 1; behavior must switch from round 2 on
    assert dev.respond(0, (1, 1)) == (1, 1)
    assert dev.respond(1, (2, 2)) == (1, 1)
    assert dev.respond(2, (3, 3)) == (4, 4)


def test_adversarial_device_spec_is_checked(ideal):
    """make_adversarial_device is the one check of k and pattern: a missing,
    bool or negative k, and a pattern that is not a non-empty list of
    setting pairs in 1..9, raise ValueError naming the field."""
    boxes = {"b1": ideal, "b2": uniform_box()}
    for k in ({}, {"k": True}, {"k": -1}, {"k": 2.0}):
        with pytest.raises(ValueError, match=r"^device\.k: "):
            make_adversarial_device(dict(boxes, kind="switch_after", **k))
    for pattern in ([], [(5, 12)], [(1, 2, 3)], [(0, 1)], [(True, 1)],
                    [[1, 2], 5], "12", None):
        with pytest.raises(ValueError, match=r"^device\.pattern: "):
            make_adversarial_device(dict(boxes, kind="history_trigger",
                                         pattern=pattern))
    dev = make_adversarial_device(dict(boxes, kind="history_trigger",
                                       pattern=[[9, 9], (1, 2)]))
    assert tuple(dev.pattern) == (80, 1)
    assert dev.spec()["pattern"] == [[9, 9], [1, 2]]


def test_tons_responses_do_not_depend_on_future_settings(ideal):
    """Replaying a device with a mutated suffix of settings leaves every
    earlier outcome unchanged."""
    def run(settings):
        dev = make_adversarial_device({"kind": "history_trigger",
                                       "pattern": [(5, 5)],
                                       "b1": ideal, "b2": uniform_box()},
                                      seed=77)
        return [dev.respond(k, u) for k, u in enumerate(settings)]

    base = [((k % 9) + 1, ((k * 3) % 9) + 1) for k in range(60)]
    mutated = base[:30] + [(9, 9)] * 30
    assert run(base)[:30] == run(mutated)[:30]


def test_all_module_behaviors_validate(ideal, functional):
    _, (alice, bob) = classical_minimum(functional)
    boxes = [ideal, uniform_box(), depolarize(ideal, 0.3),
             depolarize(uniform_box(), 0.7), deterministic_behavior(alice, bob)]
    for box in boxes:
        assert max(residuals(box.table)) <= 1e-12


def _anchor_settings(n=10_000):
    rng = Random(31)
    settings = [(rng.randrange(9) + 1, rng.randrange(9) + 1) for _ in range(n)]
    settings[6000:6002] = [(5, 5), (6, 6)]       # first completes the pattern
    return settings


@pytest.mark.parametrize("spec, digest", [
    ({"kind": "switch_after", "k": 5000},
     "ca147d20d60ac0587b02c028c722922feea1c638559c2f193be039f8ee864708"),
    ({"kind": "history_trigger", "pattern": [(5, 5), (6, 6)]},
     "6aece58db51e8f5c5166d02088c6536b73da5836ac3fd74be79e2b602a3bb459"),
])
def test_adversarial_device_digest(ideal, spec, digest):
    """Regression anchor: sha256 of 10^4 outcome pairs (ideal, then uniform
    from tau on), frozen from the per-kind device classes that preceded the
    single device model."""
    dev = make_adversarial_device(dict(spec, b1=ideal, b2=uniform_box()),
                                  seed=2026)
    out = [dev.respond(k, u) for k, u in enumerate(_anchor_settings())]
    assert hashlib.sha256(bytes(v for x in out for v in x)).hexdigest() == digest
