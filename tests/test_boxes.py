import hashlib
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from scipy.stats import chisquare

from randamp.boxes import (Behavior, bell_value, bell_value_exact,
                           depolarize, deterministic_behavior,
                           ideal_quantum_box, make_adversarial_device,
                           make_iid_device, uniform_box,
                           validate_behavior)
from randamp.ks_bell import build_bell_functional, build_ks_model


@pytest.fixture(scope="module")
def model():
    return build_ks_model()


@pytest.fixture(scope="module")
def functional(model):
    return build_bell_functional(model)


@pytest.fixture(scope="module")
def ideal(model):
    return ideal_quantum_box(model)


def test_ideal_box_reference_values(ideal, functional):
    assert bell_value_exact(ideal, functional) == 0
    assert 81 * bell_value(ideal, functional) == 0.0
    assert ideal.prob_exact((1, 3), (1, 2)) == Fraction(1, 16)
    assert ideal.prob((1, 3), (1, 2)) == 1 / 16
    # shared vector v4 at (x1,x2) = (4,1) for settings (1,2)
    assert ideal.prob_exact((4, 1), (1, 2)) == Fraction(1, 4)


def test_ideal_box_exact_rational_structure(ideal):
    for idx in np.ndindex(9, 9, 4, 4):
        fr = ideal.exact[idx]
        assert 64 % fr.denominator == 0
        assert float(fr) == ideal.table[idx]       # dyadic: floats exact
    for u1 in range(9):
        for u2 in range(9):
            assert sum(ideal.exact[u1, u2].reshape(-1)) == 1


def test_ideal_box_validates_exactly(ideal):
    rep = validate_behavior(ideal, tol=1e-12)
    assert rep.ok
    assert rep.max_normalization_residual == 0.0
    assert rep.max_signaling_residual == 0.0


def test_validate_catches_signaling():
    table = np.full((9, 9, 4, 4), 1 / 16)
    # shift Alice's marginal for u2 = 2 only
    table[0, 1, 0, :] += 0.1 / 4
    table[0, 1, 1, :] -= 0.1 / 4
    rep = validate_behavior(Behavior(table=table), tol=1e-12)
    assert not rep.ok
    assert rep.max_signaling_residual == pytest.approx(0.1, abs=1e-12)
    assert rep.max_normalization_residual <= 1e-12


def test_validate_catches_normalization():
    table = np.full((9, 9, 4, 4), 1 / 16)
    table[3, 3] *= 0.9
    rep = validate_behavior(Behavior(table=table), tol=1e-12)
    assert not rep.ok
    assert rep.max_normalization_residual == pytest.approx(0.1, abs=1e-12)


def test_depolarize_endpoints(ideal, functional):
    assert np.array_equal(depolarize(ideal, 0.0).table, ideal.table)
    assert np.all(depolarize(ideal, 1.0).table == 1 / 16)
    assert depolarize(ideal, 0.3).exact is None
    with pytest.raises(ValueError):
        depolarize(ideal, 1.5)


def test_depolarize_bell_linearity(ideal, functional):
    for eta in (0.1, 0.5, 0.9):
        got = 81 * bell_value(depolarize(ideal, eta), functional)
        assert got == pytest.approx(31.5 * eta, rel=1e-12)
    assert validate_behavior(depolarize(ideal, 0.3)).ok


def test_bell_value_uniform_box(functional):
    assert bell_value(uniform_box(), functional) == pytest.approx(504 / (16 * 81))
    assert 81 * bell_value(uniform_box(), functional) == pytest.approx(31.5)


def _point_measure(weight):
    """Setting weights with `weight` on (1, 1) and 0 elsewhere."""
    measure = np.zeros((9, 9))
    measure[0, 0] = weight
    return measure


def test_bell_value_concentrated_measure(functional):
    measure = _point_measure(1.0)
    got = bell_value(uniform_box(), functional, measure)
    assert got == pytest.approx(12 / 16)


def test_bell_value_requires_normalized_measure(functional):
    with pytest.raises(ValueError):
        bell_value(uniform_box(), functional, _point_measure(0.5))


def test_bell_value_linear_in_behavior(ideal, functional):
    rng = Random(5)
    uni = uniform_box()
    for _ in range(20):
        a = rng.random()
        mix = Behavior(table=a * ideal.table + (1 - a) * uni.table)
        want = a * bell_value(ideal, functional) + (1 - a) * bell_value(uni, functional)
        assert bell_value(mix, functional) == pytest.approx(want, rel=1e-12)


def test_iid_device_deterministic_box():
    alice = tuple([2] * 9)
    bob = tuple([3] * 9)
    dev = make_iid_device(deterministic_behavior(alice, bob), seed=0)
    for k in range(50):
        assert dev.respond(k, (4, 7)) == (2, 3)


def test_iid_device_chi2_uniform():
    dev = make_iid_device(uniform_box(), seed=123)
    counts = [0] * 16
    n = 100_000
    for k in range(n):
        x1, x2 = dev.respond(k, (1, 1))
        counts[(x1 - 1) * 4 + (x2 - 1)] += 1
    _, p = chisquare(counts)
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
    from randamp.ks_bell import classical_minimum
    _, (alice, bob) = classical_minimum(functional)
    det = deterministic_behavior(alice, bob)
    rate_det = bell_value(det, functional)      # uniform-setting Bell rate
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


def test_all_module_behaviors_validate(ideal):
    from randamp.ks_bell import classical_minimum
    f = build_bell_functional(build_ks_model())
    _, (alice, bob) = classical_minimum(f)
    boxes = [ideal, uniform_box(), depolarize(ideal, 0.3),
             depolarize(uniform_box(), 0.7), deterministic_behavior(alice, bob)]
    for box in boxes:
        assert validate_behavior(box, tol=1e-12).ok


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
