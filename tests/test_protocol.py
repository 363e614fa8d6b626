import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randamp.boxes import (bell_value, depolarize, ideal_quantum_box,
                           make_iid_device, uniform_box)
from randamp.cli import build_device_factory
from randamp.ks_bell import build_bell_functional, build_ks_model
from randamp.ns_certify import max_target_box, zero_target_box
from randamp.protocol import (ProtocolParams, dc_distance, default_functional,
                              expected_tomography_rate, monte_carlo,
                              read_transcript, replay_transcript,
                              run_protocol, security_report, select_params,
                              wilson_interval, write_transcript)
from randamp.seeding import derive_seed
from randamp.sv_source import DEFAULT_MAP, SVSource


@pytest.fixture(scope="module")
def model():
    return build_ks_model()


@pytest.fixture(scope="module")
def functional(model):
    return build_bell_functional(model)


@pytest.fixture(scope="module")
def ideal(model):
    return ideal_quantum_box(model)


def test_select_params_examples():
    assert select_params(0.1, 0.5, 0.1) == pytest.approx(0.4 ** 16 / 8)
    assert select_params(0.0, 5e-4, 1e-4) == pytest.approx(
        0.5 * ((5e-4 - 2e-4) / (2 * (1 - 1e-4))) ** 2)
    assert select_params(0.0, 5e-4, 1e-4) == pytest.approx(1.1252e-8, rel=1e-3)
    with pytest.raises(ValueError):
        select_params(0.0, 0.5, 0.25)       # kappa = mu1/2
    with pytest.raises(ValueError):
        select_params(0.6, 0.5, 0.1)


def test_params_validation():
    ProtocolParams(n=1000).validate()
    with pytest.raises(ValueError):
        ProtocolParams(n=1000, delta=1e-6).validate()     # above the bound
    # explicit escape hatch for exploratory studies
    p = ProtocolParams(n=1000, delta=1e-6, enforce_bounds=False)
    p.validate()
    assert not p.in_certified_regime()


def test_run_protocol_ideal_accepts_with_exact_zero_bell(ideal):
    params = ProtocolParams(n=100_000)
    dev = make_iid_device(ideal, seed=101)
    src = SVSource(0, "unbiased", seed=202)
    run = run_protocol(dev, src, params)
    assert run.verdict == "Accept"
    assert run.bell_count == 0                 # forbidden events have prob 0
    assert run.target_frequency >= params.mu1
    assert run.output_bits is not None and len(run.output_bits) == 32
    assert run.extraction["honest_condition_met"]
    assert run.extraction["rule"] == "target_rounds"


def test_run_protocol_uniform_box_aborts_bell(ideal):
    params = ProtocolParams(n=5000)
    dev = make_iid_device(uniform_box(), seed=7)
    src = SVSource(0, "unbiased", seed=8)
    run = run_protocol(dev, src, params)
    assert run.verdict == "AbortBell"
    assert run.bell_average == pytest.approx(0.39, abs=0.05)


def test_run_protocol_zero_attack_aborts_tomography(functional):
    box, val = zero_target_box(functional)
    assert val == 0
    params = ProtocolParams(n=5000)
    dev = make_iid_device(box, seed=9)
    src = SVSource(0, "unbiased", seed=10)
    run = run_protocol(dev, src, params)
    assert run.verdict == "AbortTomography"
    assert run.bell_count == 0                 # Bell test passes first
    assert run.target_count == 0


def test_max_attack_accepts_and_target_counts_dominate(functional):
    """Accepted transcripts by construction carry >= mu1 n target hits."""
    box, val = max_target_box(functional)
    assert val == Fraction(3, 4)
    params = ProtocolParams(n=20_000)
    accepted = 0
    for seed in range(5):
        dev = make_iid_device(box, seed=seed)
        src = SVSource(0, "unbiased", seed=1000 + seed)
        run = run_protocol(dev, src, params)
        if run.verdict == "Accept":
            accepted += 1
            assert run.target_count >= params.mu1 * params.n
    assert accepted == 5                       # rate 3/64 >> mu1


def test_verdict_recomputable_from_transcript(ideal):
    params = ProtocolParams(n=3000, mu1=1e-9, kappa=4e-10,
                            enforce_bounds=False)
    dev = make_iid_device(ideal, seed=31)
    src = SVSource(0, "unbiased", seed=32)
    run = run_protocol(dev, src, params)
    redo = replay_transcript(params, run.records)
    assert (redo.bell_average, redo.target_frequency, redo.verdict) == \
        (run.bell_average, run.target_frequency, run.verdict)


def test_transcript_file_roundtrip(tmp_path, ideal):
    params = ProtocolParams(n=2000, mu1=1e-9, kappa=4e-10,
                            enforce_bounds=False)
    dev = make_iid_device(ideal, seed=41)
    src = SVSource(0, "unbiased", seed=42)
    run = run_protocol(dev, src, params)
    path = tmp_path / "run.jsonl"
    write_transcript(run, path, config_hash="abc123")
    header, source, redo, summary = read_transcript(path)
    assert header["config_hash"] == "abc123"
    assert header["source"] == {"epsilon": 0.0, "strategy": "unbiased", "seed": 42}
    assert redo.params == params
    assert (redo.hist, redo.records) == (run.hist, run.records)
    assert summary["verdict"] == run.verdict
    assert (redo.bell_average, redo.target_frequency, redo.verdict) == \
        (summary["Ln"], summary["Sn"], summary["verdict"])
    # the source is rebuilt at stream position 0
    assert source.spec() == run.source_spec
    spec = run.source_spec
    assert source.next_block(8) == \
        SVSource(spec["epsilon"], spec["strategy"], spec["seed"]).next_block(8)


DEVICE_SPECS = [{"kind": "ideal"}, {"kind": "uniform"},
                {"kind": "depolarized", "eta": 0.5}, {"kind": "lp_attack_zero"},
                {"kind": "switch_after", "k": 3},
                {"kind": "history_trigger", "pattern": [[1, 2], [1, 2]]}]


@pytest.mark.parametrize("spec", DEVICE_SPECS, ids=lambda s: s["kind"])
def test_histogram_is_the_run(spec):
    """The round loop's inlined cell index against `var_index` in
    `replay_transcript`: both histograms, and so every statistic and the
    verdict, agree for each device kind and source strategy."""
    device_factory = build_device_factory(spec)
    for eps, strategy in ((0.0, "unbiased"), (0.05, ["avoid_target"])):
        for n in (1, 7, 20_000):
            params = ProtocolParams(n=n, eps=eps)
            run = run_protocol(device_factory(n), SVSource(eps, strategy, n),
                               params)
            redo = replay_transcript(params, run.records)
            assert run.hist == redo.hist and sum(run.hist) == n
            assert (run.n, run.bell_count, run.target_count,
                    run.bell_average, run.target_frequency, run.verdict) == \
                (redo.n, redo.bell_count, redo.target_count,
                 redo.bell_average, redo.target_frequency, redo.verdict)
            if spec["kind"] == "uniform" and eps == 0 and n == 20_000:
                assert min(run.hist) > 0      # every cell is reached


def test_read_transcript_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "header"}\nnot json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_transcript(bad)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

_WELL_FORMED = [
    {"type": "header", "version": 1,
     "source": {"epsilon": 0.0, "strategy": "unbiased", "seed": 0},
     "params": {"n": 2, "eps": 0.0, "delta": 1e-8, "mu1": 1e-9,
                "kappa": 4e-10, "extractor": {}}},
    {"i": 1, "u": [1, 2], "x": [1, 3]},
    {"i": 2, "u": [4, 4], "x": [2, 1]},
    {"type": "summary", "Ln": 0.0, "Sn": 0.5, "verdict": "Accept"},
]


@st.composite
def _mutated_transcript(draw):
    """The well-formed transcript with one line replaced by arbitrary text,
    by another JSON value, or by itself with one key set to any value."""
    lines = [json.dumps(obj) for obj in _WELL_FORMED]
    k = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["text", "value", "key"]))
    if how == "text":
        lines[k] = draw(st.text(max_size=40))
    elif how == "value":
        lines[k] = json.dumps(draw(_JSON_VALUES))
    else:
        obj = dict(_WELL_FORMED[k])
        obj[draw(st.sampled_from(sorted(obj)) | st.text(max_size=4))] = \
            draw(_JSON_VALUES)
        lines[k] = json.dumps(obj)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_mutated_transcript())
def test_read_transcript_raises_only_value_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        read_transcript(path)
    except ValueError:
        pass


def test_read_transcript_accepts_only_the_written_order(tmp_path):
    """Of every sequence of 1 to 5 lines drawn from the well-formed
    transcript's lines (1364 files), only the well-formed order loads."""
    lines = [json.dumps(obj) + "\n" for obj in _WELL_FORMED]
    path = tmp_path / "order.jsonl"
    loaded = []
    for k in range(1, 6):
        for seq in itertools.product(range(len(lines)), repeat=k):
            path.write_text("".join(lines[j] for j in seq))
            try:
                read_transcript(path)
            except ValueError:
                continue
            loaded.append(seq)
    assert loaded == [tuple(range(len(lines)))]


def test_expected_tomography_rate(ideal, functional):
    assert expected_tomography_rate(ideal) == pytest.approx(1 / 1024)
    assert expected_tomography_rate(uniform_box()) == pytest.approx(1 / 1024)
    box, _ = zero_target_box(functional)
    assert expected_tomography_rate(box) == 0.0


def test_security_report_values():
    params = ProtocolParams(n=100_000)
    rep = security_report(params)
    assert rep.mu2 == pytest.approx(1 - math.sqrt(2e-8), rel=1e-12)
    assert rep.mu3 == pytest.approx(1.50015e-4, rel=1e-4)
    assert rep.mu4 == pytest.approx(8.5936e-6, rel=1e-3)
    assert rep.mu4 == pytest.approx(rep.mu2 + rep.mu3 - 1, rel=1e-6)
    assert rep.gamma == 1 - 1e-4               # the kappa branch dominates
    assert rep.eps_az1 == pytest.approx(2 * math.exp(-100_000 * 1e-16 / 4))
    assert rep.eps_az2 == pytest.approx(2 * math.exp(-100_000 * 25e-8 / 16))
    assert rep.delta1 == pytest.approx(
        2 * (rep.eps_az1 + rep.eps_az2) + rep.gamma ** (rep.mu4 * params.n))
    assert rep.min_entropy_bound / params.n == pytest.approx(1.24e-9, rel=1e-2)
    assert rep.params_valid
    assert rep.map_name == "mod9"
    assert rep.output_bias_bound == 1.0        # vacuous at desk scale, reported


def test_min_entropy_bound_clamped_outside_certified_regime():
    # the second set's gamma^(mu4 n) is about e^17600: it raised OverflowError
    for params in (ProtocolParams(n=10 ** 7, delta=1e-6, mu1=3e-4, kappa=1e-4,
                                  enforce_bounds=False),
                   ProtocolParams(n=10 ** 5, mu1=1e-9, kappa=0.4,
                                  enforce_bounds=False)):
        rep = security_report(params)
        assert rep.mu4 < 0
        assert rep.min_entropy_bound == 0
        assert rep.delta1 == 2 * (rep.eps_az1 + rep.eps_az2) + 1
        assert not rep.params_valid


def test_security_report_gamma_other_branch():
    # large kappa pushes the Bell-side branch to the max
    params = ProtocolParams(n=1000, eps=0.0, delta=1e-8, mu1=0.9, kappa=0.4,
                            enforce_bounds=False)
    rep = security_report(params)
    expect = (3 + 2 * math.sqrt(2e-8) / 0.5 ** 8) / 4
    assert rep.gamma == pytest.approx(expect)
    assert not rep.params_valid or params.in_certified_regime()


def test_dc_distance_uniform_independent():
    p = np.full((2, 2, 2, 2), 1 / 8)
    got = dc_distance(p)
    assert got["dc"] == pytest.approx(0.0, abs=1e-15)
    assert got["d"] == pytest.approx(0.0, abs=1e-15)
    assert got["relation_ok"]


def test_dc_distance_deterministic_s():
    p = np.zeros((2, 1, 1, 1))
    p[0] = 1.0
    got = dc_distance(p)
    assert got["dc"] == pytest.approx(1.0)
    assert got["relation_ok"]


def test_dc_distance_w_dependent_toy_matches_enumeration():
    """Two adversary inputs maximizing different e-terms; independent
    brute-force evaluation of the definition."""
    rng = np.random.default_rng(3)
    p = rng.uniform(0.05, 1.0, size=(2, 2, 2, 2))
    p /= p.sum(axis=(0, 1, 2), keepdims=True)
    got = dc_distance(p)
    ns = 2
    dc = 0.0
    for s in range(2):
        for e in range(2):
            best = -1.0
            for w in range(2):
                tot = 0.0
                for z in range(2):
                    marg = sum(p[sp, z, e, w] for sp in range(2))
                    tot += abs(p[s, z, e, w] - marg / ns)
                best = max(best, tot)
            dc += best
    assert got["dc"] == pytest.approx(dc, rel=1e-12)
    d = 0.0
    for e in range(2):
        best = -1.0
        for w in range(2):
            tot = 0.0
            for z in range(2):
                marg = sum(p[sp, z, e, w] for sp in range(2))
                for s in range(2):
                    tot += abs(p[s, z, e, w] - marg / ns)
            best = max(best, tot)
        d += best
    assert got["d"] == pytest.approx(d, rel=1e-12)
    assert got["dc"] <= ns * got["d"] + 1e-12


def test_dc_distance_with_acceptance_weights():
    p = np.full((2, 2, 1, 1), 1 / 8)
    acc = np.ones((2, 2, 1, 1))
    acc[1] = 0.0                 # acceptance kills s = 1 entirely
    got = dc_distance(p, acc)
    assert got["dc"] == pytest.approx(1.0)


def test_dc_distance_validation():
    with pytest.raises(ValueError):
        dc_distance(np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        dc_distance(np.full((2, 1, 1, 1), 0.4))   # not normalized


def test_monte_carlo_single_trial_reproduces_run(ideal):
    params = ProtocolParams(n=4000, mu1=1e-9, kappa=4e-10,
                            enforce_bounds=False)
    factory_d = lambda seed: make_iid_device(ideal, seed)
    factory_s = lambda seed: SVSource(0, "unbiased", seed)
    stats = monte_carlo(factory_d, factory_s, params, trials=1, master_seed=55)
    run = run_protocol(make_iid_device(ideal, derive_seed(55, 0, 1)),
                       SVSource(0, "unbiased", derive_seed(55, 0, 2)),
                       params, keep_transcript=False)
    row = stats.rows[0]
    assert (row["Ln"], row["Sn"], row["verdict"]) == \
        (run.bell_average, run.target_frequency, run.verdict)
    first = stats.first_run
    assert (first.bell_average, first.target_frequency, first.verdict) == \
        (row["Ln"], row["Sn"], row["verdict"])
    assert first.output_bits is not None
    full = run_protocol(make_iid_device(ideal, derive_seed(55, 0, 1)),
                        SVSource(0, "unbiased", derive_seed(55, 0, 2)), params)
    assert (first.records, first.output_bits, first.extraction) == \
        (full.records, full.output_bits, full.extraction)
    assert stats.to_csv().splitlines()[0] == "trial,Ln,Sn,verdict"


def test_monte_carlo_deterministic(ideal):
    params = ProtocolParams(n=2000, mu1=1e-9, kappa=4e-10,
                            enforce_bounds=False)
    f_d = lambda seed: make_iid_device(ideal, seed)
    f_s = lambda seed: SVSource(0, "unbiased", seed)
    a = monte_carlo(f_d, f_s, params, trials=5, master_seed=9)
    b = monte_carlo(f_d, f_s, params, trials=5, master_seed=9)
    assert a.rows == b.rows


def test_completeness_trend(ideal):
    """Accept rate grows with n: CI separation between n=1e3 and n=1e5."""
    params_by_n = {n: ProtocolParams(n=n) for n in (1000, 100_000)}
    f_d = lambda seed: make_iid_device(ideal, seed)
    f_s = lambda seed: SVSource(0, "unbiased", seed)
    small = monte_carlo(f_d, f_s, params_by_n[1000], trials=40, master_seed=17)
    large = monte_carlo(f_d, f_s, params_by_n[100_000], trials=40, master_seed=18)
    assert large.ci_low > small.ci_high
    assert large.accept_rate >= 0.95


def test_noise_tolerance_study(ideal, functional):
    """Exploratory mode: delta far above the certified range demonstrates
    the Bell test's noise discrimination around eta_max = delta / rate."""
    measure = np.zeros((9, 9))
    for v1 in range(16):
        for v2 in range(16):
            u = DEFAULT_MAP.map_block(v1 * 16 + v2)
            measure[u[0] - 1, u[1] - 1] += 1 / 256
    rate = bell_value(uniform_box(), functional, measure)
    assert rate == pytest.approx(0.389, abs=0.02)
    delta = 1e-3
    eta_max = delta / rate
    params = ProtocolParams(n=10_000, delta=delta, mu1=1e-9, kappa=4e-10,
                            enforce_bounds=False)
    f_s = lambda seed: SVSource(0, "unbiased", seed)
    quiet = monte_carlo(lambda s: make_iid_device(depolarize(ideal, eta_max / 2), s),
                        f_s, params, trials=40, master_seed=21)
    noisy = monte_carlo(lambda s: make_iid_device(depolarize(ideal, 10 * eta_max), s),
                        f_s, params, trials=40, master_seed=22)
    assert quiet.accept_rate >= 0.8
    assert noisy.accept_rate == 0.0


def test_wilson_interval_sane():
    lo, hi = wilson_interval(200, 200)
    assert lo > 0.97 and hi == 1.0
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi < 0.1


def test_default_functional_cached():
    assert default_functional() is default_functional()


def test_mu4_positive_whenever_params_admissible():
    """Algebraic sweep: any delta below the admissible ceiling gives a
    strictly positive surviving fraction mu4."""
    for eps in (0.0, 0.1, 0.3):
        for mu1 in (1e-4, 5e-4, 0.01, 0.2):
            for frac in (0.05, 0.25, 0.45):
                kappa = frac * mu1 / 2
                dmax = select_params(eps, mu1, kappa)
                for delta in (dmax * 0.9, dmax * 0.5, dmax * 1e-3):
                    params = ProtocolParams(n=1000, eps=eps, delta=delta,
                                            mu1=mu1, kappa=kappa)
                    params.validate()
                    assert security_report(params).mu4 > 0
