"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities (run with -s to see them inline).

Criterion 11's asymptotic statement (vanishing composable distance at rate
2^-Omega(n^(1/4))) is not desk-reproducible; per the acceptance plan it is
substituted by criteria 5-10 plus the exact recomputation of the derived
constant chain against an independent high-precision evaluator.

Criterion 12 calls for replay on two platforms; inside one container this
runs same-platform byte-identical replay plus a frozen fixture hash
(generated once at first release) that a second platform can compare
against.  The protocol RNG is the portable Mersenne generator and all
statistics are integer counts divided by n, so the fixture is
platform-stable.
"""

import hashlib
import math
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
from scipy.stats import binom

from randamp.bounds import azuma_empirical, chernoff_empirical
from randamp.boxes import ideal_quantum_box, make_iid_device, uniform_box
from randamp.extractor import (ExtractorConfig, extract,
                               max_sequence_probability_chained,
                               max_sequence_probability_product,
                               sequence_probability_bound)
from randamp.ks_bell import (build_bell_functional, build_ks_model,
                             classical_minimum, ks_coloring_count)
from randamp.ns_certify import (_verify_primal, build_lp, solve_lp,
                                verify_certificate, zero_target_box)
from randamp.protocol import (ProtocolParams, monte_carlo, run_protocol,
                              security_report, write_transcript,
                              read_transcript, replay_transcript)
from randamp.seeding import derive_seed
from randamp.sv_source import SVSource, sv_chernoff_oracle
from checks import (bell_sum, deterministic_behavior, exact_table,
                    linear_fraction, settings_tail_empirical)
from test_extractor import _word_bits

MODEL = build_ks_model()
FUNCTIONAL = build_bell_functional(MODEL)


def report(num, detail):
    print(f"\nACCEPTANCE {num}: PASS — {detail}")


def test_criterion_01_bell_functional_count():
    t0 = time.perf_counter()
    f = build_bell_functional(build_ks_model())
    elapsed = time.perf_counter() - t0
    assert len(f.bell_cells) == 504
    assert elapsed < 1.0
    report(1, f"|S_B| = {len(f.bell_cells)} (= 504), built in {elapsed:.3f}s < 1s")


def test_criterion_02_classical_bound():
    t0 = time.perf_counter()
    value, (alice, bob) = classical_minimum(FUNCTIONAL)
    elapsed = time.perf_counter() - t0
    assert value == 4
    assert bell_sum(deterministic_behavior(alice, bob).table, FUNCTIONAL) == 4
    assert elapsed < 60.0
    report(2, f"exhaustive deterministic minimum = {value} (= 4), "
              f"witness re-evaluates to 4, {elapsed:.2f}s < 60s")


def test_criterion_03_coloring_count():
    t0 = time.perf_counter()
    count = ks_coloring_count(MODEL)
    elapsed = time.perf_counter() - t0
    assert count == 0
    assert elapsed < 10.0
    report(3, f"one-per-basis orthogonality-respecting assignments = {count} "
              f"(all 2^18 scanned), {elapsed:.2f}s < 10s")


def test_criterion_04_quantum_box_exact():
    t0 = time.perf_counter()
    exact = exact_table(ideal_quantum_box(MODEL).table)
    bell = bell_sum(exact, FUNCTIONAL)
    target = exact.flat[FUNCTIONAL.target_cell]
    elapsed = time.perf_counter() - t0
    assert bell == 0
    assert target == Fraction(1, 16)
    assert _verify_primal(build_lp(FUNCTIONAL, 0), list(exact.ravel()))
    assert elapsed < 1.0
    report(4, f"indicator mass = {bell} exactly, target entry = {target} "
              f"(= 1/16) exactly, {elapsed:.2f}s < 1s")


def test_criterion_05_lp_certification_grid():
    worst = 0.0
    rows = []
    for k in range(0, 11):
        cap = Fraction(k, 20)
        t0 = time.perf_counter()
        problem = build_lp(FUNCTIONAL, cap)
        sol = solve_lp(problem)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert verify_certificate(problem, sol.certificate)
        assert sol.exact_optimum <= Fraction(3, 4) + cap / 2   # zero slack
        assert sol.certified_equality                          # attainment
        rows.append((cap, sol.exact_optimum))
        assert elapsed < 300.0
    assert rows[0][1] == Fraction(3, 4)
    report(5, "grid " + ", ".join(f"cap={c}: opt={o}" for c, o in rows[:3])
              + f", ... all certificates verified exactly, optimum = bound "
                f"(equality recorded), worst solve {worst:.2f}s < 300s")


def test_criterion_06_sv_chernoff_premise():
    t0 = time.perf_counter()
    checked = 0
    for eps in (Fraction(0), Fraction(1, 20), Fraction(1, 10),
                Fraction(1, 5), Fraction(3, 10), Fraction(9, 20)):
        for k in range(1, 11):
            got = sv_chernoff_oracle(eps, k)
            assert got["exact_max"] <= got["zeta_bound"]       # exact Fractions
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, f"{checked} (eps, k) pairs: exact worst-case miss probability "
              f"<= zeta^k in exact arithmetic, {elapsed:.2f}s < 10s")


def test_criterion_07_concentration_suite():
    t0 = time.perf_counter()
    for n in (100, 1000, 2000):
        r = azuma_empirical(("fair_coin",), n=n, s=0.1, trials=10_000, seed=n)
        assert r["empirical"] <= r["bound"] + r["slack"]
        r = azuma_empirical(("markov", 0.3, 0.7), n=n, s=0.12,
                            trials=10_000, seed=n + 1)
        assert r["empirical"] <= r["bound"] + r["slack"]
        r = chernoff_empirical(n=n, gamma=0.35, zeta=0.25,
                               trials=10_000, seed=n + 2)
        assert r["empirical"] <= r["bound"] + r["slack"]
    r = settings_tail_empirical(0, "unbiased", n=2000, gamma=0.998,
                                trials=10_000, seed=77)
    assert r["empirical"] <= r["bound"] + r["slack"]
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        n = int(rng.integers(2, 50))
        delta = float(rng.uniform(0.01, 0.5))
        vals = rng.uniform(0, 1, n)
        vals *= rng.uniform(0, delta) / max(vals.mean(), 1e-12)
        linear_fraction(np.minimum(vals, 1.0), delta)   # checks internally
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(7, f"tail validations at n in (100, 1000, 2000) x 10^4 trials and "
              f"10^4 fuzzed fraction instances, {elapsed:.1f}s < 300s")


def test_criterion_08_protocol_campaigns():
    t0 = time.perf_counter()
    params = ProtocolParams(n=100_000, eps=0.0, delta=1e-8, mu1=5e-4, kappa=1e-4)
    params.validate()
    ideal = ideal_quantum_box(MODEL)
    f_src = lambda seed: SVSource(0, "unbiased", seed)

    per_trial_fail = float(binom.cdf(math.ceil(5e-4 * 100_000) - 1,
                                     100_000, 1 / 1024))
    honest = monte_carlo(lambda s: make_iid_device(ideal, s), f_src,
                         params, trials=200, master_seed=1001)
    assert honest.accept_rate >= 0.999

    noise = monte_carlo(lambda s: make_iid_device(uniform_box(), s), f_src,
                        params, trials=200, master_seed=1002)
    assert noise.accept_count == 0
    assert noise.verdict_counts.get("AbortBell", 0) == 200

    attack_box = zero_target_box(FUNCTIONAL)
    assert attack_box.table.flat[FUNCTIONAL.target_cell] == 0
    attack = monte_carlo(lambda s: make_iid_device(attack_box, s), f_src,
                         params, trials=200, master_seed=1003)
    assert attack.verdict_counts.get("AbortTomography", 0) >= 199

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(8, f"honest accept {honest.accept_count}/200 (predicted per-trial "
              f"failure {per_trial_fail:.1e}); white-noise accept "
              f"{noise.accept_count}/200 (= 0); attack tomography-aborts "
              f"{attack.verdict_counts.get('AbortTomography', 0)}/200 >= 199; "
              f"{elapsed:.0f}s < 600s")


def test_criterion_09_extractor():
    rng = np.random.default_rng(99)
    n = 100_000
    x = rng.integers(0, 2 ** 64, n, dtype=np.uint64)
    t = rng.integers(0, 2 ** 64, n, dtype=np.uint64)
    cfg64 = ExtractorConfig(m=8, L=64)
    out = np.array([extract(a, b, cfg64)
                    for a, b in zip(_word_bits(x), _word_bits(t))])
    biases = np.abs(out.mean(axis=0) - 0.5)
    assert np.all(biases < 0.01)

    cfg16 = ExtractorConfig(m=2, L=16)
    rnd = np.random.default_rng(5)
    for _ in range(100):                       # bilinearity, exact
        a = rnd.integers(0, 2, 16).tolist()
        b = rnd.integers(0, 2, 16).tolist()
        tt = rnd.integers(0, 2, 16).tolist()
        lhs = extract([p ^ q for p, q in zip(a, b)], tt, cfg16)
        rhs = [p ^ q for p, q in zip(extract(a, tt, cfg16),
                                     extract(b, tt, cfg16))]
        assert lhs == rhs
    for L in (8, 16):                          # balancedness, exact
        cfg = ExtractorConfig(m=1, L=L)
        xv = [1, 0, 1] + [0] * (L - 3)
        ones = sum(extract(xv, [(tv >> (L - 1 - i)) & 1 for i in range(L)],
                           cfg)[0] for tv in range(1 << L))
        assert ones == (1 << L) // 2
    report(9, f"per-bit bias over 10^5 two-source trials max {biases.max():.4f}"
              f" < 0.01; bilinearity (100 exact checks) and balancedness "
              f"(L = 8, 16 full enumerations) exact")


def test_criterion_10_sequence_accounting():
    gamma = Fraction(3, 4)
    for n, positions in ((8, range(8)), (8, [0, 3, 6]), (7, [2])):
        got = max_sequence_probability_product(n, positions, gamma)
        assert got == sequence_probability_bound(len(list(positions)), gamma)
    chained_checked = []
    for n, positions in ((8, range(8)), (8, [1, 4, 6]), (6, [0, 5])):
        got = max_sequence_probability_chained(n, positions, Fraction(2, 5))
        bound = sequence_probability_bound(len(list(positions)), Fraction(2, 5))
        assert got <= bound
        chained_checked.append((n, len(list(positions))))
    report(10, f"product devices attain gamma^|K| exactly; chained devices "
               f"stay <= gamma^|K| under exhaustive tree evaluation at "
               f"{chained_checked} (exact rationals)")


def test_criterion_11_security_chain_high_precision():
    getcontext().prec = 60

    def oracle(n, eps, delta, mu1, kappa):
        d = Decimal
        n, eps, delta, mu1, kappa = d(n), d(eps), d(delta), d(mu1), d(kappa)
        sqrt2d = (2 * delta).sqrt()
        mu2 = 1 - sqrt2d
        mu3 = (mu1 - 2 * kappa) / (2 * (1 - kappa))
        mu4 = mu2 + mu3 - 1
        gamma = max(1 - kappa,
                    (3 + 2 * sqrt2d / (d(1) / 2 - eps) ** 8) / 4)
        eps1 = 2 * (-n * delta ** 2 / 4).exp()
        eps2 = 2 * (-n * mu1 ** 2 / 16).exp()
        tail = (mu4 * n * gamma.ln()).exp()
        delta1 = 2 * (eps1 + eps2) + tail
        return {"mu2": mu2, "mu3": mu3, "mu4": mu4, "gamma": gamma,
                "eps_az1": eps1, "eps_az2": eps2, "delta1": delta1}

    cases = [
        ProtocolParams(n=100_000, eps=0.0, delta=1e-8, mu1=5e-4, kappa=1e-4),
        ProtocolParams(n=10_000, eps=0.1, delta=1e-9, mu1=2e-3, kappa=5e-4,
                       enforce_bounds=False),
        ProtocolParams(n=1_000_000, eps=0.25, delta=1e-12, mu1=1e-3,
                       kappa=2e-4, enforce_bounds=False),
    ]
    worst = 0.0
    for params in cases:
        rep = security_report(params)
        want = oracle(params.n, params.eps, params.delta, params.mu1,
                      params.kappa)
        for key, dec in want.items():
            got = Decimal(rep[key])
            rel = abs(got - dec) / abs(dec)
            worst = max(worst, float(rel))
            assert rel < Decimal("5e-12"), (key, params, float(rel))
    report(11, f"mu2, mu3, mu4, gamma, eps_az1, eps_az2, delta1 agree with "
               f"the 60-digit evaluation to >= 12 significant digits (worst "
               f"relative deviation {worst:.2e}); asymptotic composable-"
               f"distance statement substituted per the acceptance plan")


FROZEN_BODY_SHA256 = \
    "b5094a92308be20a4bb95e74574e4a8b9a49003142ff8558da8637f56637df08"


def test_criterion_12_replay_determinism(tmp_path):
    params = ProtocolParams(n=100_000)
    dev = make_iid_device(ideal_quantum_box(MODEL), derive_seed(20240801, 0, 1))
    src = SVSource(0, "unbiased", derive_seed(20240801, 0, 2))
    run = run_protocol(dev, src, params)
    path = tmp_path / "fixture.jsonl"
    write_transcript(run, path, config_hash="fixture")
    _, _, redo, summary = read_transcript(path)
    assert (redo.bell_average, redo.target_frequency, redo.verdict) == \
        (summary["Ln"], summary["Sn"], summary["verdict"])
    body = "\n".join(path.read_text().splitlines()[1:])
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert digest == FROZEN_BODY_SHA256
    # an aborted run must also replay identically
    dev2 = make_iid_device(uniform_box(), 3)
    params2 = ProtocolParams(n=5000)
    run2 = run_protocol(dev2, SVSource(0, "unbiased", 4), params2)
    redo2 = replay_transcript(params2, run2.cells)
    assert (redo2.bell_average, redo2.target_frequency, redo2.verdict) == \
        (run2.bell_average, run2.target_frequency, run2.verdict)
    assert redo2.verdict == "AbortBell"
    report(12, f"stored and replayed (Ln, Sn, verdict) identical for accepted"
               f" and aborted runs; transcript body digest {digest[:12]}... "
               f"matches the frozen fixture (second-platform comparison "
               f"anchor; this container is one platform)")
