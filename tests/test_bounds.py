import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randamp import bounds
from randamp.bounds import (_BLOCK_ROWS, _histograms, _simulate_traces,
                            _tail_check, _uniform_blocks, _word_limit,
                            azuma_bound, azuma_empirical, chernoff_bound,
                            chernoff_empirical, markov_split_epsilon,
                            relative_entropy, tail_checks)
import checks
from checks import (linear_fraction, qualifying_round_count,
                    settings_tail_empirical)


def test_azuma_bound_values():
    assert azuma_bound(100, 0.2) == pytest.approx(2 * math.exp(-2))
    assert azuma_bound(1000, 0.1) == pytest.approx(2 * math.exp(-5))
    with pytest.raises(ValueError):
        azuma_bound(100, 0)


def test_split_constant_dominates_direct():
    # direct tail <= split-form epsilon squared (the Markov route is valid)
    for n in (100, 1000):
        for s in (0.05, 0.1, 0.3):
            assert azuma_bound(n, s) <= markov_split_epsilon(n, s) ** 2


@pytest.mark.parametrize("bound,trials,slack", [
    (0.0, 100, 3e-7), (1.0, 10 ** 4, 3e-8), (0.5, 100, 0.15), (0.1, 900, 0.03)])
def test_tail_check_slack_is_three_standard_errors(bound, trials, slack):
    """slack = 3 sqrt(max(b (1 - b), 1e-12) / trials): three binomial
    standard errors of a frequency at the bound b, floored at b = 0 and 1.
    A frequency passes up to bound + slack and fails one float past it."""
    r = _tail_check(bound, bound, trials)
    assert r["slack"] == pytest.approx(slack, rel=1e-12)
    limit = bound + r["slack"]
    assert _tail_check(limit, bound, trials)["passed"]
    assert not _tail_check(math.nextafter(limit, 2), bound, trials)["passed"]


def test_azuma_empirical_fair_coin():
    r = azuma_empirical(("fair_coin",), n=1000, s=0.1, trials=10_000, seed=1)
    assert r["empirical"] <= r["bound"] + r["slack"]
    assert r["bound"] == pytest.approx(2 * math.exp(-5))


def test_azuma_empirical_deterministic_zero():
    r = azuma_empirical(("constant", 1), n=500, s=0.01, trials=2000, seed=2)
    assert r["empirical"] == 0.0


def test_azuma_empirical_markov():
    r = azuma_empirical(("markov", 0.3, 0.7), n=800, s=0.15, trials=5000, seed=3)
    assert r["empirical"] <= r["bound"] + r["slack"]


def _whole_traces(spec, n, trials, rng):
    """The whole-array reference: every trace from one (trials, n) draw."""
    if spec[0] == "fair_coin":
        return (rng.random((trials, n)) < 0.5).astype(np.int8), \
            np.full((trials, n), 0.5)
    if spec[0] == "constant":
        return np.full((trials, n), spec[1], dtype=np.int8), \
            np.full((trials, n), float(spec[1]))
    vals = np.zeros((trials, n), dtype=np.int8)
    means = np.zeros((trials, n))
    u = rng.random((trials, n))
    prev = np.zeros(trials, dtype=np.int8)
    for i in range(n):
        means[:, i] = p = np.where(prev == 0, spec[1], spec[2])
        vals[:, i] = prev = (u[:, i] < p).astype(np.int8)
    return vals, means


_BLOCK_EDGES = [1, _BLOCK_ROWS, _BLOCK_ROWS + 1]


@pytest.mark.parametrize("trials", _BLOCK_EDGES)
@pytest.mark.parametrize("spec", [("fair_coin",), ("constant", 1),
                                  ("markov", 0.3, 0.7)])
def test_blocked_traces_equal_one_whole_draw(spec, trials):
    """Blocks of rows are the rows of one (trials, n) draw, and the tail
    frequency reduced block by block is the one-shot frequency, exactly.
    A fair coin has no traces: its frequency is read off counts."""
    n, seed = 40, 11
    vals, means = _whole_traces(spec, n, trials, np.random.default_rng(seed))
    if spec[0] != "fair_coin":
        blocks = list(_simulate_traces(spec, n, trials,
                                       np.random.default_rng(seed)))
        assert len(blocks) == -(-trials // _BLOCK_ROWS)
        assert np.array_equal(np.concatenate([b[0] for b in blocks]), vals)
        assert np.array_equal(np.concatenate([b[1] for b in blocks]), means)
    dev = np.abs(vals.mean(axis=1) - means.mean(axis=1))
    for s in (0.01, 0.1, 0.2, 0.3):
        got = azuma_empirical(spec, n, s, trials, seed)["empirical"]
        assert got == float((dev >= s).mean()), (s, got)


@pytest.mark.parametrize("trials", _BLOCK_EDGES)
def test_blocked_chernoff_equals_one_whole_draw(trials):
    n, zeta, seed = 60, 0.25, 12
    counts = (np.random.default_rng(seed).random((trials, n)) < zeta).sum(axis=1)
    for gamma in (0.25, 0.3, 0.35, 0.5):
        got = chernoff_empirical(n, gamma, zeta, trials, seed)["empirical"]
        assert got == float((counts >= gamma * n).mean()), (gamma, got)


def test_azuma_empirical_memory_is_one_block():
    """10^4 traces of 2000 rounds held whole took about 340 MB; one block
    of rows at a time stays under 40 MB."""
    tracemalloc.start()
    try:
        azuma_empirical(("fair_coin",), 2000, 0.1, 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


# The rows `verify-bounds` reads off each n's stream.
_VB_DEVIATIONS = (0.05, 0.1, 0.2)
_VB_CHERNOFF = ((0.35, 0.25), (0.5, 0.25), (0.6, 0.5))


@pytest.mark.parametrize("trials", _BLOCK_EDGES)
@pytest.mark.parametrize("seed", [7, 10])
def test_shared_stream_checks_equal_the_standalone_ones(seed, trials):
    """Every row read off one stream is the standalone check's dict, and
    its frequency is the one of a whole (trials, n) draw."""
    n = 100
    azuma, chernoff = tail_checks(n, _VB_DEVIATIONS, _VB_CHERNOFF, trials, seed)
    assert azuma == [azuma_empirical(("fair_coin",), n, s, trials, seed)
                     for s in _VB_DEVIATIONS]
    assert chernoff == [chernoff_empirical(n, gamma, zeta, trials, seed)
                        for gamma, zeta in _VB_CHERNOFF]
    u = np.random.default_rng(seed).random((trials, n))
    dev = np.abs((u < 0.5).astype(np.int8).mean(axis=1)
                 - np.full((trials, n), 0.5).mean(axis=1))
    assert [r["empirical"] for r in azuma] == \
        [float((dev >= s).mean()) for s in _VB_DEVIATIONS]
    assert [r["empirical"] for r in chernoff] == \
        [float(((u < zeta).sum(axis=1) >= gamma * n).mean())
         for gamma, zeta in _VB_CHERNOFF]


def test_shared_stream_memory_is_one_block():
    """All six rows of one n from one stream, held one block at a time."""
    tracemalloc.start()
    try:
        tail_checks(2000, _VB_DEVIATIONS, _VB_CHERNOFF, 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


def test_shared_stream_memory_on_four_workers_is_one_block():
    """Four row ranges on four threads hold one block of words each, and
    count what one serial range counts."""
    tracemalloc.start()
    try:
        with ThreadPoolExecutor(4) as pool:
            got = tail_checks(2000, _VB_DEVIATIONS, _VB_CHERNOFF, 10_000, 0,
                              pool, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak
    assert got == tail_checks(2000, _VB_DEVIATIONS, _VB_CHERNOFF, 10_000)


def _float_histograms(n, zs, trials, seed):
    """The float reference for `_histograms`: each row's count of the
    doubles of `Generator.random` below z."""
    hists = {z: np.zeros(n + 1, dtype=np.int64) for z in zs}
    for u in _uniform_blocks(n, trials, np.random.default_rng(seed)):
        for z, hist in hists.items():
            hist += np.bincount(np.count_nonzero(u < z, axis=1), minlength=n + 1)
    return hists


def _float_tail_checks(n, deviations, chernoff_params, trials, seed):
    """The float reference for `tail_checks`, read off `_float_histograms`."""
    hists = _float_histograms(n, list(dict.fromkeys(
        ([0.5] if deviations else []) + [z for _, z in chernoff_params])),
        trials, seed)
    k = np.arange(n + 1)
    azuma = [_tail_check(int(hists[0.5][np.abs(k / n - 0.5) >= s].sum()) / trials,
                         azuma_bound(n, s), trials, n=n, s=s)
             for s in deviations]
    chernoff = [_tail_check(int(hists[zeta][k >= gamma * n].sum()) / trials,
                            chernoff_bound(n, gamma, zeta), trials,
                            n=n, gamma=gamma, zeta=zeta)
                for gamma, zeta in chernoff_params]
    return azuma, chernoff


_EDGE_ZS = (0.0, 2.0 ** -53, 0.25, 0.5, 1 - 2.0 ** -53, 1.0)


@pytest.mark.parametrize("z", _EDGE_ZS + (0.1, 1 / 3, 0.75))
def test_word_limit_is_the_first_word_whose_uniform_reaches_z(z):
    limit = _word_limit(z)

    def uniform(w):
        return (w >> 11) * 2.0 ** -53

    assert uniform(limit - 1) < z <= uniform(limit)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 50), trials=st.integers(1, 300),
       seed=st.integers(0, 2 ** 128 - 1), workers=st.integers(1, 4),
       threaded=st.booleans(), block_words=st.integers(1, 120),
       zs=st.lists(st.sampled_from(_EDGE_ZS), min_size=1, unique=True))
@example(n=7, trials=10, seed=0, workers=3, threaded=False, block_words=14,
         zs=[0.25])
@example(n=50, trials=300, seed=3, workers=4, threaded=True, block_words=120,
         zs=list(_EDGE_ZS))
def test_word_counts_equal_the_float_path(n, trials, seed, workers, threaded,
                                          block_words, zs):
    """Counted off raw words, in row ranges that start anywhere in a block
    of words, on threads or one after another, every row's count below z
    is the float path's, and so is every check."""
    params = [(gamma, z) for z in zs for gamma in sorted({z, 0.5, 1.0})
              if gamma >= z]
    with pytest.MonkeyPatch.context() as mp, \
            (ThreadPoolExecutor(workers) if threaded else nullcontext()) as pool:
        mp.setattr(bounds, "_BLOCK_WORDS", block_words)
        got = _histograms(n, zs, trials, seed, pool, workers)
        checks = tail_checks(n, (0.01, 0.2), params, trials, seed, pool, workers)
    want = _float_histograms(n, zs, trials, seed)
    assert list(got) == list(want)
    for z in zs:
        assert got[z].tolist() == want[z].tolist(), z
    assert checks == _float_tail_checks(n, (0.01, 0.2), params, trials, seed)


def test_tail_checks_reads_each_argument_once():
    assert tail_checks(50, iter([0.1]), iter([(0.5, 0.25)]), 100, 3) == \
        tail_checks(50, [0.1], [(0.5, 0.25)], 100, 3)


def test_a_zeta_of_one_counts_every_row():
    assert chernoff_empirical(100, 1.0, 1.0, 1000)["empirical"] == 1.0


@pytest.mark.parametrize("args", [
    (100, [0.0], [], 10), (100, [-0.1], [], 10), (100, [float("nan")], [], 10),
    (100, [], [(0.3, 0.5)], 10), (100, [], [(1.5, 0.5)], 10),
    (100, [], [(0.5, -0.1)], 10), (100, [0.1], [(0.5, float("nan"))], 10),
    (0, [0.1], [], 10), (-1, [], [(0.5, 0.25)], 10),
    (100, [0.1], [], 0), (100, [], [(0.5, 0.25)], -5)])
def test_tail_checks_rejects_bad_arguments_before_any_draw(monkeypatch, args):
    def no_draw(*_):
        raise AssertionError("drew before checking the arguments")

    monkeypatch.setattr(np.random, "PCG64", no_draw)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(AssertionError):        # the patch does stop a draw
        tail_checks(100, [0.1], [(0.5, 0.25)], 10)
    with pytest.raises(ValueError):
        tail_checks(*args)


def test_linear_fraction_all_equal():
    idx = linear_fraction([0.04] * 25, 0.04)
    assert idx == list(range(25))


def test_linear_fraction_spikes():
    n, k = 100, 4
    delta = 0.05
    vals = [1.0] * k + [0.0] * (n - k)       # mean 0.04 <= delta
    idx = linear_fraction(vals, delta)
    assert len(idx) == n - k
    assert len(idx) >= (1 - math.sqrt(delta)) * n


def test_linear_fraction_precondition():
    with pytest.raises(ValueError):
        linear_fraction([0.5, 0.5], 0.1)
    # within an absolute 1e-12 of delta, but 10^17 times it
    with pytest.raises(ValueError):
        linear_fraction([1e-13], 1e-30)
    # a float mean of 0.10000000000000002, an exact mean of delta
    assert linear_fraction([0.1] * 3, 0.1) == [0, 1, 2]


def test_linear_fraction_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        n = int(rng.integers(2, 60))
        delta = float(rng.uniform(0.01, 0.5))
        vals = rng.uniform(0, 1, n)
        scale = rng.uniform(0, delta) / max(vals.mean(), 1e-12)
        vals = np.minimum(vals * scale, 1.0)
        idx = linear_fraction(vals, delta)      # its own check raises too
        assert len(idx) >= (1 - math.sqrt(delta)) * n - 1e-9


def test_qualifying_round_count_examples():
    n = 600
    mu1, kappa = 0.5, 0.1
    # every round at the target with constant conditional 0.3 >= kappa
    flags = np.ones(n, dtype=bool)
    cond = np.full(n, 0.3)
    count = qualifying_round_count(flags, cond, mu1, kappa)
    assert count == n
    assert count >= n * (mu1 - 2 * kappa) / (2 * (1 - kappa))  # n/6 floor


def test_qualifying_round_count_floor_kappa_limit():
    # as kappa -> 0+, the floor approaches mu1 n / 2
    n, mu1 = 1000, 0.4
    floor = n * (mu1 - 2e-9) / (2 * (1 - 1e-9))
    assert floor == pytest.approx(mu1 * n / 2, rel=1e-6)


def test_qualifying_round_count_precondition():
    with pytest.raises(ValueError):
        qualifying_round_count(np.ones(10, bool), np.full(10, 0.01), 0.5, 0.1)
    # an average 6e-13 below mu1/2, within the absolute 1e-12 once allowed
    with pytest.raises(ValueError):
        qualifying_round_count(np.ones(10 ** 4, bool),
                               np.full(10 ** 4, 0.25 - 1e-13),
                               0.5 + 1e-12, 0.25)


_BROKEN_BOUNDS = """
import math, types
from fractions import Fraction
import numpy as np
import checks
import randamp.bounds as b
import randamp.extractor as ex
assert not __debug__


def patched(module, **attrs):
    return types.SimpleNamespace(**{**vars(module), **attrs})


cases = [(checks, "math", patched(math, sqrt=lambda x: 0.0),
          lambda: checks.linear_fraction([0.5, 0.5], 1.0)),
         (checks, "np", patched(np, sum=lambda a: 0),
          lambda: checks.qualifying_round_count([True] * 4, [0.5] * 4,
                                                0.5, 0.1)),
         (b, "math", patched(math, log=lambda x: 0.0),
          lambda: b.chernoff_bound(10, 0.9, 0.5)),
         (ex, "sequence_probability_bound", lambda k, g: Fraction(0),
          lambda: ex.max_sequence_probability_product(3, [0, 2], 0.5))]
for module, name, value, call in cases:
    kept = getattr(module, name)
    setattr(module, name, value)
    try:
        call()
        print("returned")
    except ArithmeticError as e:
        print(e)
    finally:
        setattr(module, name, kept)
"""


def test_claimed_bounds_are_checked_under_python_O():
    """`checks.linear_fraction`, `checks.qualifying_round_count`,
    `relative_entropy` (through `chernoff_bound`) and
    `extractor.max_sequence_probability_product` raise ArithmeticError when
    their claimed bound fails, under `python -O` too (it strips asserts):
    each runs with what it computes the bound from patched to break it."""
    src = str(Path(bounds.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, str(Path(checks.__file__).parent),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_BOUNDS],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "linear-fraction bound violated: 0 of 2 values at most sqrt(delta)",
        "count 0 below floor 0.6666666666666666",
        "Pinsker-type floor violated: D = 0.0 < 2 (gamma - zeta)^2",
        "product maximum 1/4 is not gamma^k = 0"]


def test_relative_entropy_values():
    d = relative_entropy(0.5, 0.25)
    assert d == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(2 / 3))
    assert d >= 2 * 0.25 ** 2
    assert relative_entropy(0.3, 0.3) == 0.0
    assert relative_entropy(1.0, 0.25) == pytest.approx(math.log(4))
    assert relative_entropy(0.5, 0.0) == math.inf
    with pytest.raises(ValueError):
        relative_entropy(0.2, 0.3)


def test_chernoff_bound_edges():
    assert chernoff_bound(100, 0.3, 0.3) == 1.0
    assert chernoff_bound(10, 0.5, 0.0) == 0.0
    assert chernoff_bound(100, 0.5, 0.25) == pytest.approx(
        math.exp(-100 * relative_entropy(0.5, 0.25)))


def test_chernoff_bound_monotone():
    b = [chernoff_bound(n, 0.4, 0.25) for n in (50, 100, 200)]
    assert b[0] > b[1] > b[2]
    g = [chernoff_bound(100, gamma, 0.25) for gamma in (0.3, 0.4, 0.5)]
    assert g[0] > g[1] > g[2]


def test_chernoff_empirical_iid():
    r = chernoff_empirical(n=100, gamma=0.35, zeta=0.25, trials=10_000, seed=4)
    assert r["empirical"] <= r["bound"] + r["slack"]
    assert 0 < r["bound"] < 1


def test_settings_tail_unbiased():
    # zeta = 255/256; gamma inside (zeta, 1)
    r = settings_tail_empirical(0, "unbiased", n=2000, gamma=0.998,
                                trials=10_000, seed=5)
    assert r["empirical"] <= r["bound"] + r["slack"]


def test_settings_tail_avoidance_adversary():
    eps = Fraction(1, 10)
    zeta = 1 - float((Fraction(1, 2) - eps) ** 8)
    gamma = min(zeta + 0.02, 1.0)     # clamp: D(1||z) = ln(1/z) by continuity
    r = settings_tail_empirical(eps, ("avoid_target",), n=2000, gamma=gamma,
                                trials=10_000, seed=6)
    assert r["empirical"] <= r["bound"] + r["slack"]
    assert r["zeta"] == pytest.approx(zeta)


def test_settings_tail_bias_cycle_of_any_length():
    # a 3-entry cycle gives every block of a 3-block period its own row
    eps = 0.05
    zeta = 1 - float((Fraction(1, 2) - Fraction(eps)) ** 8)
    r = settings_tail_empirical(eps, ("constant_bias", [eps, -eps, 0.0]),
                                n=500, gamma=min(zeta + 0.01, 1.0),
                                trials=2000, seed=8)
    assert r["empirical"] <= r["bound"] + r["slack"]
    assert r["zeta"] == pytest.approx(zeta)


def test_closed_form_monotonicity():
    assert azuma_bound(100, 0.1) > azuma_bound(100, 0.2)
    assert azuma_bound(100, 0.1) > azuma_bound(1000, 0.1)
    assert chernoff_bound(100, 0.4, 0.25) > chernoff_bound(400, 0.4, 0.25)
