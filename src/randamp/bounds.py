"""Concentration bounds used by the protocol analysis, with Monte Carlo
validators that compare empirical tail frequencies against the closed forms.

The empirical checks are white-box: they simulate processes whose
conditional means are known by construction, because the arithmetic average
of conditional means is not observable from a transcript alone.  All checks
are one-sided (empirical frequency must not exceed the bound plus sampling
slack) and seeded, and each returns its verdict as `passed` rather than
raising, so a failed check stays visible under `python -O`.

Two tail constants appear for the same deviation `s`: the direct martingale
tail 2 exp(-n s^2 / 2), and the weaker 2 exp(-n s^2 / 4) used when the tail
statement is split through a Markov step into "a set of histories of measure
1 - eps, on each of which the bad outcomes have mass at most eps" (take
eps^2 = the direct tail, up to the constant).  Both are exposed;
`azuma_bound` is the direct one, `markov_split_epsilon` the split one.
"""

from __future__ import annotations

import math

import numpy as np

from .ks_bell import TARGET_SETTINGS, pair_index
from .sv_source import (BITS_PER_ROUND, BLOCK_PAIR, make_strategy, walk,
                        _as_fraction)


def azuma_bound(n: int, s: float) -> float:
    """Tail bound 2 exp(-n s^2 / 2) on |L_n - Lbar_n| >= s."""
    if s <= 0:
        raise ValueError("deviation must be positive")
    return 2.0 * math.exp(-n * s * s / 2.0)


def markov_split_epsilon(n: int, s: float) -> float:
    """The split-form constant 2 exp(-n s^2 / 4); see module docstring."""
    if s <= 0:
        raise ValueError("deviation must be positive")
    return 2.0 * math.exp(-n * s * s / 4.0)


# Trials drawn at once by the Monte Carlo validators: 16 MB of uniforms at
# n = 2000.  Generator.random fills row-major, so consecutive blocks of rows
# are the rows of one (trials, n) draw, in order.
_BLOCK_ROWS = 1024


def _row_blocks(trials: int):
    """Row counts of the consecutive blocks that make up `trials` rows."""
    for start in range(0, trials, _BLOCK_ROWS):
        yield min(_BLOCK_ROWS, trials - start)


def _uniform_blocks(n: int, trials: int, rng: np.random.Generator):
    """The consecutive (rows, n) blocks of one (trials, n) uniform draw,
    each drawn into the same buffer, so a block is valid until the next."""
    buf = np.empty((min(trials, _BLOCK_ROWS), n))
    for rows in _row_blocks(trials):
        yield rng.random(out=buf[:rows])


def _simulate_traces(spec, n: int, trials: int, rng: np.random.Generator):
    """Vectorized white-box Bernoulli processes, one block of rows at a time.

    Kinds: ("constant", bit), ("markov", p_after0, p_after1) with round 0
    mean p_after0 (a fair coin is read off counts, in `tail_checks`).
    Yields (indicators, conditional_means) of shape (rows, n) per block;
    a constant array may be a broadcast view.
    """
    kind = spec[0] if isinstance(spec, (tuple, list)) else spec
    if kind not in ("constant", "markov"):
        raise ValueError(f"unknown trace spec {spec!r}")
    if kind == "constant":
        bit = int(spec[1])
        for rows in _row_blocks(trials):
            yield (np.broadcast_to(np.int8(bit), (rows, n)),
                   np.broadcast_to(float(bit), (rows, n)))
        return
    p0, p1 = float(spec[1]), float(spec[2])
    for u in _uniform_blocks(n, trials, rng):
        rows = len(u)
        vals = np.zeros((rows, n), dtype=np.int8)
        means = np.zeros((rows, n))
        prev = np.zeros(rows, dtype=np.int8)
        for i in range(n):
            p = np.where(prev == 0, p0, p1)
            means[:, i] = p
            vals[:, i] = (u[:, i] < p).astype(np.int8)
            prev = vals[:, i]
        yield vals, means


def _tail_check(freq: float, bound: float, trials: int, **fields) -> dict:
    """Verdict of one tail check: passed iff the empirical frequency is at
    most bound + 3 sigma, sigma the binomial standard error of a frequency
    estimate at the bound."""
    slack = 3.0 * math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
    return {"empirical": freq, "bound": bound, "slack": slack,
            "passed": freq <= bound + slack, "trials": trials, **fields}


def tail_checks(n: int, deviations, chernoff_params, trials: int,
                seed: int = 0) -> tuple[list[dict], list[dict]]:
    """Fair-coin Azuma checks, one per deviation s, and iid Chernoff
    checks, one per (gamma, zeta), all read off one seeded stream at n.

    A row's fair-coin indicators are its uniforms below 1/2, so its
    |L_n - Lbar_n| is |k(1/2) / n - 1/2|, and its Chernoff sum at zeta is
    k(zeta), with k(z) the row's count of uniforms below z.  Each check is
    the one `azuma_empirical(("fair_coin",), ...)` or `chernoff_empirical`
    returns for the same arguments.
    """
    # hists[z][k]: the rows with k uniforms below z; drawn once, by block
    hists = {z: np.zeros(n + 1, dtype=np.int64) for z in
             ([0.5] if deviations else []) + [z for _, z in chernoff_params]}
    for u in _uniform_blocks(n, trials, np.random.default_rng(seed)):
        for z, hist in hists.items():
            hist += np.bincount(np.count_nonzero(u < z, axis=1), minlength=n + 1)
    k = np.arange(n + 1)
    azuma = [_tail_check(int(hists[0.5][np.abs(k / n - 0.5) >= s].sum()) / trials,
                         azuma_bound(n, s), trials, n=n, s=s)
             for s in deviations]
    chernoff = [_tail_check(int(hists[zeta][k >= gamma * n].sum()) / trials,
                            chernoff_bound(n, gamma, zeta), trials,
                            n=n, gamma=gamma, zeta=zeta)
                for gamma, zeta in chernoff_params]
    return azuma, chernoff


def azuma_empirical(spec, n: int, s: float, trials: int, seed: int = 0) -> dict:
    """Fraction of trials with |L_n - Lbar_n| >= s, against the bound."""
    kind = spec[0] if isinstance(spec, (tuple, list)) else spec
    if kind == "fair_coin":
        return tail_checks(n, [s], [], trials, seed)[0][0]
    rng = np.random.default_rng(seed)
    hits = sum(int((np.abs(vals.mean(axis=1) - means.mean(axis=1)) >= s).sum())
               for vals, means in _simulate_traces(spec, n, trials, rng))
    return _tail_check(hits / trials, azuma_bound(n, s), trials, n=n, s=s)


def linear_fraction(values, delta: float) -> list[int]:
    """Indices i with values[i] <= sqrt(delta), given mean(values) <= delta.

    By Markov's inequality fewer than sqrt(delta) * n entries can exceed
    sqrt(delta), so the returned set has size >= (1 - sqrt(delta)) * n;
    this postcondition is asserted on every call.
    """
    vals = np.asarray(values, dtype=float)
    n = len(vals)
    if n == 0 or delta <= 0:
        raise ValueError("need nonempty values and delta > 0")
    if vals.mean() > delta + 1e-12:
        raise ValueError(f"mean {vals.mean()} exceeds delta {delta}")
    root = math.sqrt(delta)
    idx = np.flatnonzero(vals <= root).tolist()
    assert len(idx) >= (1.0 - root) * n - 1e-9, "linear-fraction bound violated"
    return idx


def qualifying_round_count(trace_target_flags, conditionals,
                           mu1: float, kappa: float) -> int:
    """Rounds at the target setting whose conditional target-outcome
    probability is at least kappa.

    Precondition: the conditional average of the per-round target indicator
    is at least mu1/2.  The count is then at least
    n (mu1 - 2 kappa) / (2 (1 - kappa)): rounds below kappa contribute less
    than kappa to the average, so the qualifying rounds must carry the rest.
    The lower bound is asserted.
    """
    flags = np.asarray(trace_target_flags, dtype=bool)
    cond = np.asarray(conditionals, dtype=float)
    if flags.shape != cond.shape:
        raise ValueError("flag / conditional length mismatch")
    if not 0 < kappa < 1:
        raise ValueError("kappa must be in (0, 1)")
    n = len(flags)
    s_bar = float((flags * cond).mean())
    if s_bar < mu1 / 2 - 1e-12:
        raise ValueError(f"conditional average {s_bar} below mu1/2 = {mu1 / 2}")
    count = int(np.sum(flags & (cond >= kappa)))
    floor = n * (mu1 - 2 * kappa) / (2 * (1 - kappa))
    assert count >= floor - 1e-9, f"count {count} below floor {floor}"
    return count


def relative_entropy(gamma: float, zeta: float) -> float:
    """Binary relative entropy D(gamma || zeta) in nats.

    Edge conventions by continuity: D(g||g) = 0; D(1||z) = ln(1/z);
    D(0||z) = ln(1/(1-z)); a zero/one reference with a differing argument
    gives +inf.
    """
    if not (0 <= zeta <= gamma <= 1):
        raise ValueError("need 0 <= zeta <= gamma <= 1")
    if gamma == zeta:
        return 0.0
    if zeta == 0.0:
        return math.inf                       # gamma > 0 against zero reference
    if gamma == 1.0:
        d = math.log(1.0 / zeta)
    elif gamma == 0.0:
        d = math.log(1.0 / (1.0 - zeta))
    else:
        d = gamma * math.log(gamma / zeta) \
            + (1.0 - gamma) * math.log((1.0 - gamma) / (1.0 - zeta))
    assert d >= 2.0 * (gamma - zeta) ** 2 - 1e-12, "Pinsker-type floor violated"
    return d


def chernoff_bound(n: int, gamma: float, zeta: float) -> float:
    """exp(-n D(gamma||zeta)): tail bound on sum X_i >= gamma n for Boolean
    variables whose joint hitting probabilities are dominated by zeta^|S|."""
    d = relative_entropy(gamma, zeta)
    return math.exp(-n * d) if d != math.inf else 0.0


def chernoff_empirical(n: int, gamma: float, zeta: float, trials: int,
                       seed: int = 0) -> dict:
    """Validate the tail bound on iid Bernoulli(zeta), which meets the
    product premise with equality."""
    return tail_checks(n, [], [(gamma, zeta)], trials, seed)[1][0]


def settings_tail_empirical(eps, strategy_spec, n: int, gamma: float,
                            trials: int, seed: int = 0) -> dict:
    """Tail of "tomography target `ks_bell.TARGET_SETTINGS` missed in
    >= gamma n rounds" under a source-driven settings stream, against
    exp(-n D(gamma||zeta)).

    zeta = 1 - (1/2 - eps)^8.  Each round walks every trial's block down
    the strategy's block tree at once, through the `sv_source.walk` that
    the source's own stream draws from; bias cycles may have any length.
    """
    epsf = _as_fraction(eps)
    zeta = float(1 - (1 - 2 * epsf) ** 8 / 256)   # 1 - (1/2-eps)^8, exactly
    floats = np.array(make_strategy(strategy_spec, epsf).floats)
    is_miss = BLOCK_PAIR != pair_index(*TARGET_SETTINGS)
    rng = np.random.default_rng(seed)
    misses = np.zeros(trials, dtype=np.int64)
    for i in range(n):
        misses += is_miss[walk(floats, np.full(trials, i),
                               rng.random((BITS_PER_ROUND, trials)).T)]
    return _tail_check(float((misses >= gamma * n).mean()),
                       chernoff_bound(n, gamma, zeta), trials,
                       zeta=zeta, n=n, gamma=gamma)
