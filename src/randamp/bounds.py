"""Concentration bounds used by the protocol analysis, with Monte Carlo
validators that compare empirical tail frequencies against the closed forms.
The module reads no other part of the package: the checks that draw
settings through a source, and the Markov and qualifying-round steps of
the security chain, are test oracles (`tests/checks.py`).

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

The fair-coin and iid checks (`tail_checks`) count each row's uniforms
below z off the raw 64-bit words of the seed's PCG64 stream, never as
doubles.  The rows are split into contiguous ranges, one per worker, each
drawn from its own copy of the stream advanced to the range's first word,
so the counts are those of one (trials, n) draw on any number of threads.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np


def azuma_bound(n: int, s: float) -> float:
    """Tail bound 2 exp(-n s^2 / 2) on |L_n - Lbar_n| >= s."""
    if not s > 0:
        raise ValueError("deviation must be positive")
    return 2.0 * math.exp(-n * s * s / 2.0)


def markov_split_epsilon(n: int, s: float) -> float:
    """The split-form constant 2 exp(-n s^2 / 4); see module docstring."""
    if not s > 0:
        raise ValueError("deviation must be positive")
    return 2.0 * math.exp(-n * s * s / 4.0)


# Trials drawn at once by the trace simulator: 16 MB of uniforms at
# n = 2000.  Generator.random fills row-major, so consecutive blocks of rows
# are the rows of one (trials, n) draw, in order.
_BLOCK_ROWS = 1024
# Raw words one row range of `tail_checks` draws at once (whole rows, at
# least one): 1 MB and its 128 kB compare a worker, so up to 13 workers
# together hold less than `_BLOCK_ROWS` rows of doubles at n = 2000.
_BLOCK_WORDS = 1 << 17


def _uniform_blocks(n: int, trials: int, rng: np.random.Generator):
    """The consecutive (rows, n) blocks of one (trials, n) uniform draw,
    each drawn into the same buffer, so a block is valid until the next."""
    buf = np.empty((min(trials, _BLOCK_ROWS), n))
    for start in range(0, trials, _BLOCK_ROWS):
        yield rng.random(out=buf[:min(_BLOCK_ROWS, trials - start)])


def _simulate_traces(spec, n: int, trials: int, rng: np.random.Generator):
    """Vectorized white-box Bernoulli processes, one block of rows at a time.

    Kinds: ("constant", bit), ("markov", p_after0, p_after1) with round 0
    mean p_after0 (a fair coin is read off counts, in `tail_checks`).  A
    constant bit is the chain with p_after0 = p_after1 = bit: every uniform
    lies in [0, 1), so it is below 1 and never below 0.
    Yields (indicators, conditional_means) of shape (rows, n) per block.
    """
    kind = spec[0] if isinstance(spec, (tuple, list)) else spec
    if kind not in ("constant", "markov"):
        raise ValueError(f"unknown trace spec {spec!r}")
    if kind == "constant":
        spec = ("markov", spec[1], spec[1])
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


def _word_limit(z) -> int:
    """The raw words w whose uniform (w >> 11) * 2^-53 is below z are the
    w below this limit; at z >= 1 it is 2^64 or more, so every word."""
    return math.ceil(z * 2 ** 53) << 11


def _counts_below(n: int, limits, seed: int, start: int, stop: int):
    """hists[j][k]: the rows start..stop-1 of the seed's (trials, n) word
    stream that hold k words below limits[j], read one block at a time."""
    bitgen = np.random.PCG64(seed)
    bitgen.advance(start * n)
    rows = max(1, _BLOCK_WORDS // n)
    per_row = np.uint16 if n < 1 << 16 else np.int64   # the fastest that holds n
    hists = np.zeros((len(limits), n + 1), dtype=np.int64)
    for first in range(start, stop, rows):
        words = bitgen.random_raw(min(rows, stop - first) * n).reshape(-1, n)
        for hist, limit in zip(hists, limits):
            if limit >> 64:
                hist[n] += len(words)
            else:
                hist += np.bincount((words < limit).sum(axis=1, dtype=per_row),
                                    minlength=n + 1)
    return hists


def _histograms(n: int, zs, trials: int, seed: int, executor=None,
                workers: int = 1) -> dict:
    """{z: hist} with hist[k] the rows of the seed's (trials, n) uniform
    draw that hold k uniforms below z, counted in `workers` contiguous row
    ranges, on `executor` when given and else one after another."""
    limits = [_word_limit(z) for z in zs]
    workers = min(workers, trials)
    edges = [trials * i // workers for i in range(workers + 1)]
    parts = (executor.map if executor else map)(
        _counts_below, repeat(n), repeat(limits), repeat(seed),
        edges[:-1], edges[1:])
    return dict(zip(zs, sum(parts)))


def tail_checks(n: int, deviations, chernoff_params, trials: int,
                seed: int = 0, executor=None,
                workers: int = 1) -> tuple[list[dict], list[dict]]:
    """Fair-coin Azuma checks, one per deviation s, and iid Chernoff
    checks, one per (gamma, zeta), all read off one seeded stream at n.

    A row's fair-coin indicators are its uniforms below 1/2, so its
    |L_n - Lbar_n| is |k(1/2) / n - 1/2|, and its Chernoff sum at zeta is
    k(zeta), with k(z) the row's count of uniforms below z.  Each check is
    the one `azuma_empirical(("fair_coin",), ...)` or `chernoff_empirical`
    returns for the same arguments, whatever `executor` and `workers`
    (see `_histograms`).  Every argument is checked before the draw.
    """
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    azuma = [(s, azuma_bound(n, s)) for s in deviations]
    chernoff = [(gamma, zeta, chernoff_bound(n, gamma, zeta))
                for gamma, zeta in chernoff_params]
    hists = _histograms(n, list(dict.fromkeys(
        ([0.5] if azuma else []) + [zeta for _, zeta, _ in chernoff])),
        trials, seed, executor, workers)
    k = np.arange(n + 1)
    return ([_tail_check(int(hists[0.5][np.abs(k / n - 0.5) >= s].sum()) / trials,
                         bound, trials, n=n, s=s) for s, bound in azuma],
            [_tail_check(int(hists[zeta][k >= gamma * n].sum()) / trials,
                         bound, trials, n=n, gamma=gamma, zeta=zeta)
             for gamma, zeta, bound in chernoff])


def azuma_empirical(spec, n: int, s: float, trials: int, seed: int = 0) -> dict:
    """Fraction of trials with |L_n - Lbar_n| >= s, against the bound."""
    kind = spec[0] if isinstance(spec, (tuple, list)) else spec
    if kind == "fair_coin":
        return tail_checks(n, [s], [], trials, seed)[0][0]
    rng = np.random.default_rng(seed)
    hits = sum(int((np.abs(vals.mean(axis=1) - means.mean(axis=1)) >= s).sum())
               for vals, means in _simulate_traces(spec, n, trials, rng))
    return _tail_check(hits / trials, azuma_bound(n, s), trials, n=n, s=s)


def relative_entropy(gamma: float, zeta: float) -> float:
    """Binary relative entropy D(gamma || zeta) in nats.

    Edge conventions by continuity: D(g||g) = 0; D(g||0) = +inf for
    g > 0; D(1||z) = ln(1/z).  The domain zeta <= gamma leaves no other
    edge: gamma = 0 forces zeta = gamma.  The Pinsker-type floor
    D >= 2 (gamma - zeta)^2 is checked (ArithmeticError if not).
    """
    if not (0 <= zeta <= gamma <= 1):
        raise ValueError("need 0 <= zeta <= gamma <= 1")
    if gamma == zeta:
        return 0.0
    if zeta == 0.0:
        return math.inf                       # gamma > 0 against zero reference
    if gamma == 1.0:
        d = math.log(1.0 / zeta)
    else:
        d = gamma * math.log(gamma / zeta) \
            + (1.0 - gamma) * math.log((1.0 - gamma) / (1.0 - zeta))
    if not d >= 2.0 * (gamma - zeta) ** 2 - 1e-12:
        raise ArithmeticError(f"Pinsker-type floor violated: D = {d}"
                              f" < 2 (gamma - zeta)^2")
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
