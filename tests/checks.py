"""Checks of the product objects and claim oracles that no command runs.

Product objects: the Bell sum of a table, a float table as Fractions, a
behavior's normalization and signaling residuals, the local deterministic
boxes, a source's exact conditional law, the LP's 657 equality rows as one
dense table, the reference that `ns_certify._nonzeros` is pinned to, and
the vertex HiGHS returns when it minimizes the target, the reference that
`ns_certify._ZERO_TARGET_WORDS` is pinned to.  Tables are (9, 9, 4, 4)
arrays indexed [u1-1, u2-1, x1-1, x2-1], so flat entry c is cell c
(`ks_bell.var_index`); an object table of Fractions sums exactly.

Claim oracles: the Markov linear-fraction step and the qualifying-round
count of the security chain, each checking its claimed bound
(ArithmeticError, also under `python -O`) after an exact check of its
premise (ValueError); the settings tail under a source-driven settings
stream, drawn through `sv_reference.walk`; a per-bit and chi-square
uniformity test of extractor outputs; and the composable distance of a
toy output box.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

import sv_reference
from randamp.bounds import _tail_check, chernoff_bound
from randamp.boxes import Behavior
from randamp.ks_bell import N_CELLS, TARGET_SETTINGS, pair_index
from randamp.ns_certify import _N_NORM, load_highs
from randamp.sv_source import (BITS_PER_ROUND, BLOCK_PAIR, _as_fraction,
                               make_strategy)


def bell_sum(values, f, weights=None):
    """The sum of `values` at the Bell cells of f, each weighted by
    weights[u1-1, u2-1] of its setting pair when given: on an `exact_table`
    the exact indicator mass, on a float table with weights nu the Bell
    value under setting measure nu."""
    cells = np.array(f.bell_cells)
    terms = np.asarray(values).ravel()[cells]
    if weights is not None:
        terms = terms * np.asarray(weights).ravel()[cells // 16]
    return terms.sum()


def exact_table(table) -> np.ndarray:
    """The float table as an object array of Fractions, entry by entry:
    Fraction(v) is v exactly, so a dyadic table keeps its exact values."""
    return np.array([Fraction(v) for v in np.ravel(table).tolist()],
                    dtype=object).reshape(np.shape(table))


def residuals(table):
    """(normalization, signaling): the largest |sum_x P(x|u) - 1| over the
    setting pairs, and the largest spread of either party's marginal over
    the other party's setting."""
    alice, bob = table.sum(axis=3), table.sum(axis=2)   # (u1, u2, x)
    signaling = max((alice.max(axis=1) - alice.min(axis=1)).max(),
                    (bob.max(axis=0) - bob.min(axis=0)).max())
    return float(np.abs(table.sum(axis=(2, 3)) - 1).max()), float(signaling)


def deterministic_behavior(alice, bob):
    """Local deterministic box: outcome (alice[u1-1], bob[u2-1]) w.p. 1."""
    table = np.zeros((9, 9, 4, 4))
    u, x1, x2 = np.arange(9), np.subtract(alice, 1), np.subtract(bob, 1)
    table[u[:, None], u, x1[:, None], x2] = 1.0
    return Behavior(table=table, meta={"kind": "deterministic"})


def exact_p0(source, history):
    """The exact P(0) of `source`'s bit after the bit list `history`: the
    entry of `source.strategy.rows` at the history's block row and at the
    node its last, partial block has reached (node 1 the root, bit b moving
    to 2*node + b)."""
    depth = len(history) % BITS_PER_ROUND
    node = 1
    for b in history[len(history) - depth:]:
        node = 2 * node + b
    rows = source.strategy.rows
    return rows[len(history) // BITS_PER_ROUND % len(rows)][node]


@lru_cache(maxsize=None)
def equalities() -> np.ndarray:
    """The (657, 1296) equality table in {-1, 0, +1}, rows in the order
    the `ns_certify` docstring gives; read-only, as every caller shares it."""
    u1, u2, x1, x2 = (a.ravel() for a in np.indices((9, 9, 4, 4)))
    own, out, other = (a.reshape(-1, 1) for a in np.indices((9, 4, 8)))

    def signaling(u, x, v):     # (u, x)'s marginal at v = other + 1 minus at v = 0
        fixed = (u == own) & (x == out)
        return (fixed & (v == other + 1)).astype(np.int8) - (fixed & (v == 0))

    norm = np.arange(_N_NORM)[:, None] == 9 * u1 + u2
    table = np.concatenate([norm, signaling(u1, x1, u2), signaling(u2, x2, u1)],
                           dtype=np.int8)
    table.flags.writeable = False
    return table


def highs_min_vertex(p) -> list[Fraction]:
    """The vertex HiGHS returns when it minimizes P(target) over the LP p,
    each entry the nearest fraction of denominator at most 1000: the same
    HiGHS call `ns_certify` maximizes with, the objective's sign flipped."""
    sparse, linprog, eq = load_highs()
    c = np.zeros(N_CELLS)
    c[p.target_col] = 1.0
    cap = np.zeros((1, N_CELLS))
    cap[0, list(p.cap_cols)] = 1.0
    res = linprog(c=c, A_ub=sparse.csr_matrix(cap), b_ub=[float(p.delta_tilde)],
                  A_eq=eq, b_eq=(np.arange(eq.shape[0]) < _N_NORM).astype(float),
                  bounds=(0, None), method="highs-ds")
    assert res.status == 0, res.message
    return [Fraction(v).limit_denominator(1000) for v in res.x.tolist()]


def linear_fraction(values, delta: float) -> list[int]:
    """Indices i with values[i] <= sqrt(delta), given mean(values) <= delta.

    The premise is checked on the exact sum of the values (a float mean can
    round past delta either way).  By Markov's inequality fewer than
    sqrt(delta) * n entries can exceed sqrt(delta), so the returned set has
    size >= (1 - sqrt(delta)) * n; this postcondition is checked on every
    call (ArithmeticError if not).
    """
    vals = np.asarray(values, dtype=float)
    n = len(vals)
    if n == 0 or delta <= 0:
        raise ValueError("need nonempty values and delta > 0")
    if sum(map(Fraction, vals.tolist())) > Fraction(delta) * n:
        raise ValueError(f"mean {vals.mean()} exceeds delta {delta}")
    root = math.sqrt(delta)
    idx = np.flatnonzero(vals <= root).tolist()
    if not len(idx) >= (1.0 - root) * n - 1e-9:
        raise ArithmeticError(f"linear-fraction bound violated: {len(idx)}"
                              f" of {n} values at most sqrt(delta)")
    return idx


def qualifying_round_count(trace_target_flags, conditionals,
                           mu1: float, kappa: float) -> int:
    """Rounds at the target setting whose conditional target-outcome
    probability is at least kappa.

    Precondition, checked on the exact sum: the conditional average of the
    per-round target indicator is at least mu1/2.  The count is then at
    least n (mu1 - 2 kappa) / (2 (1 - kappa)): rounds below kappa
    contribute less than kappa to the average, so the qualifying rounds
    must carry the rest.  The lower bound is checked (ArithmeticError if
    not).
    """
    flags = np.asarray(trace_target_flags, dtype=bool)
    cond = np.asarray(conditionals, dtype=float)
    if flags.shape != cond.shape:
        raise ValueError("flag / conditional length mismatch")
    if not 0 < kappa < 1:
        raise ValueError("kappa must be in (0, 1)")
    n = len(flags)
    if sum(map(Fraction, cond[flags].tolist())) < Fraction(mu1) / 2 * n:
        raise ValueError(f"conditional average {float((flags * cond).mean())}"
                         f" below mu1/2 = {mu1 / 2}")
    count = int(np.sum(flags & (cond >= kappa)))
    floor = n * (mu1 - 2 * kappa) / (2 * (1 - kappa))
    if not count >= floor - 1e-9:
        raise ArithmeticError(f"count {count} below floor {floor}")
    return count


def settings_tail_empirical(eps, strategy_spec, n: int, gamma: float,
                            trials: int, seed: int = 0) -> dict:
    """Tail of "tomography target `ks_bell.TARGET_SETTINGS` missed in
    >= gamma n rounds" under a source-driven settings stream, against
    exp(-n D(gamma||zeta)).

    zeta = 1 - (1/2 - eps)^8.  Each round draws every trial's block at
    once, all at the round's block row, walked down the strategy's block
    tree (`sv_reference.walk`, the walk the source's own sampler is tested
    against); bias cycles may have any length.
    """
    epsf = _as_fraction(eps)
    zeta = float(1 - (1 - 2 * epsf) ** 8 / 256)   # 1 - (1/2-eps)^8, exactly
    strategy = make_strategy(strategy_spec, epsf)
    is_miss = BLOCK_PAIR != pair_index(*TARGET_SETTINGS)
    rng = np.random.default_rng(seed)
    misses = np.zeros(trials, dtype=np.int64)
    for i in range(n):
        misses += is_miss[sv_reference.walk(
            strategy.floats, np.full(trials, i),
            rng.random((BITS_PER_ROUND, trials)).T)]
    return _tail_check(float((misses >= gamma * n).mean()),
                       chernoff_bound(n, gamma, zeta), trials,
                       zeta=zeta, n=n, gamma=gamma)


def _chi2_sf(x: float, df: int) -> float:
    """P(chi^2_df >= x) for an integer df >= 1, by the finite series of
    Abramowitz and Stegun 26.4.4 (even df) and 26.4.5 (odd df).  With
    y = x/2, both are sum_a e^-y y^a / Gamma(a + 1) over a = df/2 - 1,
    df/2 - 2, ... down to 0 (even) or 1/2 (odd), plus erfc(sqrt(y)) for
    odd df.  Each term is taken in log form, so none overflows and a far
    tail keeps its digits until the terms pass below the float range."""
    if x <= 0:
        return 1.0
    y = x / 2.0
    a = (df % 2) / 2.0
    total = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    while a < df / 2.0:
        total += math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
        a += 1.0
    return min(total, 1.0)


def uniformity_test(outputs, m: int) -> dict:
    """Per-bit bias and a joint chi-square over all 2^m cells (1 <= m <= 8).

    outputs: a 1-D array or sequence of m-bit outputs, each an int in
    [0, 2^m).  Requires at least 1000 samples.
    """
    if not 1 <= m <= 8:
        raise ValueError(f"joint test needs 1 <= m <= 8, got {m}")
    arr = np.asarray(outputs)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise ValueError("outputs must be a 1-D sequence of ints")
    n = len(arr)
    if n < 1000:
        raise ValueError(f"need >= 1000 samples, got {n}")
    arr = arr.astype(np.int64)
    if arr.min() < 0 or arr.max() >= (1 << m):
        raise ValueError("output out of range for m bits")
    biases = []
    for j in range(m):
        bit = (arr >> (m - 1 - j)) & 1      # bit 0 of the report = first output bit
        biases.append(float(bit.mean() - 0.5))
    counts = np.bincount(arr, minlength=1 << m)
    expected = n / float(1 << m)
    stat = float(((counts - expected) ** 2 / expected).sum())
    pval = _chi2_sf(stat, (1 << m) - 1)
    return {"n": n, "m": m, "bias_per_bit": biases,
            "chi2_stat": stat, "chi2_pvalue": pval}


def dc_distance(p_szew: np.ndarray, acc_weights: np.ndarray | None = None,
                tol: float = 1e-9) -> dict:
    """Composable distance of a toy output box from the ideal box that is
    uniform on s and independent of (z, e), conditioned on acceptance.

    p_szew[s, z, e, w] = p(s, z, e | w), normalized over (s, z, e) per w;
    acc_weights, if given, carries per-cell acceptance probabilities and the
    table is conditioned on acceptance first.

    Returns dc = sum_{s,e} max_w sum_z |p(s,z,e|w,ACC) - p(z,e|w,ACC)/|S||,
    the per-adversary-input summary d (per-e maximized), and verifies
    dc <= |S| d.
    """
    p = np.asarray(p_szew, dtype=float)
    if p.ndim != 4:
        raise ValueError("expected a 4-axis table p[s, z, e, w]")
    if acc_weights is not None:
        a = np.asarray(acc_weights, dtype=float)
        if a.shape != p.shape or np.any((a < 0) | (a > 1)):
            raise ValueError("acceptance weights must match the table in [0,1]")
        p = p * a
    sums = p.sum(axis=(0, 1, 2))
    if np.any(sums <= 0):
        raise ValueError("a conditioning input has zero acceptance mass")
    if acc_weights is None and np.any(np.abs(sums - 1.0) > tol):
        raise ValueError("table not normalized per adversary input")
    p = p / sums                                  # condition on acceptance
    n_s = p.shape[0]
    marg_ze = p.sum(axis=0)                       # (z, e, w)
    diff = np.abs(p - marg_ze[None, :, :, :] / n_s)
    dc = float(diff.sum(axis=1).max(axis=2).sum())    # sum_s,e max_w sum_z
    inner = diff.sum(axis=0).sum(axis=0)          # (e, w): sum_{s,z}
    d = float(inner.max(axis=1).sum())            # per-e max over w
    return {"dc": dc, "d": d, "s_cardinality": n_s,
            "relation_ok": dc <= n_s * d + 1e-9}
