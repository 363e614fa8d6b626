"""Linear-programming certification of output randomness over no-signaling
behaviors with a bounded Bell value.

The primal problem maximizes one table entry P(x*|u*) over all tables that
are normalized, no-signaling, nonnegative, and whose raw indicator sum does
not exceed a cap:

    max  P(target)
    s.t. sum_x P(x|u) = 1                 for each of the 81 setting pairs
         Alice marginals independent of u2   (288 rows, reference u2 = 1)
         Bob marginals independent of u1     (288 rows, reference u1 = 1)
         sum over indicator cells of P  <=  cap
         P >= 0

The 657 equality rows over the 1296 `var_index` cells are, in this order,
the 81 normalization rows in `pair_index` order, then Alice's rows (u1
outer, then x1, then u2 = 2..9, each her marginal at u2 minus that at
u2 = 1), then Bob's rows likewise with the parties swapped.  The first 81
rows have rhs 1, all others rhs 0.  They exist only as their 5904
nonzeros (`_nonzeros`), built from index arithmetic over the cells by the
first LP or exact check, not at import; HiGHS and the exact checks all
read them.

Every certified answer is backed by an exact rational primal/dual pair that
an independent checker (`verify_certificate`) accepts.  The exact checks
(`verify_certificate` and `_verify_primal`) scale each rational vector by
the lcm of its denominators and scatter it through those nonzeros into
object arrays of Python ints, never floats or fixed-width integers, so
they are exact for any denominator.  The dual side proves the bound: free
multipliers y on the 657 equality rows plus a nonnegative multiplier beta
on the cap row with

    E^T y + beta * b - M  >= 0   componentwise      (derived multipliers mu)
    bound = y . f + beta * cap

implies  M.P <= bound  for every feasible P by weak duality.  When the
rounded primal value equals the dual bound the optimum is certified exactly.

Solving strategy: HiGHS (via scipy) produces a floating-point vertex and
its duals, and one rounding rule (`_rounded`) turns them into rationals
at the scales q, the cap's denominator, then 1.  A vertex is
x_B = B^-1 (b0 + d e_cap), so x * q has small denominators dividing
det B; the duals y = c_B B^-1 do not depend on the cap (parametric LP;
Bertsimas and Tsitsiklis 1997, ch. 5).  The exact checker settles the
claim, not the float engine; a vertex that neither scale turns into a
verified pair raises `CertificationError`.  HiGHS is imported once, by
the first call of `load_highs` (`scipy.sparse` and `linprog`), which also
builds the equality rows' float CSR matrix once for every later solve.
Only `certify` solves, and it calls `load_highs` on its own thread before
its solver threads start.  Each solve runs its own HiGHS instance, so
concurrent solves return the same bits as serial ones.  The
`lp_attack_zero` device's box, the vertex minimizing P(target) at cap 0,
is stored (`_ZERO_TARGET_WORDS`) and checked exactly on every build
(`zero_target_box`).  So no solve minimizes, and `import randamp.cli` and
every `simulate` load no scipy module.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .boxes import Behavior
from .ks_bell import (N_CELLS, BellFunctional, cell_entry, is_setting_pair,
                      var_index)
from .protocol import _field
from .sv_source import _as_fraction

_MAX_DEN = 1000             # denominator bound of a scaled vertex entry
_N_NORM = 81                # the leading rows, normalization (rhs 1)
_N_EQ = 657                 # all equality rows: 81 + 288 Alice + 288 Bob


class CertificationError(RuntimeError):
    """Raised when no exact rational certificate could be produced."""


@dataclass(frozen=True)
class LPProblem:
    """The cap row and target of one LP; the equality rows, the same for
    every LP, are `_nonzeros`.

    cap_cols: the indicator cells of the cap row (coefficients 1).
    delta_tilde: the exact cap value.  target_col: the target cell.
    """

    cap_cols: tuple[int, ...]
    delta_tilde: Fraction
    target_col: int


@dataclass(frozen=True)
class DualCertificate:
    """Exact multipliers proving `M.P <= bound` on every feasible table.

    y: free multipliers for the 657 equality rows.
    beta: nonnegative multiplier for the cap row.
    target: the bounded cell, written [x1, x2, u1, u2] in JSON.
    The nonnegativity multipliers mu are derived during verification as
    E^T y + beta*b - M and must come out componentwise >= 0.
    """

    y: tuple[Fraction, ...]
    beta: Fraction
    bound: Fraction
    delta_tilde: Fraction
    target: int

    def to_json(self) -> str:
        u1, u2, x1, x2 = cell_entry(self.target)
        return json.dumps({
            "delta_tilde": str(self.delta_tilde),
            "bound": str(self.bound),
            "beta": str(self.beta),
            "sense": "max",
            "target": [x1, x2, u1, u2],
            "y": {str(i): str(v) for i, v in enumerate(self.y) if v != 0},
            "n_equalities": len(self.y),
        }, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "DualCertificate":
        """The certificate `to_json` wrote, read as untrusted by the rules a
        config is read by (ValueError("certificate...: ...")): JSON nested
        no deeper than the parser reaches, sense "max", n_equalities the
        int 657, y keyed by rows "0".."656", target [x1, x2, u1, u2] in
        range, and y's values, beta, bound and delta_tilde "p" or "p/q"."""
        try:
            obj, at = json.loads(text), "certificate"
        except (ValueError, RecursionError) as e:   # RecursionError: too deep
            raise ValueError(f"certificate: malformed JSON: {e}") from e
        rows = [str(i) for i in range(_N_EQ)]       # the keys `to_json` writes
        _field(obj, "sense", at, lambda v: v == "max", '"max"')
        _field(obj, "n_equalities", at, lambda n: type(n) is int and n == _N_EQ,
               f"the int {_N_EQ}")
        ys = _field(obj, "y", at,
                    lambda v: isinstance(v, dict) and v.keys() <= set(rows),
                    f"an object keyed by row numbers 0..{_N_EQ - 1}")
        y = [_fraction(ys, k, at + ".y") if k in ys else Fraction(0) for k in rows]
        x1, x2, u1, u2 = _field(
            obj, "target", at, lambda t: isinstance(t, list) and len(t) == 4
            and is_setting_pair(t[:2]) and max(t[:2]) <= 4
            and is_setting_pair(t[2:]), "[x1, x2, u1, u2] in range")
        return DualCertificate(
            y=tuple(y), beta=_fraction(obj, "beta", at),
            bound=_fraction(obj, "bound", at),
            delta_tilde=_fraction(obj, "delta_tilde", at),
            target=var_index(u1, u2, x1, x2))


def _fraction(obj, key: str, path: str) -> Fraction:
    """obj[key] as a Fraction, if it is a string as `str` writes one, with
    q > 0 and no int past Python's 4300-digit limit."""
    return Fraction(_field(
        obj, key, path, lambda v: type(v) is str and len(v) <= 4300
        and re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", v), 'a string "p" or "p/q"'))


@dataclass
class LPSolution:
    """A certified maximum; `primal` is its vertex, a Fraction per cell."""

    exact_optimum: Fraction
    primal: tuple[Fraction, ...]
    certificate: DualCertificate
    certified_equality: bool


@lru_cache(maxsize=None)
def _nonzeros() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cells, coefficients) of the 5904 nonzeros of the equality
    rows in row-major order, the coefficients as Python ints in an object
    array.  With cell = 16 (9 u1 + u2) + 4 x1 + x2, all 0-based, norm row
    r holds cells 16r..16r+15 (+1); the row of a party's setting u,
    outcome x and the other's setting k + 1 holds, over the other's
    outcome y, the 4 cells at the other's setting 0 (-1), then the 4
    larger ones at k + 1 (+1)."""
    u, x, k, plus, y = np.ix_(range(9), range(4), range(8), range(2), range(4))
    v = (k + 1) * plus              # the other's setting at each cell
    cells = [np.arange(N_CELLS), 144 * u + 16 * v + 4 * x + y,    # Alice
             144 * v + 16 * u + 4 * y + x]                          # Bob
    rows = np.concatenate([np.arange(N_CELLS) // 16,
                           np.arange(_N_NORM, _N_EQ).repeat(8)])
    coef = np.concatenate([np.ones(N_CELLS, np.int8),
                           np.tile(np.int8([-1, -1, -1, -1, 1, 1, 1, 1]), 576)])
    return rows, np.concatenate([c.ravel() for c in cells]), coef.astype(object)


def build_lp(f: BellFunctional, delta_tilde) -> LPProblem:
    """The LP for the given functional and cap."""
    dt = _as_fraction(delta_tilde)
    if dt < 0:
        raise ValueError("cap must be nonnegative")
    return LPProblem(cap_cols=f.bell_cells, delta_tilde=dt,
                     target_col=f.target_cell)


def _bound(p: LPProblem, y, beta) -> Fraction:
    """y . rhs + beta * cap: only the normalization rows have rhs 1."""
    return sum(y[:_N_NORM], Fraction(0)) + beta * p.delta_tilde


def _scaled(values) -> tuple[int, np.ndarray]:
    """(L, values * L) with L the lcm of the denominators: an object array
    whose every entry is an exact Python int."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, np.array([v.numerator * (scale // v.denominator)
                            for v in values], object)


def verify_certificate(p: LPProblem, d: DualCertificate) -> bool:
    """Exact-arithmetic dual feasibility check, independent of any solver.

    True iff the certificate is for the problem's cap and target entry,
    beta >= 0, all derived nonnegativity multipliers are >= 0, and the
    recomputed bound y.f + beta*cap does not exceed the certificate's
    bound.  The multipliers are checked scaled by the lcm of the
    denominators of y and beta, on Python ints.
    """
    if (len(d.y) != _N_EQ or d.beta < 0 or d.delta_tilde != p.delta_tilde
            or d.target != p.target_col):
        return False
    scale, ys = _scaled((*d.y, d.beta))     # ys[-1] is beta, scaled
    rows, cells, coef = _nonzeros()
    mu = np.zeros(N_CELLS, object)
    np.add.at(mu, cells, ys[rows] * coef)
    mu[list(p.cap_cols)] += ys[-1]
    mu[p.target_col] -= scale
    return bool((mu >= 0).all()) and _bound(p, d.y, d.beta) <= d.bound


def _verify_primal(p: LPProblem, pf: list[Fraction]) -> bool:
    """pf holds one entry per cell, is nonnegative, and meets every
    equality row and the cap, exactly: checked scaled by the lcm of its
    denominators, on Python ints."""
    if len(pf) != N_CELLS:
        return False
    scale, ints = _scaled(pf)
    rows, cells, coef = _nonzeros()
    lhs = np.zeros(_N_EQ, object)
    np.add.at(lhs, rows, ints[cells] * coef)
    lhs[:_N_NORM] -= scale
    return (bool((lhs == 0).all() and (ints >= 0).all())
            and ints[list(p.cap_cols)].sum() <= p.delta_tilde * scale)


@lru_cache(maxsize=None)
def load_highs():
    """(scipy.sparse, linprog, the equality rows as a float CSR matrix).

    The first call imports scipy and builds the matrix from `_nonzeros`;
    every later solve reuses both.  Call it before solving on several
    threads, so that no two threads import scipy at once.  The matrix's
    arrays are read-only, as every solve shares them.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    rows, cells, coef = _nonzeros()
    eq = sparse.csr_matrix((coef.astype(float), (rows, cells)),
                           shape=(_N_EQ, N_CELLS))
    for a in (eq.data, eq.indices, eq.indptr):
        a.flags.writeable = False
    return sparse, linprog, eq


def _solve_float_highs(p: LPProblem):
    sparse, linprog, eq = load_highs()
    c = np.zeros(N_CELLS)
    c[p.target_col] = -1.0              # linprog minimizes -P(target)
    cap = np.zeros((1, N_CELLS))
    cap[0, list(p.cap_cols)] = 1.0
    res = linprog(c=c, A_ub=sparse.csr_matrix(cap), b_ub=[float(p.delta_tilde)],
                  A_eq=eq, b_eq=(np.arange(eq.shape[0]) < _N_NORM).astype(float),
                  bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise CertificationError(f"float solve failed: {res.message}")
    return (res.x.tolist(), (-res.eqlin.marginals).tolist(),
            -float(res.ineqlin.marginals[0]))


def _rounded(values: list[float], scale: int) -> list[Fraction]:
    """Each v as the nearest fraction to v * scale of denominator at most
    `_MAX_DEN`, divided by scale (exact: no cap overflows a float).  A
    vertex holds few distinct values, so each is rounded once."""
    table = {v: (Fraction(v) * scale).limit_denominator(_MAX_DEN) / scale
             for v in set(values)}
    return [table[v] for v in values]


def solve_lp(p: LPProblem) -> LPSolution:
    """Maximize P(target) over the feasible set, exactly.

    The float vertex and duals are rounded (`_rounded`) at the scales q,
    the cap's denominator, and 1 in turn, and the first pair that both
    exact checks accept is returned; else `CertificationError` is raised.
    """
    x, y, beta = _solve_float_highs(p)
    for scale in (p.delta_tilde.denominator, 1):
        pf = _rounded(x, scale)
        yf = tuple(_rounded(y, scale))
        bf = max(_rounded([beta], scale)[0], Fraction(0))
        cert = DualCertificate(y=yf, beta=bf, bound=_bound(p, yf, bf),
                               delta_tilde=p.delta_tilde, target=p.target_col)
        if _verify_primal(p, pf) and verify_certificate(p, cert):
            break
    else:
        raise CertificationError(
            f"could not produce an exact certificate (cap={p.delta_tilde})")
    value = pf[p.target_col]
    return LPSolution(exact_optimum=value, primal=tuple(pf), certificate=cert,
                      certified_equality=value == cert.bound)


# The vertex HiGHS returns when it minimizes P(target) at cap 0: a
# permutation box.  Row u1, word u2 (both 1..9) lists x2 for x1 = 1..4; each
# of those four cells has weight 1/4, every other cell 0.
_ZERO_TARGET_WORDS = """
1234 2341 3214 2341 3412 4123 2134 2413 3214
4213 1234 4231 3214 4123 2134 4213 3241 2314
1243 4123 1234 2431 1432 4321 3421 3421 4213
3421 3214 4132 1234 2341 1432 4321 4231 4312
2143 3142 1243 4231 1234 2341 4321 1423 4231
4231 1234 4312 1432 4231 1234 1243 2134 2413
2143 4321 4312 1324 4132 1243 1234 4321 2341
3214 3214 1432 4132 1342 1243 2143 1234 1432
3412 3241 3241 1324 4132 3142 4123 1234 1234
"""


def zero_target_box(f: BellFunctional) -> Behavior:
    """Feasible behavior minimizing P(target) at cap 0: the box that
    passes the Bell test optimally yet never gives the target.

    It is built from `_ZERO_TARGET_WORDS`, the vertex HiGHS returns for
    this min (a test pins the two together), and solves nothing.  Every
    build checks it exactly: `_verify_primal` (normalized, no-signaling,
    nonnegative, zero on every indicator cell) and P(target) = 0, which
    nonnegativity certifies as the minimum.  A failed check raises
    `CertificationError`.
    """
    p = build_lp(f, 0)
    x2 = (np.frombuffer("".join(_ZERO_TARGET_WORDS.split()).encode(), np.uint8)
          - ord("1"))                 # x2 - 1 at (u1, u2, x1), in cell order
    exact = np.full(N_CELLS, Fraction(0), dtype=object)
    if x2.shape == (324,) and (x2 < 4).all():   # else all zero, and it fails
        exact[4 * np.arange(324) + x2] = Fraction(1, 4)
    if not (_verify_primal(p, list(exact)) and exact[p.target_col] == 0):
        raise CertificationError("the stored cap-0 min vertex fails its exact check")
    return Behavior(table=exact.astype(float).reshape(9, 9, 4, 4),
                    meta={"kind": "lp_vertex", "delta_tilde": 0.0,
                          "sense": "min", "certified": True})
