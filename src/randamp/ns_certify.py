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

The 657 equality rows are one int8 table over the 1296 `var_index` cells,
`_equalities()`, in that order: the 81 normalization rows in `pair_index`
order, then Alice's rows (u1 outer, then x1, then u2 = 2..9, each her
marginal at u2 minus that at u2 = 1), then Bob's rows likewise with the
parties swapped.  The first 81 rows have rhs 1, all others rhs 0.  The
table is built by the first LP, not at import, and HiGHS and the exact
checks all read it.

Every certified answer is backed by an exact rational primal/dual pair that
an independent checker (`verify_certificate`) accepts.  The exact checks
(`verify_certificate` and `_verify_primal`) scale each rational vector by
the lcm of its denominators and run on Python ints, never floats or
fixed-width integers, so they are exact for any denominator.  The dual
side proves the bound: free multipliers y on the 657 equality rows plus a
nonnegative multiplier beta on the cap row with

    E^T y + beta * b - M  >= 0   componentwise      (derived multipliers mu)
    bound = y . f + beta * cap

implies  M.P <= bound  for every feasible P by weak duality.  When the
rounded primal value equals the dual bound the optimum is certified exactly.

Solving strategy: HiGHS (via scipy) produces a floating-point vertex and
its duals, both are rounded to small rationals, and the exact checker
settles the claim.  Trust rests on that check alone, not on the float
engine; a vertex that no rounding denominator turns into a verified pair
raises `CertificationError`.  HiGHS is imported where it is called, in
`_solve_float_highs` (`scipy.sparse` and `linprog`).  So `import
randamp.cli` loads no scipy module, and only the commands that solve an LP
(`certify`, the `lp_attack_zero` device) pay for it, once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .boxes import Behavior
from .ks_bell import N_CELLS, BellFunctional, cell_entry, var_index
from .sv_source import _as_fraction

_ROUND_DENOMS = (10 ** 6, 10 ** 9, 10 ** 13)
_N_NORM = 81                # the leading rows, normalization (rhs 1)


class CertificationError(RuntimeError):
    """Raised when no exact rational certificate could be produced."""


@dataclass(frozen=True)
class LPProblem:
    """The cap row and target of one LP; the equality rows are `_equalities`.

    cap_cols: the indicator cells of the cap row (coefficients 1).
    delta_tilde: the exact cap value.  target_col: the target cell.
    """

    cap_cols: tuple[int, ...]
    delta_tilde: Fraction
    target_col: int


@dataclass(frozen=True)
class DualCertificate:
    """Exact multipliers proving `M.P <= bound` (for the stated objective
    sign) on every feasible table.

    y: free multipliers for the 657 equality rows.
    beta: nonnegative multiplier for the cap row.
    target: the bounded cell, written [x1, x2, u1, u2] in JSON.
    The nonnegativity multipliers mu are derived during verification as
    E^T y + beta*b - sign*M and must come out componentwise >= 0.
    """

    y: tuple[Fraction, ...]
    beta: Fraction
    bound: Fraction
    delta_tilde: Fraction
    target: int
    sense: str = "max"

    def to_json(self) -> str:
        u1, u2, x1, x2 = cell_entry(self.target)
        return json.dumps({
            "delta_tilde": str(self.delta_tilde),
            "bound": str(self.bound),
            "beta": str(self.beta),
            "sense": self.sense,
            "target": [x1, x2, u1, u2],
            "y": {str(i): str(v) for i, v in enumerate(self.y) if v != 0},
            "n_equalities": len(self.y),
        }, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "DualCertificate":
        obj = json.loads(text)
        n = obj["n_equalities"]
        y = [Fraction(0)] * n
        for k, v in obj["y"].items():
            y[int(k)] = Fraction(v)
        x1, x2, u1, u2 = obj["target"]
        return DualCertificate(
            y=tuple(y), beta=Fraction(obj["beta"]), bound=Fraction(obj["bound"]),
            delta_tilde=Fraction(obj["delta_tilde"]),
            target=var_index(u1, u2, x1, x2), sense=obj.get("sense", "max"))


@dataclass
class LPSolution:
    exact_optimum: Fraction
    primal: Behavior
    certificate: DualCertificate
    certified_equality: bool


@lru_cache(maxsize=None)
def _equalities() -> np.ndarray:
    """The (657, 1296) equality table in {-1, 0, +1}, rows in the order
    the module docstring gives; read-only, as every caller shares it."""
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


@lru_cache(maxsize=None)
def _row_cells() -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(+1 cells, -1 cells) of each row of `_equalities`."""
    return tuple((tuple(np.flatnonzero(row == 1).tolist()),
                  tuple(np.flatnonzero(row == -1).tolist()))
                 for row in _equalities())


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


def _scaled(values) -> tuple[int, list[int]]:
    """(L, [v * L for v in values]) with L the lcm of the denominators, so
    that every entry is an exact Python int."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def verify_certificate(p: LPProblem, d: DualCertificate,
                       claimed_bound: Fraction | None = None) -> bool:
    """Exact-arithmetic dual feasibility check, independent of any solver.

    True iff the certificate is for the problem's cap and target entry,
    beta >= 0, all derived nonnegativity multipliers are >= 0, and the
    recomputed bound y.f + beta*cap does not exceed the claimed bound.
    The multipliers are checked scaled by the lcm of the denominators of
    y and beta, on Python ints.
    """
    rows = _row_cells()
    if (len(d.y) != len(rows) or d.beta < 0
            or d.delta_tilde != p.delta_tilde or d.target != p.target_col):
        return False
    scale, ys = _scaled((*d.y, d.beta))
    beta = ys.pop()
    ety = [0] * N_CELLS
    for yr, (plus, minus) in zip(ys, rows):
        if yr:
            for c in plus:
                ety[c] += yr
            for c in minus:
                ety[c] -= yr
    for c in p.cap_cols:
        ety[c] += beta
    ety[p.target_col] -= scale if d.sense == "max" else -scale
    if any(mu < 0 for mu in ety):
        return False
    return _bound(p, d.y, d.beta) <= (d.bound if claimed_bound is None
                                      else claimed_bound)


def _verify_primal(p: LPProblem, pf: list[Fraction]) -> bool:
    """pf is nonnegative, meets every equality row and the cap, exactly:
    checked scaled by the lcm of its denominators, on Python ints."""
    scale, ints = _scaled(pf)
    if any(v < 0 for v in ints):
        return False
    for r, (plus, minus) in enumerate(_row_cells()):
        rhs = scale if r < _N_NORM else 0
        if sum(ints[c] for c in plus) - sum(ints[c] for c in minus) != rhs:
            return False
    return sum(ints[c] for c in p.cap_cols) <= p.delta_tilde * scale


def _solve_float_highs(p: LPProblem, sense: str):
    from scipy import sparse
    from scipy.optimize import linprog

    eq = _equalities()
    c = np.zeros(N_CELLS)
    c[p.target_col] = -1.0 if sense == "max" else 1.0
    cap = np.zeros((1, N_CELLS))
    cap[0, list(p.cap_cols)] = 1.0
    res = linprog(c=c, A_ub=sparse.csr_matrix(cap), b_ub=[float(p.delta_tilde)],
                  A_eq=sparse.csr_matrix(eq, dtype=float),
                  b_eq=(np.arange(len(eq)) < _N_NORM).astype(float),
                  bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise CertificationError(f"float solve failed: {res.message}")
    y = -np.asarray(res.eqlin.marginals)
    beta = -float(res.ineqlin.marginals[0])
    return np.asarray(res.x), y, beta


def _rounded(values: list[float], den: int) -> list[Fraction]:
    """Each value's nearest fraction with denominator at most `den`; a
    vertex holds few distinct values, so each is rounded once."""
    table = {v: Fraction(v).limit_denominator(den) for v in set(values)}
    return [table[v] for v in values]


def _certify(p: LPProblem, sense: str, x, y, beta):
    """Round float primal/dual to rationals and verify both exactly."""
    sign = 1 if sense == "max" else -1
    x, y = x.tolist(), y.tolist()
    for den in _ROUND_DENOMS:
        pf = _rounded(x, den)
        yf = tuple(_rounded(y, den))
        bf = max(Fraction(beta).limit_denominator(den), Fraction(0))
        bound = _bound(p, yf, bf)
        cert = DualCertificate(y=yf, beta=bf, bound=bound,
                               delta_tilde=p.delta_tilde, target=p.target_col,
                               sense=sense)
        if _verify_primal(p, pf) and verify_certificate(p, cert):
            value = pf[p.target_col]
            return pf, cert, value, (sign * value == bound)
    return None


def solve_lp(p: LPProblem, sense: str = "max") -> LPSolution:
    """Optimize P(target) over the feasible set, exactly.

    The float vertex is lifted to rationals and both sides are verified;
    failure to certify raises `CertificationError`.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    got = _certify(p, sense, *_solve_float_highs(p, sense))
    if got is None:
        raise CertificationError(
            f"could not produce an exact certificate (cap={p.delta_tilde})")
    pf, cert, value, equal = got
    exact = np.array(pf, dtype=object).reshape(9, 9, 4, 4)
    primal = Behavior(table=exact.astype(float), exact=exact,
                      meta={"kind": "lp_vertex", "delta_tilde": float(p.delta_tilde),
                            "sense": sense, "certified": True})
    return LPSolution(exact_optimum=value, primal=primal, certificate=cert,
                      certified_equality=equal)


def zero_target_box(f: BellFunctional) -> tuple[Behavior, Fraction]:
    """Feasible behavior minimizing P(target) at cap 0, exact."""
    sol = solve_lp(build_lp(f, 0), sense="min")
    return sol.primal, sol.exact_optimum
