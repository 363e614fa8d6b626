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

Every certified answer is backed by an exact rational primal/dual pair that
an independent checker (`verify_certificate`, pure Fraction arithmetic)
accepts.  The dual side proves the bound: free multipliers y on the 657
equality rows plus a nonnegative multiplier beta on the cap row with

    E^T y + beta * b - M  >= 0   componentwise      (derived multipliers mu)
    bound = y . f + beta * cap

implies  M.P <= bound  for every feasible P by weak duality.  When the
rounded primal value equals the dual bound the optimum is certified exactly.

Solving strategy: HiGHS (via scipy) produces a floating-point vertex and
its duals, both are rounded to small rationals, and the exact checker
settles the claim.  Trust rests on that check alone, not on the float
engine; a vertex that no rounding denominator turns into a verified pair
raises `CertificationError`.  HiGHS is imported where it is called:
`scipy.sparse` in `_scipy_matrices` and `linprog` in `_solve_float_highs`.
So `import randamp.cli` loads no scipy module, and only the commands that
solve an LP (`certify`, the `lp_attack_zero` device) pay for it, once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import Behavior
from .ks_bell import N_CELLS, BellFunctional, cell_entry, var_index
from .sv_source import _as_fraction

_ROUND_DENOMS = (10 ** 6, 10 ** 9, 10 ** 13)


class CertificationError(RuntimeError):
    """Raised when no exact rational certificate could be produced."""


@dataclass(frozen=True)
class LPProblem:
    """Equality system + cap row for one target entry.

    eq_rows: 657 sparse rows (81 normalization, 288 Alice, 288 Bob), all
    coefficients in {-1, 0, +1}.  cap_cols carries the indicator columns of
    the cap row (coefficients 1).  delta_tilde is the exact cap value, and
    target_col the target cell.
    """

    eq_rows: tuple[tuple[tuple[int, int], ...], ...]
    eq_rhs: tuple[int, ...]
    cap_cols: tuple[int, ...]
    delta_tilde: Fraction
    target_col: int
    num_vars: int = N_CELLS

    @property
    def n_equalities(self) -> int:
        return len(self.eq_rows)


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


def build_lp(f: BellFunctional, delta_tilde) -> LPProblem:
    """Assemble the constraint system for the given functional and cap."""
    dt = _as_fraction(delta_tilde)
    if dt < 0:
        raise ValueError("cap must be nonnegative")
    rows: list[tuple[tuple[int, int], ...]] = []
    rhs: list[int] = []
    for u1 in range(1, 10):
        for u2 in range(1, 10):
            rows.append(tuple((var_index(u1, u2, x1, x2), 1)
                              for x1 in range(1, 5) for x2 in range(1, 5)))
            rhs.append(1)
    # No-signaling encoded pairwise against the other party's setting 1.
    for u1 in range(1, 10):
        for x1 in range(1, 5):
            for u2 in range(2, 10):
                row = [(var_index(u1, u2, x1, x2), 1) for x2 in range(1, 5)]
                row += [(var_index(u1, 1, x1, x2), -1) for x2 in range(1, 5)]
                rows.append(tuple(row))
                rhs.append(0)
    for u2 in range(1, 10):
        for x2 in range(1, 5):
            for u1 in range(2, 10):
                row = [(var_index(u1, u2, x1, x2), 1) for x1 in range(1, 5)]
                row += [(var_index(1, u2, x1, x2), -1) for x1 in range(1, 5)]
                rows.append(tuple(row))
                rhs.append(0)
    return LPProblem(eq_rows=tuple(rows), eq_rhs=tuple(rhs),
                     cap_cols=f.bell_cells, delta_tilde=dt,
                     target_col=f.target_cell)


def verify_certificate(p: LPProblem, d: DualCertificate,
                       claimed_bound: Fraction | None = None) -> bool:
    """Exact-arithmetic dual feasibility check, independent of any solver.

    True iff the certificate is for the problem's cap and target entry,
    beta >= 0, all derived nonnegativity multipliers are >= 0, and the
    recomputed bound y.f + beta*cap does not exceed the claimed bound.
    """
    if (len(d.y) != p.n_equalities or d.beta < 0
            or d.delta_tilde != p.delta_tilde or d.target != p.target_col):
        return False
    sign = 1 if d.sense == "max" else -1
    ety = [Fraction(0)] * p.num_vars
    for r, row in enumerate(p.eq_rows):
        yr = d.y[r]
        if yr == 0:
            continue
        for c, v in row:
            ety[c] += yr if v == 1 else -yr
    for c in p.cap_cols:
        ety[c] += d.beta
    ety[p.target_col] -= sign
    if any(mu < 0 for mu in ety):
        return False
    bound = sum(d.y[r] for r in range(p.n_equalities) if p.eq_rhs[r] == 1)
    bound += d.beta * p.delta_tilde
    if claimed_bound is None:
        claimed_bound = d.bound
    return bound <= claimed_bound


def _verify_primal(p: LPProblem, pf: list[Fraction]) -> bool:
    if any(v < 0 for v in pf):
        return False
    for r, row in enumerate(p.eq_rows):
        s = Fraction(0)
        for c, v in row:
            s += pf[c] if v == 1 else -pf[c]
        if s != p.eq_rhs[r]:
            return False
    return sum(pf[c] for c in p.cap_cols) <= p.delta_tilde


def _scipy_matrices(p: LPProblem):
    from scipy import sparse

    data, ri, ci = [], [], []
    for r, row in enumerate(p.eq_rows):
        for c, v in row:
            ri.append(r)
            ci.append(c)
            data.append(float(v))
    a_eq = sparse.csr_matrix((data, (ri, ci)), shape=(p.n_equalities, p.num_vars))
    b_eq = np.array(p.eq_rhs, dtype=float)
    a_ub = sparse.csr_matrix((np.ones(len(p.cap_cols)),
                              (np.zeros(len(p.cap_cols), dtype=int), p.cap_cols)),
                             shape=(1, p.num_vars))
    return a_eq, b_eq, a_ub


def _solve_float_highs(p: LPProblem, sense: str):
    from scipy.optimize import linprog

    c = np.zeros(p.num_vars)
    c[p.target_col] = -1.0 if sense == "max" else 1.0
    a_eq, b_eq, a_ub = _scipy_matrices(p)
    res = linprog(c=c, A_ub=a_ub, b_ub=[float(p.delta_tilde)],
                  A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise CertificationError(f"float solve failed: {res.message}")
    y = -np.asarray(res.eqlin.marginals)
    beta = -float(res.ineqlin.marginals[0])
    return np.asarray(res.x), y, beta


def _certify(p: LPProblem, sense: str, x, y, beta):
    """Round float primal/dual to rationals and verify both exactly."""
    sign = 1 if sense == "max" else -1
    for den in _ROUND_DENOMS:
        pf = [Fraction(v).limit_denominator(den) for v in x]
        yf = tuple(Fraction(v).limit_denominator(den) for v in y)
        bf = max(Fraction(beta).limit_denominator(den), Fraction(0))
        bound = sum(yf[r] for r in range(p.n_equalities) if p.eq_rhs[r] == 1)
        bound += bf * p.delta_tilde
        cert = DualCertificate(y=yf, beta=bf, bound=bound,
                               delta_tilde=p.delta_tilde, target=p.target_col,
                               sense=sense)
        primal_ok = _verify_primal(p, pf)
        dual_ok = verify_certificate(p, cert)
        if primal_ok and dual_ok:
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


def max_target_box(f: BellFunctional, delta_tilde=0) -> tuple[Behavior, Fraction]:
    """Feasible behavior maximizing P(target) at the given cap, exact."""
    sol = solve_lp(build_lp(f, delta_tilde), sense="max")
    return sol.primal, sol.exact_optimum


def zero_target_box(f: BellFunctional, delta_tilde=0) -> tuple[Behavior, Fraction]:
    """Feasible behavior minimizing P(target) at the given cap, exact."""
    sol = solve_lp(build_lp(f, delta_tilde), sense="min")
    return sol.primal, sol.exact_optimum
