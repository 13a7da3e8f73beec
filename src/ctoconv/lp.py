"""Linear feasibility with Farkas certificates, in float or exact arithmetic.

Systems are over nonnegative variables with equality rows (row.x == rhs) and
inequality rows (row.x >= rhs).  Phase-1 simplex, pricing by Dantzig's rule
with Bland's rule as the anti-cycling fallback; when the artificial
objective stays positive, the simplex multipliers of the optimal basis form a
Farkas witness:

    eq^T y_eq + ineq^T y_in <= 0 componentwise,  y_in >= 0,
    rhs_eq . y_eq + rhs_in . y_in > 0.

Inequality-row artificials come last and are retired as they leave the
basis; y_in is read from the slack block's reduced costs, and y_eq from the
equality rows' artificials, which are kept.

Both modes build the same list-of-lists tableau, of floats or of
Fractions, and run the same kernel under a work budget.  Every answer is
re-verified against the raw system before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._kernels import ITERATION_LIMIT, OPTIMAL, run_simplex
from .core import NumericPolicy, vdot
from .errors import DimensionMismatch, NumericBreakdown, SolveBudgetExceeded

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# Pivots times tableau cells that one solve may spend.  A pivot updates at
# most every cell, so this bounds the kernel's work at any LP size.  The
# largest decision LPs (d=24, l=m=12: 301 x 733 cells, 180-340 pivots)
# spend 0.4e8-0.8e8, which leaves over 12x headroom.  A dense float update
# costs ~40 ns a cell, so a float solve that spends it all stops within about
# a minute; a Fraction update costs microseconds, more as denominators grow.
_WORK_BUDGET = 10**9


@dataclass(frozen=True)
class LinearSystem:
    """eq rows: row.x == rhs;  ineq rows: row.x >= rhs;  all x >= 0."""

    n_vars: int
    eq: tuple = ()
    ineq: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "eq", tuple((tuple(r), b) for r, b in self.eq)
        )
        object.__setattr__(
            self, "ineq", tuple((tuple(r), b) for r, b in self.ineq)
        )
        for row, _ in self.eq + self.ineq:
            if len(row) != self.n_vars:
                raise DimensionMismatch(
                    f"row of length {len(row)} in a {self.n_vars}-variable system"
                )


@dataclass(frozen=True)
class FeasibilityResult:
    status: str
    point: tuple | None = None
    certificate: tuple | None = None  # (y_eq, y_in)


def verify_point(sys: LinearSystem, point, eps) -> bool:
    if len(point) != sys.n_vars:
        return False
    if any(x < -eps for x in point):
        return False
    for row, b in sys.eq:
        if abs(vdot(row, point) - b) > eps:
            return False
    for row, b in sys.ineq:
        if vdot(row, point) < b - eps:
            return False
    return True


def verify_certificate(sys: LinearSystem, certificate, eps) -> bool:
    y_eq, y_in = certificate
    if len(y_eq) != len(sys.eq) or len(y_in) != len(sys.ineq):
        return False
    if any(y < -eps for y in y_in):
        return False
    for j in range(sys.n_vars):
        combo = sum(y * row[j] for y, (row, _) in zip(y_eq, sys.eq))
        combo += sum(y * row[j] for y, (row, _) in zip(y_in, sys.ineq))
        if combo > eps:
            return False
    gain = sum(y * b for y, (_, b) in zip(y_eq, sys.eq))
    gain += sum(y * b for y, (_, b) in zip(y_in, sys.ineq))
    return gain > eps


def solve_feasibility(sys: LinearSystem, policy: NumericPolicy) -> FeasibilityResult:
    """Decide feasibility; exact in rational mode, tolerance eps_lp in float."""
    return _solve(sys, policy, policy.exact)


def _solve(sys: LinearSystem, policy: NumericPolicy, exact: bool) -> FeasibilityResult:
    n = sys.n_vars
    n_eq = len(sys.eq)
    n_in = len(sys.ineq)
    m = n_eq + n_in
    n_slack = n_in
    ncols = n + n_slack + m + 1  # structural | slack | artificial | rhs

    if exact:
        zero, one, eps = Fraction(0), Fraction(1), Fraction(0)
    else:
        zero, one, eps = 0.0, 1.0, min(1e-9, policy.eps_lp)
    tol = zero if policy.exact else policy.eps_lp  # also for _refine_exact
    tab = [[zero] * ncols for _ in range(m + 1)]
    basis = [0] * m

    # phase-1 objective: minimize the artificial sum; reduced costs c_j - z_j
    # are minus the non-artificial column sums, accumulated as rows fill in
    cost = tab[m]
    signs = []
    rows = [(row, b, True) for row, b in sys.eq] + [
        (row, b, False) for row, b in sys.ineq
    ]
    slack_no = 0
    for r, (row, b, is_eq) in enumerate(rows):
        sign = one if b >= 0 else -one
        signs.append(sign)
        t = tab[r]
        for j, a in enumerate(row):
            if a != 0:
                v = sign * (a if exact else float(a))
                t[j] = v
                cost[j] -= v
        if not is_eq:
            t[n + slack_no] = -sign
            cost[n + slack_no] += sign
            slack_no += 1
        t[n + n_slack + r] = one
        rhs = sign * (b if exact else float(b))
        t[ncols - 1] = rhs
        cost[ncols - 1] -= rhs
        basis[r] = n + n_slack + r

    max_pivots = _WORK_BUDGET // ((m + 1) * ncols)
    status = run_simplex(tab, basis, eps, max_pivots, n + n_slack + n_eq)
    if status == ITERATION_LIMIT:
        raise SolveBudgetExceeded(
            f"simplex work budget spent: {max_pivots} pivots on an LP of "
            f"{m} rows and {ncols} tableau columns"
        )
    if status != OPTIMAL:
        if exact:
            raise NumericBreakdown(f"simplex did not converge (status {status})")
        return _refine_exact(sys, policy)

    value = -tab[m][ncols - 1]

    if value <= tol:
        # a phase-1 value below zero is a sure sign of tableau corruption
        if not exact and value < -tol:
            return _refine_exact(sys, policy)
        point = [zero] * n
        for r in range(m):
            bv = basis[r]
            if bv < n:
                point[bv] = tab[r][ncols - 1]
        if not exact:
            point = [0.0 if -policy.eps_lp < x < 0 else float(x) for x in point]
        if not verify_point(sys, point, tol):
            if exact:
                raise NumericBreakdown("feasible point failed re-verification")
            return _refine_exact(sys, policy)
        return FeasibilityResult(FEASIBLE, point=tuple(point))

    # simplex multipliers pi of the sign-flipped rows: an eq artificial has
    # cost 1 and column e_r, so pi_r = 1 - redcost; slack k of inequality
    # row r has cost 0 and column -sign_r e_r, so its redcost is sign_r pi_r
    y_eq = [signs[r] * (one - tab[m][n + n_slack + r]) for r in range(n_eq)]
    y_in = tab[m][n:n + n_slack]
    if not exact:
        y_in = [0.0 if -policy.eps_lp < v < 0 else float(v) for v in y_in]
    cert = (tuple(y_eq), tuple(y_in))
    if not verify_certificate(sys, cert, tol):
        if exact:
            raise NumericBreakdown("Farkas certificate failed re-verification")
        return _refine_exact(sys, policy)
    return FeasibilityResult(INFEASIBLE, certificate=cert)


def _refine_exact(sys: LinearSystem, policy: NumericPolicy) -> FeasibilityResult:
    """Re-solve a float system in exact rational arithmetic.

    Last resort when a float solve's answer fails self-verification:
    floats convert to Fractions without loss, so the exact run solves the
    identical system; it judges feasibility and verifies its answer with
    eps_lp, as the float path does, and the answer is rounded back to floats.
    """
    exact_sys = LinearSystem(
        sys.n_vars,
        eq=tuple(
            (tuple(Fraction(a) for a in row), Fraction(b)) for row, b in sys.eq
        ),
        ineq=tuple(
            (tuple(Fraction(a) for a in row), Fraction(b)) for row, b in sys.ineq
        ),
    )
    res = _solve(exact_sys, policy, exact=True)
    if res.status == FEASIBLE:
        return FeasibilityResult(
            FEASIBLE, point=tuple(float(x) for x in res.point)
        )
    y_eq, y_in = res.certificate
    return FeasibilityResult(
        INFEASIBLE,
        certificate=(
            tuple(float(v) for v in y_eq),
            tuple(float(v) for v in y_in),
        ),
    )
