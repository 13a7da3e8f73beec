"""Linear feasibility with Farkas certificates, in float or exact arithmetic.

Systems are over nonnegative variables with equality rows (row.x == rhs) and
inequality rows (row.x >= rhs).  Phase-1 simplex with Bland's rule; when the
artificial objective stays positive, the simplex multipliers of the optimal
basis form a Farkas witness:

    eq^T y_eq + ineq^T y_in <= 0 componentwise,  y_in >= 0,
    rhs_eq . y_eq + rhs_in . y_in > 0.

Both modes build the same list-of-lists tableau, of floats or of
Fractions, and run the same kernel.  Every answer is re-verified against the
raw system before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._kernels import OPTIMAL, run_simplex
from .core import NumericPolicy, vdot
from .errors import DimensionMismatch, NumericBreakdown

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

_MAX_ITER = 100_000


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
    tab = [[zero] * ncols for _ in range(m + 1)]
    basis = [0] * m

    signs = []
    rows = [(row, b, True) for row, b in sys.eq] + [
        (row, b, False) for row, b in sys.ineq
    ]
    slack_no = 0
    for r, (row, b, is_eq) in enumerate(rows):
        sign = one if b >= 0 else -one
        signs.append(sign)
        for j, a in enumerate(row):
            if a != 0:
                tab[r][j] = sign * (a if exact else float(a))
        if not is_eq:
            tab[r][n + slack_no] = -sign
            slack_no += 1
        tab[r][n + n_slack + r] = one
        tab[r][ncols - 1] = sign * (b if exact else float(b))
        basis[r] = n + n_slack + r

    # phase-1 objective: minimize the artificial sum; reduced costs c_j - z_j
    for j in range(ncols):
        if n + n_slack <= j < n + n_slack + m:
            continue
        tab[m][j] = -sum(tab[r][j] for r in range(m))

    status = run_simplex(tab, basis, eps, _MAX_ITER)
    if status != OPTIMAL:
        if exact:
            raise NumericBreakdown(f"simplex did not converge (status {status})")
        return _refine_exact(sys, policy)

    value = -tab[m][ncols - 1]
    feas_tol = zero if exact else policy.eps_lp

    if value <= feas_tol:
        # a phase-1 value below zero is a sure sign of tableau corruption
        if not exact and value < -feas_tol:
            return _refine_exact(sys, policy)
        point = [zero] * n
        for r in range(m):
            bv = basis[r]
            if bv < n:
                point[bv] = tab[r][ncols - 1]
        if not exact:
            point = [0.0 if -policy.eps_lp < x < 0 else float(x) for x in point]
        check_eps = zero if exact else policy.eps_lp
        if not verify_point(sys, point, check_eps):
            if exact:
                raise NumericBreakdown("feasible point failed re-verification")
            return _refine_exact(sys, policy)
        return FeasibilityResult(FEASIBLE, point=tuple(point))

    # simplex multipliers: artificial column r has cost 1, so y_r = 1 - redcost
    y = [signs[r] * (one - tab[m][n + n_slack + r]) for r in range(m)]
    y_eq = y[:n_eq]
    y_in = y[n_eq:]
    if not exact:
        y_in = [0.0 if -policy.eps_lp < v < 0 else float(v) for v in y_in]
    cert = (tuple(y_eq), tuple(y_in))
    check_eps = zero if exact else policy.eps_lp
    if not verify_certificate(sys, cert, check_eps):
        if exact:
            raise NumericBreakdown("Farkas certificate failed re-verification")
        return _refine_exact(sys, policy)
    return FeasibilityResult(INFEASIBLE, certificate=cert)


def _refine_exact(sys: LinearSystem, policy: NumericPolicy) -> FeasibilityResult:
    """Re-solve a float system in exact rational arithmetic.

    Last resort when a float solve's answer fails self-verification:
    floats convert to Fractions without loss, so the exact run decides the
    identical system, and the answer is rounded back to floats.
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
