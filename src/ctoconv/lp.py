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

Both modes build the same list-of-lists tableau of floats and run the same
kernel under a work budget.  Float mode reads its point or multipliers from
the final tableau and returns them if they verify within eps_lp.  Every
other answer, and every rational one, comes from one exact step
(`_refine_exact`, after Applegate, Cook, Dash and Espinoza, "Exact solutions
to linear programming problems", 2007): the final basis is solved once in
Fractions, and the kernel runs on a Fraction tableau only when that basis
gives no answer; that solve is fraction-free (`_gauss`, after Bareiss, 1968).
Every answer is re-verified against the raw system before being returned,
in rational mode with tolerance 0 on integer numerators; a NaN or infinite
float entry never verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isfinite, lcm

from ._kernels import ITERATION_LIMIT, OPTIMAL, run_simplex
from .core import NumericPolicy, _over_lcm
from .errors import DimensionMismatch, NumericBreakdown, SolveBudgetExceeded

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# Tableau cells that one solve, or the rounds of one decision, may sweep;
# each pivot reports the cells it read and rewrote (`_pivot`), so the budget
# bounds real work at any LP size.  The largest spends measured are at most
# a twentieth of it: 4.3e5 cells in the tests, 1.4e4 in the benchmark's
# workloads, 0.4e6-3.2e6 on float d=64, l=m=24 decisions.  On a 2-core
# machine a swept float cell costs 80-190 ns, pricing included (full-grid
# LPs of 2281 x 4693 and 4321 x 8773 cells), so a float solve that spends
# it all stops within about 20 s: three full-grid LPs at d=32, l=m=12
# stopped after 16-20 s, their assembly included.  A Fraction cell costs
# ~2.7 us (61 x 150 tableau, more as denominators grow), so a Fraction
# tableau is charged 64 units per cell.
_WORK_BUDGET = 10**8
_FRACTION_CELL_COST = 64


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
    work: int = 0  # budget units spent: swept cells, a Fraction cell costing more


def verify_point(sys: LinearSystem, point, eps) -> bool:
    if len(point) != sys.n_vars:
        return False
    if not eps and all(isinstance(x, (int, Fraction)) for x in point):
        return _exact_point(sys, point)
    if not all(_finite(x) and x >= -eps for x in point):
        return False
    support = [(j, x) for j, x in enumerate(point) if x]
    for row, b in sys.eq:
        if abs(_dot(row, support) - b) > eps:
            return False
    for row, b in sys.ineq:
        if _dot(row, support) < b - eps:
            return False
    return True


def verify_certificate(sys: LinearSystem, certificate, eps) -> bool:
    y_eq, y_in = certificate
    if len(y_eq) != len(sys.eq) or len(y_in) != len(sys.ineq):
        return False
    if not eps and all(isinstance(y, (int, Fraction)) for y in (*y_eq, *y_in)):
        return _exact_certificate(sys, y_eq, y_in)
    if not (all(map(_finite, y_eq)) and all(_finite(y) and y >= -eps for y in y_in)):
        return False
    combos = zip(_combination(sys.eq, y_eq, sys.n_vars),
                 _combination(sys.ineq, y_in, sys.n_vars))
    if any(a + b > eps for a, b in combos):
        return False
    gain = sum(y * b for y, (_, b) in zip(y_eq, sys.eq) if y)
    gain += sum(y * b for y, (_, b) in zip(y_in, sys.ineq) if y)
    return gain > eps


def _exact_point(sys: LinearSystem, point) -> bool:
    """`verify_point` at tolerance 0 on integers: with x = P / D and a row's
    support entries and rhs over their lcm R, row.x - b = (A.P - B D) / (R D)."""
    den, ps = _over_lcm(point)
    if any(p < 0 for p in ps):
        return False
    support = [(j, p) for j, p in enumerate(ps) if p]
    for rows, is_eq in ((sys.eq, True), (sys.ineq, False)):
        for row, b in rows:
            terms = [(a, p) for j, p in support if (a := row[j])]
            _, (rhs, *ns) = _over_lcm([b, *[a for a, _ in terms]])
            lhs = sum(n * p for n, (_, p) in zip(ns, terms))
            if (lhs != rhs * den) if is_eq else (lhs < rhs * den):
                return False
    return True


def _exact_certificate(sys: LinearSystem, y_eq, y_in) -> bool:
    """`verify_certificate` at tolerance 0 on integers: with row r as A_r / R_r,
    B_r / R_r and y_r / R_r = Z_r / D, the combination is sum_r Z_r A_r / D
    and the gain sum_r Z_r B_r / D."""
    if any(y < 0 for y in y_in):
        return False
    scaled = [(y, _over_lcm([b, *row]))
              for y, (row, b) in zip((*y_eq, *y_in), sys.eq + sys.ineq) if y]
    den = lcm(*[y.denominator * r for y, (r, _) in scaled])
    acc, gain = [0] * sys.n_vars, 0
    for y, (r, (b, *row)) in scaled:
        z = y.numerator * (den // (y.denominator * r))
        gain += z * b
        for j, a in enumerate(row):
            if a:
                acc[j] += z * a
    return gain > 0 and all(c <= 0 for c in acc)


def _finite(x) -> bool:
    """False for a float NaN or infinity, which no comparison rejects."""
    return type(x) is not float or isfinite(x)


def _dot(row, support):
    """row . x over x's nonzero coordinates (j, x_j) and row's nonzero entries."""
    return sum(a * x for j, x in support if (a := row[j]))


def _combination(rows, ys, n: int) -> list:
    """sum_r ys[r] rows[r], each column summed in row order over the nonzero
    multipliers and entries only."""
    acc = [0] * n
    for y, (row, _) in zip(ys, rows):
        if y:
            for j, a in enumerate(row):
                if a:
                    acc[j] += y * a
    return acc


def solve_feasibility(sys: LinearSystem, policy: NumericPolicy) -> FeasibilityResult:
    """Decide feasibility; exact in rational mode, tolerance eps_lp in float.

    The kernel runs on the system's float image.  Float mode reads the point
    or the multipliers from the final tableau and returns them if they
    verify; every other answer comes from the exact step, `_refine_exact`,
    at the final basis.  The result's `work` is what all its kernel runs
    together spent of _WORK_BUDGET.
    """
    work = []  # budget units of each kernel run
    # a rational system's float image is judged at the default float eps_lp
    tol = NumericPolicy.eps_lp if policy.exact else policy.eps_lp
    res = None
    try:
        tab, basis, signs, optimal = _solve(sys, False, work, min(1e-9, tol))
    except OverflowError:  # an entry beyond the float range
        basis, feasible = [], False
    else:
        value = -tab[-1][-1]
        feasible = value <= tol
        # a phase-1 value below zero is a sure sign of tableau corruption
        if not policy.exact and optimal and value >= -tol:
            res = _tableau_answer(sys, tab, basis, signs, feasible, tol)
    res = res or _refine_exact(sys, policy, basis, feasible, work)
    return replace(res, work=sum(work))


def _solve(sys: LinearSystem, exact: bool, work: list, eps: float = 1e-9):
    """Build the phase-1 tableau of `sys` and run the kernel on it.

    The tableau holds Fractions if `exact` (kernel tolerance 0), else floats
    (kernel tolerance `eps`).  The run may spend what the runs listed in
    `work` left of the budget, and appends its own spending.  Returns the
    final tableau, its basis, the row signs and whether the run was optimal.
    """
    n, n_eq, n_slack = sys.n_vars, len(sys.eq), len(sys.ineq)
    m = n_eq + n_slack
    ncols = n + n_slack + m + 1  # structural | slack | artificial | rhs
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    tab = [[zero] * ncols for _ in range(m + 1)]
    basis = [0] * m

    # phase-1 objective: minimize the artificial sum; reduced costs c_j - z_j
    # are minus the non-artificial column sums, accumulated as rows fill in
    cost = tab[m]
    signs = []
    rows = [(row, b, True) for row, b in sys.eq]
    rows += [(row, b, False) for row, b in sys.ineq]
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

    cell_cost = _FRACTION_CELL_COST if exact else 1
    max_cells = (_WORK_BUDGET - sum(work)) // cell_cost
    status, swept = run_simplex(tab, basis, zero if exact else eps, max_cells,
                                n + n_slack + n_eq)
    work.append(swept * cell_cost)
    if status == ITERATION_LIMIT:
        raise SolveBudgetExceeded(
            f"simplex work budget of {_WORK_BUDGET} spent: {sum(work)} on an LP "
            f"of {m} rows and {ncols} tableau columns")
    return tab, basis, signs, status == OPTIMAL


def _tableau_answer(sys: LinearSystem, tab, basis, signs, feasible: bool, tol):
    """The float point or Farkas certificate read from a final phase-1
    tableau, or None when it fails verification within tol."""
    n, n_eq, n_slack = sys.n_vars, len(sys.eq), len(sys.ineq)
    if feasible:
        point = [0.0] * n
        for r, bv in enumerate(basis):
            if bv < n:
                point[bv] = tab[r][-1]
        point = [0.0 if -tol < x < 0 else x for x in point]
        res = FeasibilityResult(FEASIBLE, point=tuple(point))
        return res if verify_point(sys, point, tol) else None

    # simplex multipliers pi of the sign-flipped rows: an eq artificial has
    # cost 1 and column e_r, so pi_r = 1 - redcost; slack k of inequality
    # row r has cost 0 and column -sign_r e_r, so its redcost is sign_r pi_r
    cost = tab[-1]
    y_eq = [signs[r] * (1.0 - cost[n + n_slack + r]) for r in range(n_eq)]
    y_in = [0.0 if -tol < v < 0 else v for v in cost[n:n + n_slack]]
    cert = (tuple(y_eq), tuple(y_in))
    res = FeasibilityResult(INFEASIBLE, certificate=cert)
    return res if verify_certificate(sys, cert, tol) else None


def _basis_answer(sys: LinearSystem, basis, feasible: bool, tol):
    """The exact answer of `sys` at a final basis of the kernel, or None.

    Slack and artificial basics are unit columns, each holding its own row,
    so the basic structural columns S and the rows R no unit column holds
    form one square Fraction system.  A feasible basis gives the point
    A[R,S] x_S = b_R, zero off S.  Otherwise the phase-1 duals are 0 on a row
    held by its slack, sign_r on a row held by its artificial, and solve
    A[R,S]^T y_R = -A[H,S]^T sign_H, H the artificial-held rows.  None when
    the basis is singular or the answer fails verification within tol.
    """
    n, n_eq, n_slack = sys.n_vars, len(sys.eq), len(sys.ineq)
    rows = sys.eq + sys.ineq
    cols, held = [], {}  # held: row -> its dual value
    for j in basis:
        if j < n:
            cols.append(j)
        elif j < n + n_slack:
            held[n_eq + j - n] = Fraction(0)
        else:
            r = j - n - n_slack
            held[r] = Fraction(1 if rows[r][1] >= 0 else -1)
    free = [r for r in range(len(rows)) if r not in held]
    if len(free) != len(cols):  # two unit columns on one row
        return None
    if feasible:
        x = _gauss([[rows[r][0][j] for j in cols] for r in free],
                   [rows[r][1] for r in free])
    else:  # the rhs on integer numerators, one Fraction per column
        signed = [(r, 1 if y > 0 else -1) for r, y in held.items() if y]
        rhs = []
        for j in cols:
            den, ns = _over_lcm([rows[r][0][j] for r, _ in signed])
            rhs.append(Fraction(-sum(s * v for (_, s), v in zip(signed, ns)), den))
        x = _gauss([[rows[r][0][j] for r in free] for j in cols], rhs)
    if x is None:
        return None
    if feasible:
        point = [Fraction(0)] * n
        for j, v in zip(cols, x):
            point[j] = v
        res = FeasibilityResult(FEASIBLE, point=tuple(point))
        return res if verify_point(sys, point, tol) else None
    held.update(zip(free, x))
    y = [held[r] for r in range(len(rows))]
    cert = (tuple(y[:n_eq]), tuple(y[n_eq:]))
    res = FeasibilityResult(INFEASIBLE, certificate=cert)
    return res if verify_certificate(sys, cert, tol) else None


def _gauss(a, b):
    """The Fraction solution x of the square system a.x = b, or None if a is
    singular: fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp.
    22, 1968) on the rows scaled to integers.  Each step takes every other
    row to (piv * row - f * pivot row) / prev, an exact division, prev the
    last pivot; the pivot is the column's first nonzero entry, as on
    Fractions, and every diagonal entry ends at det, so x_i = N_i / det."""
    k = len(b)
    rows = [_over_lcm([*row, v])[1] for row, v in zip(a, b)]
    prev = 1
    for c in range(k):
        p = next((i for i in range(c, k) if rows[i][c]), None)
        if p is None:
            return None
        rows[p], rows[c] = rows[c], rows[p]
        pr = rows[c]
        piv = pr[c]
        for i, row in enumerate(rows):
            if i != c:
                f = row[c]
                rows[i] = [(piv * u - f * w) // prev for u, w in zip(row, pr)]
        prev = piv
    return [Fraction(row[k], row[i]) for i, row in enumerate(rows)]


def _refine_exact(sys: LinearSystem, policy: NumericPolicy, basis, feasible,
                  work: list):
    """The exact step: the answer of `sys` at a final basis of the kernel.

    The basis is solved once in Fractions (`_basis_answer`); only if that
    gives no answer does the kernel run from scratch on a Fraction tableau,
    whose final basis is solved the same way.  Rational mode judges
    feasibility and verifies with tolerance 0.  Floats convert to Fractions
    without loss, so a float system is solved as it stands, judged with
    eps_lp as the float path does, and the answer is rounded back to floats.
    """
    tol = 0 if policy.exact else policy.eps_lp
    if not policy.exact:
        sys = LinearSystem(sys.n_vars, *(
            tuple((tuple(map(Fraction, row)), Fraction(b)) for row, b in rows)
            for rows in (sys.eq, sys.ineq)))
    res = _basis_answer(sys, basis, feasible, tol)
    if not res:
        tab, basis, _, optimal = _solve(sys, True, work)
        # a Fraction tableau's final basis is exactly optimal, so only a
        # fault leaves it without an answer
        res = optimal and _basis_answer(sys, basis, -tab[-1][-1] <= tol, tol)
        if not res:
            raise NumericBreakdown("no verified answer from a Fraction simplex run")
    if policy.exact:
        return res
    if res.status == FEASIBLE:
        return replace(res, point=tuple(map(float, res.point)))
    return replace(res, certificate=tuple(tuple(map(float, y))
                                          for y in res.certificate))
