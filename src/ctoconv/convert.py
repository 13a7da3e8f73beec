"""CTO convertibility: bend grids, the feasibility LP, witnesses and monotones.

Convertibility of a source joint state U (ell branches) into a target V
(m branches) is equivalent to the existence of a row-stochastic R with

    sum_x R[x][y] * L[u^x](s)  >=  L[v^y](s)

at every bend s of the target branch curve L[v^y] and at s = 1: the left
side is concave in s and the right side is linear between its own bends,
so their difference is smallest at one of those points.  With ell = 1, R is
forced to (q_1, ..., q_m), with m = 1 to all ones, and the check and its
Farkas certificate are closed-form.  Otherwise, as summing the rows over y
shows that no CTO increases the monotones sum_x L[u^x](s), a target whose
sum_y L[v^y](s) exceeds them at a point of the union bend grid of all
target branches is refused with no LP (in float mode beyond a margin of
(m (i + 1) + 1) eps_lp at grid row i, which no eps_lp-verified point
reaches).  Else the own rows, placed on that grid, enter the decision LP by
row generation: a few rows per branch first, then each round the most
violated row of each branch, until R satisfies them all (most are slack at
the answer); infeasibility of any round yields a Farkas certificate.  In
rational mode the grid is integers over G and the rows integers over one
denominator: the screen and scan compare cross-products, and the LP gets
one Fraction per coefficient it uses.
A certificate's inequality multipliers, zero-padded onto every (branch,
grid row) pair, reverse-cumsum into a nonnegative, column-non-increasing
witness matrix A with a strictly negative conversion functional.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .asymptotic import _resource_value
from .core import (CQState, GibbsContext, NumericPolicy, StateVector,
                   _check_entries, _over_lcm, vdot)
from .errors import (
    DegenerateCertificate,
    DegenerateSource,
    DimensionMismatch,
    DimensionTooLarge,
    MassMismatch,
    NotThermoMajorizing,
    SolveBudgetExceeded,
    ValidationError,
)
from .lorenz import (
    _first_above,
    _int_grid,
    _int_rows,
    _majorization_curves,
    _merge_sorted,
    build_lorenz,
    cq_branch_curves,
    merged_bend_grid,
)
from . import lp
from .lp import FEASIBLE, LinearSystem, solve_feasibility


@dataclass(frozen=True)
class WitnessMatrix:
    """Nonnegative, total mass one, every column non-increasing downwards."""

    a: tuple  # D x m, rows

    @property
    def n_rows(self) -> int:
        return len(self.a)

    @property
    def n_cols(self) -> int:
        return len(self.a[0])

    def column(self, z: int) -> tuple:
        return tuple(row[z] for row in self.a)

    def validate(self, policy: NumericPolicy) -> "WitnessMatrix":
        for row in self.a:
            _check_entries(row, policy, "witness entry")
        # in rational mode on integer numerators a / one, one the lcm
        one, a = _over_lcm_rows(self.a) if policy.exact else (policy.one(), self.a)
        total = sum(sum(row) for row in a)
        if not policy.close(total, one):
            raise ValidationError(f"witness mass {sum(map(sum, self.a))} != 1")
        for upper, lower in zip(a, a[1:]):
            for z, (hi, lo) in enumerate(zip(upper, lower)):
                if not policy.leq(lo, hi):
                    raise ValidationError(f"witness column {z} is not non-increasing")
        return self


@dataclass(frozen=True)
class Decision:
    """Either a row-stochastic control-map seed or a non-convertibility witness."""

    convertible: bool
    plan_seed: tuple | None = None
    witness: WitnessMatrix | None = None


class MonotoneValues(NamedTuple):
    abscissae: tuple
    values: tuple
    free_energy: float


def _grid_values(src_curves, tgt_curves, policy: NumericPolicy):
    """The target curves' merged bend grid 0 = s_0 < ... < s_D = 1, and the
    curves' values at s_1..s_D as rows, cum[i][x] = L[curve x](s_{i+1})."""
    grid = merged_bend_grid(tgt_curves, policy)
    return grid, _rows_of(src_curves, grid[1:]), _rows_of(tgt_curves, grid[1:])


def _rows_of(curves, xs) -> list:
    """rows[i][x] = curves[x](xs[i]) for non-decreasing xs, one walk per curve."""
    cols = [c.values(xs) for c in curves]
    return [list(row) for row in zip(*cols)] if cols else [[] for _ in xs]


def _decide(cum_p, cum_q, policy: NumericPolicy, rows, dp=1, dq=1):
    """One LP: find row-stochastic R with cum_p . R >= cum_q on the given rows.

    cum_p, cum_q hold the cumulative (lower-triangular-summed) values at
    rows i = 0..D-1, in rational mode as numbers over dp and dq (integers
    over the rows' denominators, each coefficient the LP uses made one
    Fraction); variables are R[x][y] flattened x-major.  rows[y] lists
    the rows put into the LP for branch y, any subset of 0..D-1.  The
    certificate's multipliers are zero-padded onto the full target-major
    layout of D*m rows before `extract_witness`: a Farkas certificate of a
    row subset certifies every system holding those rows, so a witness
    always has D rows.  Returns the Decision and the solve's work.
    """
    n_rows = len(cum_p)
    ell = len(cum_p[0])
    m = len(cum_q[0])
    n_vars = ell * m
    zero, one = policy.zero(), policy.one()
    exact = policy.exact
    fp = {i: [Fraction(v, dp) for v in cum_p[i]] for r in rows for i in r} if exact else cum_p

    eq = []
    for x in range(ell):
        row = [zero] * n_vars
        for y in range(m):
            row[x * m + y] = one
        eq.append((row, one))

    ineq = []
    flat = []  # position of each inequality in the full y-major layout
    for y in range(m):
        for i in rows[y]:
            row = [zero] * n_vars
            for x in range(ell):
                row[x * m + y] = fp[i][x]
            ineq.append((row, Fraction(cum_q[i][y], dq) if exact else cum_q[i][y]))
            flat.append(y * n_rows + i)

    sys = LinearSystem(n_vars=n_vars, eq=tuple(eq), ineq=tuple(ineq))
    res = solve_feasibility(sys, policy)
    if res.status == FEASIBLE:
        control = _clean_control(res.point, ell, m, policy)
        return Decision(convertible=True, plan_seed=control), res.work
    y_eq, y_in = res.certificate
    padded = [zero] * (n_rows * m)
    for k, v in zip(flat, y_in):
        padded[k] = v
    witness = extract_witness((y_eq, padded), n_rows, m)
    return Decision(convertible=False, witness=witness), res.work


def _own_rows(bends, grid) -> list:
    """Rows 0..D-1 of grid[1:] that carry a curve's own bends, and s = 1.

    A bend maps to the grid point at or just below it, which is the point
    that merging folded it into (in rational mode, bends and grid are
    integers over G).
    """
    idx = {bisect_right(grid, b) - 1 for b in bends}
    idx.add(len(grid) - 1)
    idx.discard(0)
    return [i - 1 for i in sorted(idx)]


def _clean_control(point, ell: int, m: int, policy: NumericPolicy):
    rows = []
    for x in range(ell):
        row = [point[x * m + y] for y in range(m)]
        if not policy.exact:
            row = [max(0.0, v) for v in row]
            total = sum(row)
            row = [v / total for v in row]
        rows.append(tuple(row))
    return tuple(rows)


def check_cto(source: CQState, target: CQState, ctx: GibbsContext) -> Decision:
    """Decide convertibility of source into target under CTO.

    A control forced by ell = 1 or m = 1 is checked in closed form.  For
    ell, m >= 2, `_phi_screen` refuses with no LP where sum_y L[v^y]
    exceeds the monotone sum_x L[u^x] at grid row i, in float mode by more
    than (m (i + 1) + 1) eps_lp: a point verified within eps_lp keeps the
    excess within (m + 1) eps_lp, so no LP answer is overturned.  Row
    generation serves the rest: the first LP holds, per branch y, the
    s = 1 row and the own row where the target's conditional curve most
    exceeds the mixed source curve.  A refusal is final; a control R is
    checked against the own rows left out (exactly in rational mode, within
    eps_lp in float mode), and each branch's most violated row joins the
    next LP until none is violated.  All rounds get one work budget.
    """
    policy = ctx.policy
    src_curves = cq_branch_curves(source, ctx)
    tgt_curves = cq_branch_curves(target, ctx)
    m = len(tgt_curves)
    if len(src_curves) == 1 or m == 1:
        found = _forced_violation(src_curves, tgt_curves, policy)
        if found is None:  # the forced R is the plan seed
            return Decision(True, ((policy.one(),),) * len(src_curves) if m == 1
                            else (tuple(c.mass for c in tgt_curves),))
        # Farkas certificate: y_in is 1 at branch y's row i that s merged into (as in
        # `_own_rows`) and, if ell = 1, c = cum_p[i][0] at the other s = 1 rows, and
        # y_eq = -cum_p[i]; gain cum_q[i][y] - c q_y, or cum_q[i] - sum(cum_p[i]).
        (y, s), grid = found, merged_bend_grid(tgt_curves, policy)
        n, i = len(grid) - 1, bisect_right(grid, s) - 2
        y_eq = [-c.value(grid[i + 1]) for c in src_curves]
        c = -y_eq[0] if len(src_curves) == 1 else policy.zero()
        y_in = ([policy.zero()] * (n - 1) + [c]) * m
        y_in[y * n + n - 1], y_in[y * n + i] = policy.zero(), policy.one()
        return Decision(False, witness=extract_witness((y_eq, y_in), n, m))
    exact = policy.exact
    tol = 0 if exact else policy.eps_lp
    # cum_p = ip / dp, cum_q = iq / dq: in rational mode the grid is integers
    # over G and the rows integers, from the curves' `_ints`
    if exact:
        grid = _int_grid(tgt_curves)
        (dp, ip), (dq, iq) = _int_rows(src_curves, grid[1:]), _int_rows(tgt_curves, grid[1:])
    else:
        (grid, ip, iq), dp, dq = _grid_values(src_curves, tgt_curves, policy), 1, 1
    mix = [sum(row) for row in ip]  # the mixed source curve, sum_x L[u^x]
    if (refusal := _phi_screen(ip, mix, iq, dp, dq, policy)) is not None:
        return refusal
    rows, left = [], []  # per branch: rows in the LP, own rows left out
    for y, curve in enumerate(tgt_curves):
        own = _own_rows(curve._ints[2][1:-1] if exact else curve.bend_abscissae, grid)
        mass = iq[-1][y]
        top = max(own, key=lambda i: iq[i][y] * dp - mass * mix[i])
        rows.append(sorted({top, own[-1]}))
        left.append([i for i in own if i not in rows[-1]])
    spent = 0
    while True:
        decision, work = _decide(ip, iq, policy, rows, dp, dq)
        spent += work
        if spent > lp._WORK_BUDGET:
            raise SolveBudgetExceeded(
                f"simplex work budget of {lp._WORK_BUDGET} spent: {spent} over "
                f"the rounds of one decision")
        if not decision.convertible:
            return decision
        added = False
        for y, pending in enumerate(left):
            col = [(x, r[y]) for x, r in enumerate(decision.plan_seed) if r[y]]
            scale = 1
            if exact and pending:  # R's column as ns / rd: the slack times rd dp dq
                rd, ns = _over_lcm([r for _, r in col])
                col, scale = [(x, n * dq) for (x, _), n in zip(col, ns)], rd * dp
            i = _most_violated(col, ip, iq, y, pending, tol, scale)
            if i is not None:
                pending.remove(i)
                insort(rows[y], i)
                added = True
        if not added:
            return decision


def _phi_screen(ip, mix, iq, dp, dq, policy: NumericPolicy):
    """A refusal with no LP where a phi monotone grows, else None.

    Summing row i over the branches gives gap_i = sum_y cum_q[i][y] -
    sum_x cum_p[i][x] <= 0 for every row-stochastic R, with cum_p = ip / dp
    and cum_q = iq / dq as in `check_cto`.  At the row with the
    largest gap_i / (i + 1), first on ties (integer cross-products:
    gap_i dp dq = sum(iq[i]) dp - mix[i] dq), the certificate y_in = 1 at
    row i of each branch, y_eq = -cum_p[i] folds into witness columns
    1 / (m (i + 1)) on rows 0..i, with functional -gap_i / (m (i + 1)).
    Float mode needs gap_i > (m (i + 1) + 1) eps_lp (see `check_cto`).
    """
    tol = 0 if policy.exact else policy.eps_lp
    n, m = len(iq), len(iq[0])
    best, at = 0, 1  # the largest gap_i / (i + 1) so far, as best / at
    for k, (q, p) in enumerate(zip(iq, mix), 1):
        gap = sum(q) * dp - p * dq
        if gap > (m * k + 1) * tol and gap * at > best * k:
            best, at = gap, k
    if not best:
        return None
    y_in = [policy.one() if k == at else policy.zero()
            for _ in range(m) for k in range(1, n + 1)]  # branch-major, row-minor
    y_eq = [Fraction(-v, dp) if policy.exact else -v for v in ip[at - 1]]
    return Decision(False, witness=extract_witness((y_eq, y_in), n, m))


def _forced_violation(src_curves, tgt_curves, policy: NumericPolicy):
    """(y, s), the first target branch and vertex where L[v^y] lies above
    sum_x R[x][y] L[u^x] for the R that ell = 1 or m = 1 forces, or None."""
    for y, cv in enumerate(tgt_curves):
        xs = cv.abscissae[1:]
        upper = (map(sum, _rows_of(src_curves, xs)) if len(tgt_curves) == 1
                 else [cv.mass * t for t in src_curves[0].values(xs)])
        if (s := _first_above(cv, upper, policy)) is not None:
            return y, s
    return None


def _most_violated(col, cum_p, cum_q, y, pending, tol, scale=1):
    """The row i of `pending` with the most negative slack
    sum_x R[x][y] cum_p[i][x] - scale * cum_q[i][y] below -tol, over the
    nonzero entries (x, R[x][y]) of column y; None if no row is violated.
    A NaN slack counts as violated."""
    worst, pick = -tol, None
    for i in pending:
        cp = cum_p[i]
        slack = sum(r * cp[x] for x, r in col) - scale * cum_q[i][y]
        if slack != slack:
            return i
        if slack < worst:
            worst, pick = slack, i
    return pick


def lt_majorize(p: Sequence, q: Sequence, policy: NumericPolicy,
                return_theta: bool = False):
    """Cumulative-sum dominance of p over q (no reordering).

    With return_theta, also returns a lower-triangular column-stochastic
    transfer matrix theta with theta p = q, built without an LP.
    """
    if len(p) != len(q):
        raise DimensionMismatch("vectors differ in length")
    if not policy.close(sum(p), sum(q)):
        raise MassMismatch(f"masses {sum(p)} and {sum(q)} differ")
    acc_p, acc_q = policy.zero(), policy.zero()
    dominates = True
    for a, b in zip(p, q):
        acc_p += a
        acc_q += b
        if not policy.leq(acc_q, acc_p):
            dominates = False
            break
    if not return_theta:
        return dominates
    if not dominates:
        return False, None
    return True, _lt_transfer(p, q, policy)


def _lt_transfer(p, q, policy: NumericPolicy):
    """Northwest-corner fill: pour each p_j into the earliest unfilled q_i
    with i >= j (dominance has filled those with i < j; float mode skips
    their rounding residue); theta_jj = 1 when p_j = 0."""
    d = len(p)
    zero, one = policy.zero(), policy.one()
    theta = [[zero] * d for _ in range(d)]
    i, room = -1, zero
    for j, pj in enumerate(p):
        if pj == 0:
            theta[j][j] = one
            continue
        if i < j:
            i, room = j, q[j]
        left = pj
        while i < d - 1 and left > room:
            if room > 0:
                theta[i][j] = room / pj
                left -= room
            i += 1
            room = q[i]
        theta[i][j] += left / pj
        room -= left
    return tuple(tuple(r) for r in theta)


def check_state_to_ensemble(u: StateVector, target: CQState,
                            ctx: GibbsContext) -> bool:
    """Trivial classical register on the source: `check_cto`'s rule for
    ell = 1, without its certificate."""
    policy = ctx.policy
    cu = build_lorenz(u, ctx)
    if not policy.close(cu.mass, policy.one()):
        raise MassMismatch("source state must be normalized")
    return _forced_violation([cu], cq_branch_curves(target, ctx), policy) is None


def check_ensemble_to_state(source: CQState, v: StateVector,
                            ctx: GibbsContext) -> bool:
    """Single-branch target: `check_cto`'s rule for m = 1, without its certificate."""
    policy = ctx.policy
    curves = cq_branch_curves(source, ctx)
    cv = build_lorenz(v, ctx)
    if not policy.close(cv.mass, policy.one()):
        raise MassMismatch("target state must be normalized")
    return _forced_violation(curves, [cv], policy) is None


def p_min(u: StateVector, v: StateVector, ctx: GibbsContext):
    """Threshold weight for converting (p*u, (1-p)*g) into v."""
    policy = ctx.policy
    cu, cv = _majorization_curves(u, v, ctx)
    upper = cu.values(cv.abscissae[1:])  # L[u] at L[v]'s vertices past 0
    if _first_above(cv, upper, policy) is not None:
        raise NotThermoMajorizing("source does not thermo-majorize the target")
    diagonal_u = len(cu.bend_abscissae) == 0
    best = policy.zero()
    for (s, t), tu in zip(cv.points[1:-1], upper):  # L[v]'s bends
        num = t - s
        if num <= 0:
            continue
        if diagonal_u:
            raise DegenerateSource("source is the Gibbs state but target is not")
        den = tu - s
        if den <= 0:
            # thermo-majorization gives den >= num > 0; float noise only
            ratio = policy.one()
        else:
            ratio = num / den
        if ratio > best:
            best = ratio
    return min(best, policy.one())


def omega(witness: WitnessMatrix, w: Sequence):
    """max over witness columns of the dot product with w."""
    if len(w) != witness.n_rows:
        raise DimensionMismatch(
            f"vector of length {len(w)} against witness with {witness.n_rows} rows"
        )
    return max(vdot(witness.column(z), w) for z in range(witness.n_cols))


def extract_witness(certificate, n_rows: int, m: int) -> WitnessMatrix:
    """Reverse-cumsum the inequality multipliers columnwise, then normalize.

    The multipliers arrive ordered target-branch major, grid-row minor,
    matching the inequality layout of the decision LP.  Fractions are
    folded as integer numerators over the lcm of their denominators, and
    each entry becomes one Fraction: the one the Fraction fold gives.
    """
    _, y_in = certificate
    if len(y_in) != n_rows * m:
        raise DimensionMismatch("certificate length does not match grid/branches")
    exact = all(isinstance(v, Fraction) for v in y_in)
    if exact:
        _, y_in = _over_lcm(y_in)
    zero = 0 * y_in[0]  # matches the entry type (float, Fraction or int)
    a = [[zero] * m for _ in range(n_rows)]
    for y in range(m):
        acc = zero
        for i in range(n_rows - 1, -1, -1):
            acc = acc + max(y_in[y * n_rows + i], zero)
            a[i][y] = acc
    total = sum(sum(row) for row in a)
    if total <= 0:
        raise DegenerateCertificate("all inequality multipliers vanish")
    if exact:
        return WitnessMatrix(tuple(tuple(Fraction(v, total) for v in row) for row in a))
    return WitnessMatrix(tuple(tuple(v / total for v in row) for row in a))


def verify_witness(witness: WitnessMatrix, source: CQState, target: CQState,
                   ctx: GibbsContext):
    """Conversion functional: sum_x omega(p^x) - sum_y omega(q^y).

    Negative values certify non-convertibility; computed on the weighted
    columns, which equals the conditional form by positive homogeneity.
    Both joint states must pass `cq_branch_curves`'s checks, and the
    witness must be a valid `WitnessMatrix`.

    Each <a_z, p> is summed by parts, sum_i (a_z[i] - a_z[i+1]) L(s_{i+1})
    with a_z[D] = 0: the curves are read only where a column steps down.
    In rational mode on integer numerators, with one Fraction at the end.
    """
    policy = ctx.policy
    src_curves = cq_branch_curves(source, ctx)
    tgt_curves = cq_branch_curves(target, ctx)
    grid = _int_grid(tgt_curves) if policy.exact else merged_bend_grid(tgt_curves, policy)
    if len(grid) - 1 != witness.n_rows:
        raise DimensionMismatch(
            f"witness has {witness.n_rows} rows, target grid has "
            f"{len(grid) - 1} segments"
        )
    witness.validate(policy)
    da, a = _over_lcm_rows(witness.a) if policy.exact else (1, witness.a)
    steps = [(i, d) for i, d in enumerate(
        [[u - v for u, v in zip(row, below)] for row, below in zip(a, a[1:])] + [a[-1]])
        if any(d)]
    xs = [grid[i + 1] for i, _ in steps]
    sides = []  # (denominator, sum over the curves of max over z of <a_z, c>)
    for curves in (src_curves, tgt_curves):
        den, vals = _int_rows(curves, xs) if policy.exact else (1, _rows_of(curves, xs))
        sides.append((den, sum(
            max(sum(d[z] * v[x] for (_, d), v in zip(steps, vals))
                for z in range(witness.n_cols))
            for x in range(len(curves)))))
    (dp, gain), (dq, loss) = sides
    if policy.exact:
        return Fraction(gain * dq - loss * dp, da * dp * dq)
    return gain - loss


def _over_lcm_rows(rows) -> tuple:
    """Rows of ints and Fractions over one denominator: (D, integer rows)."""
    den, ns = _over_lcm([x for row in rows for x in row])
    w = len(rows[0]) if rows else 0
    return den, [ns[i * w:(i + 1) * w] for i in range(len(rows))]


_SIGMA_D_MAX = 16  # 2^d subset sums


def sigma_grid(ctx: GibbsContext) -> tuple:
    """All proper partial sums of Gibbs weights over every level ordering.

    These are the sums over the proper non-empty subsets of levels, so at
    most 2^d - 2 values; float sums closer than eps_merge are merged, and
    those that round to 1 or more are dropped.
    """
    d = ctx.dim
    if d > _SIGMA_D_MAX:
        raise DimensionTooLarge(
            f"subset-sum grid needs d <= {_SIGMA_D_MAX}, got {d} (2^d blowup)"
        )
    policy = ctx.policy
    sums = [policy.zero()]  # sums[mask]: the sum over the levels in mask
    for g in ctx.gibbs:
        sums += [acc + g for acc in sums]
    return tuple(_merge_sorted(sorted({s for s in sums[1:-1] if s < 1}), policy))


def uniform_grid(n: int, policy: NumericPolicy) -> tuple:
    """The abscissae i/n for i = 1..n, in the policy's number type."""
    if policy.exact:
        return tuple(Fraction(i, n) for i in range(1, n + 1))
    return tuple(i / n for i in range(1, n + 1))


def phi_monotones(state: CQState, ctx: GibbsContext,
                  abscissae: Sequence | None = None) -> MonotoneValues:
    """Curve-value monotones sum_x L[u^x](s) on a source-independent grid,
    plus the averaged relative free energy.  No CTO increases them, so
    `check_cto` refuses with no LP where they grow on the target's bend grid:
    in float mode by over (m (i + 1) + 1) eps_lp at grid row i with m target
    branches, a margin beyond any eps_lp-verified LP answer."""

    curves = cq_branch_curves(state, ctx)  # checks the state
    free = _resource_value(state, ctx, relative=True)
    if abscissae is None:
        if ctx.dim <= 6:
            abscissae = sigma_grid(ctx)
        else:
            abscissae = uniform_grid(64, ctx.policy)
    xs = tuple(abscissae)
    order = sorted(range(len(xs)), key=xs.__getitem__)  # walked sorted, kept in order
    sums = map(sum, _rows_of(curves, [xs[i] for i in order]))
    values = tuple(v for _, v in sorted(zip(order, sums)))
    return MonotoneValues(abscissae=xs, values=values, free_energy=free)
