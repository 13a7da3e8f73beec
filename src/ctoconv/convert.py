"""CTO convertibility: bend grids, the feasibility LP, witnesses and monotones.

Convertibility of a source joint state U (ell branches) into a target V
(m branches) is equivalent to the existence of a row-stochastic R with

    sum_x R[x][y] * L[u^x](s_i)  >=  L[v^y](s_i)

at every abscissa s_i where some target branch curve bends (sufficiency by
concavity).  Infeasibility yields a Farkas certificate, whose inequality
multipliers reverse-cumsum into a nonnegative, column-non-increasing witness
matrix A with a strictly negative conversion functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple, Sequence

from .core import CQState, GibbsContext, NumericPolicy, StateVector, vdot
from .errors import (
    DegenerateCertificate,
    DegenerateSource,
    DimensionMismatch,
    DimensionTooLarge,
    MassMismatch,
    NotThermoMajorizing,
    OutOfRange,
    ValidationError,
)
from .lorenz import (
    _eval_clamped,
    build_lorenz,
    cq_branch_curves,
    merged_bend_grid,
    thermo_majorizes,
)
from .lp import FEASIBLE, LinearSystem, solve_feasibility


@dataclass(frozen=True)
class BendGrid:
    """0 = s_0 < s_1 < ... < s_D = 1, interior points being target bends."""

    abscissae: tuple

    @property
    def n_segments(self) -> int:
        return len(self.abscissae) - 1

    @property
    def interior(self) -> tuple:
        return self.abscissae[1:-1]


@dataclass(frozen=True)
class PQPair:
    """Lorenz increments of source and target branches over one grid."""

    p: tuple  # D x ell, rows
    q: tuple  # D x m, rows

    @property
    def n_rows(self) -> int:
        return len(self.p)

    def p_column(self, x: int) -> tuple:
        return tuple(row[x] for row in self.p)

    def q_column(self, y: int) -> tuple:
        return tuple(row[y] for row in self.q)


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
        total = sum(sum(row) for row in self.a)
        if not policy.close(total, policy.one()):
            raise ValidationError(f"witness mass {total} != 1")
        for row in self.a:
            for v in row:
                if not policy.nonneg(v):
                    raise ValidationError(f"negative witness entry {v}")
        for z in range(self.n_cols):
            col = self.column(z)
            for i in range(1, len(col)):
                if not policy.leq(col[i], col[i - 1]):
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


def bend_grid(target: CQState, ctx: GibbsContext) -> BendGrid:
    """Distinct bend abscissae of all target branch curves, plus 0 and 1."""
    curves = cq_branch_curves(target, ctx)
    return BendGrid(tuple(merged_bend_grid(curves, ctx.policy)))


def build_pq(source: CQState, target: CQState, ctx: GibbsContext,
             grid: BendGrid) -> PQPair:
    if source.dim != ctx.dim or target.dim != ctx.dim:
        raise DimensionMismatch("joint states do not match the context dimension")
    cum_p = _cumulative_values(source, ctx, grid)
    cum_q = _cumulative_values(target, ctx, grid)
    return PQPair(p=_diffs(cum_p), q=_diffs(cum_q))


def _cumulative_values(state: CQState, ctx: GibbsContext, grid: BendGrid):
    """cum[i][x] = L[branch x](s_i) for i = 0..D."""
    curves = cq_branch_curves(state, ctx)
    policy = ctx.policy
    return [
        [_eval_clamped(c, s, policy) for c in curves] for s in grid.abscissae
    ]


def _diffs(cum):
    return tuple(
        tuple(cum[i][x] - cum[i - 1][x] for x in range(len(cum[0])))
        for i in range(1, len(cum))
    )


def _decide(cum_p, cum_q, policy: NumericPolicy) -> Decision:
    """Shared LP: find row-stochastic R with cum_p . R >= cum_q rowwise.

    cum_p, cum_q hold the cumulative (lower-triangular-summed) values at
    rows i = 1..D; variables are R[x][y] flattened x-major.
    """
    n_rows = len(cum_p)
    ell = len(cum_p[0])
    m = len(cum_q[0])
    n_vars = ell * m
    zero, one = policy.zero(), policy.one()

    eq = []
    for x in range(ell):
        row = [zero] * n_vars
        for y in range(m):
            row[x * m + y] = one
        eq.append((row, one))

    ineq = []
    for y in range(m):
        for i in range(n_rows):
            row = [zero] * n_vars
            for x in range(ell):
                row[x * m + y] = cum_p[i][x]
            ineq.append((row, cum_q[i][y]))

    sys = LinearSystem(n_vars=n_vars, eq=tuple(eq), ineq=tuple(ineq))
    res = solve_feasibility(sys, policy)
    if res.status == FEASIBLE:
        control = _clean_control(res.point, ell, m, policy)
        return Decision(convertible=True, plan_seed=control)
    witness = extract_witness(res.certificate, n_rows, m)
    return Decision(convertible=False, witness=witness)


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
    """Decide convertibility of source into target under CTO."""
    source.validate(ctx.policy)
    target.validate(ctx.policy)
    grid = bend_grid(target, ctx)
    cum_p = _cumulative_values(source, ctx, grid)[1:]
    cum_q = _cumulative_values(target, ctx, grid)[1:]
    return _decide(cum_p, cum_q, ctx.policy)


def conditional_lt_majorize(p_matrix, q_matrix, policy: NumericPolicy) -> Decision:
    """LP form on raw joint distributions, for externally chosen grids."""
    if len(p_matrix) != len(q_matrix):
        raise DimensionMismatch("joint distributions differ in row count")
    cum_p = _cumsum_rows(p_matrix)
    cum_q = _cumsum_rows(q_matrix)
    return _decide(cum_p, cum_q, policy)


def _cumsum_rows(matrix):
    out = []
    acc = None
    for row in matrix:
        acc = list(row) if acc is None else [a + b for a, b in zip(acc, row)]
        out.append(list(acc))
    return out


def lt_majorize(p: Sequence, q: Sequence, policy: NumericPolicy,
                return_theta: bool = False):
    """Cumulative-sum dominance of p over q (no reordering).

    With return_theta, also finds a lower-triangular column-stochastic
    transfer matrix via LP feasibility.
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
    d = len(p)
    idx = {}
    n_vars = 0
    for i in range(d):
        for j in range(i + 1):
            idx[(i, j)] = n_vars
            n_vars += 1
    zero, one = policy.zero(), policy.one()
    eq = []
    for j in range(d):  # columns sum to one
        row = [zero] * n_vars
        for i in range(j, d):
            row[idx[(i, j)]] = one
        eq.append((row, one))
    for i in range(d):  # q_i = sum_{j<=i} theta_ij p_j
        row = [zero] * n_vars
        for j in range(i + 1):
            row[idx[(i, j)]] = p[j]
        eq.append((row, q[i]))
    res = solve_feasibility(LinearSystem(n_vars, eq=tuple(eq)), policy)
    if res.status != FEASIBLE:
        return None
    theta = [[zero] * d for _ in range(d)]
    for (i, j), k in idx.items():
        theta[i][j] = res.point[k]
    return tuple(tuple(r) for r in theta)


def check_state_to_ensemble(u: StateVector, target: CQState,
                            ctx: GibbsContext) -> bool:
    """Trivial classical register on the source: one curve must dominate all
    target conditionals (weighted form avoids dividing by branch masses)."""
    policy = ctx.policy
    if not policy.close(u.mass, policy.one()):
        raise MassMismatch("source state must be normalized")
    target.validate(policy)
    cu = build_lorenz(u, ctx)
    curves = cq_branch_curves(target, ctx)
    grid = merged_bend_grid(curves, policy)
    masses = target.branch_masses
    for s in grid:
        lu = _eval_clamped(cu, s, policy)
        for qy, cv in zip(masses, curves):
            if not policy.leq(_eval_clamped(cv, s, policy), qy * lu):
                return False
    return True


def check_ensemble_to_state(source: CQState, v: StateVector,
                            ctx: GibbsContext) -> bool:
    """Single-branch target: the averaged source curve must dominate L[v]."""
    policy = ctx.policy
    if not policy.close(v.mass, policy.one()):
        raise MassMismatch("target state must be normalized")
    source.validate(policy)
    curves = cq_branch_curves(source, ctx)
    cv = build_lorenz(v, ctx)
    for s in merged_bend_grid([cv], policy):
        avg = sum(_eval_clamped(c, s, policy) for c in curves)
        if not policy.leq(_eval_clamped(cv, s, policy), avg):
            return False
    return True


def p_min(u: StateVector, v: StateVector, ctx: GibbsContext):
    """Threshold weight for converting (p*u, (1-p)*g) into v."""
    policy = ctx.policy
    if not thermo_majorizes(u, v, ctx):
        raise NotThermoMajorizing("source does not thermo-majorize the target")
    cu = build_lorenz(u, ctx)
    cv = build_lorenz(v, ctx)
    diagonal_u = len(cu.bend_abscissae) == 0
    best = policy.zero()
    for s in cv.bend_abscissae:
        num = cv.value(s) - s
        if num <= 0:
            continue
        if diagonal_u:
            raise DegenerateSource("source is the Gibbs state but target is not")
        den = cu.value(s) - s
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
    matching the inequality layout of the decision LP.
    """
    _, y_in = certificate
    if len(y_in) != n_rows * m:
        raise DimensionMismatch("certificate length does not match grid/branches")
    lam = [[y_in[y * n_rows + i] for y in range(m)] for i in range(n_rows)]
    zero = 0 * y_in[0]  # matches the entry type (float or Fraction)
    a = [[zero] * m for _ in range(n_rows)]
    for y in range(m):
        acc = zero
        for i in range(n_rows - 1, -1, -1):
            acc = acc + max(lam[i][y], zero)
            a[i][y] = acc
    total = sum(sum(row) for row in a)
    if total <= 0:
        raise DegenerateCertificate("all inequality multipliers vanish")
    return WitnessMatrix(tuple(tuple(v / total for v in row) for row in a))


def verify_witness(witness: WitnessMatrix, source: CQState, target: CQState,
                   ctx: GibbsContext):
    """Conversion functional: sum_x omega(p^x) - sum_y omega(q^y).

    Negative values certify non-convertibility; computed on the weighted
    columns, which equals the conditional form by positive homogeneity.
    """
    grid = bend_grid(target, ctx)
    if grid.n_segments != witness.n_rows:
        raise DimensionMismatch(
            f"witness has {witness.n_rows} rows, target grid has "
            f"{grid.n_segments} segments"
        )
    pq = build_pq(source, target, ctx, grid)
    gain = sum(omega(witness, pq.p_column(x)) for x in range(source.n_branches))
    loss = sum(omega(witness, pq.q_column(y)) for y in range(target.n_branches))
    return gain - loss


def sigma_grid(ctx: GibbsContext, d_max: int = 6) -> tuple:
    """All proper partial sums of Gibbs weights over every level ordering."""
    d = ctx.dim
    if d > d_max:
        raise DimensionTooLarge(
            f"permutation grid needs d <= {d_max}, got {d} (factorial blowup)"
        )
    policy = ctx.policy
    sums = set()
    vals = []
    for perm in permutations(range(d)):
        acc = policy.zero()
        for k in range(d - 1):
            acc = acc + ctx.gibbs[perm[k]]
            vals.append(acc)
    vals.sort()
    out = []
    for s in vals:
        if not out:
            out.append(s)
        elif policy.exact:
            if s != out[-1]:
                out.append(s)
        elif s - out[-1] > policy.eps_merge:
            out.append(s)
    return tuple(out)


def uniform_grid(n: int, policy: NumericPolicy) -> tuple:
    """The abscissae i/n for i = 1..n, in the policy's number type."""
    if policy.exact:
        return tuple(Fraction(i, n) for i in range(1, n + 1))
    return tuple(i / n for i in range(1, n + 1))


def phi_monotones(state: CQState, ctx: GibbsContext,
                  abscissae: Sequence | None = None) -> MonotoneValues:
    """Curve-value monotones sum_x L[u^x](s) on a source-independent grid,
    plus the averaged relative free energy."""
    from .asymptotic import resource_value  # local import, avoids a cycle

    state.validate(ctx.policy)
    if abscissae is None:
        if ctx.dim <= 6:
            abscissae = sigma_grid(ctx)
        else:
            abscissae = uniform_grid(64, ctx.policy)
    for s in abscissae:
        if s < 0 or s > 1:
            raise OutOfRange(f"abscissa {s} outside [0, 1]")
    curves = cq_branch_curves(state, ctx)
    values = tuple(
        sum(_eval_clamped(c, s, ctx.policy) for c in curves) for s in abscissae
    )
    return MonotoneValues(
        abscissae=tuple(abscissae),
        values=values,
        free_energy=resource_value(state, ctx, relative=True),
    )
