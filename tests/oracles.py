"""Brute-force oracles, instance builders and reference constructions that
only the tests use.

Each is deterministic given its seed, like `ctoconv.testkit`'s generators,
which they build on.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from typing import Sequence

from ctoconv import convert
from ctoconv.convert import (Decision, WitnessMatrix, _decide, _grid_values,
                             check_cto, extract_witness)
from ctoconv.core import (CQState, CTOPlan, GibbsContext, NumericPolicy, StateVector, TOMatrix,
                          _check_entries, canonicalize_cq)
from ctoconv.errors import (DimensionMismatch, MassMismatch, NotStochasticSum,
                            NotThermoMajorizing)
from ctoconv.lorenz import cq_branch_curves, thermo_majorizes
from ctoconv.synth import apply_cto
from ctoconv.testkit import _rng, _unit, random_cto


def _increments(cum):
    """Per-segment increments of cumulative rows; curves start at L(0) = 0."""
    return (tuple(cum[0]),) + tuple(
        tuple(b - a for a, b in zip(prev, row)) for prev, row in zip(cum, cum[1:]))


def reachable_sample(state: CQState, ctx: GibbsContext, count: int, seed) -> list:
    """Outputs of random plans applied to the state; all CTO-reachable."""
    rng = _rng(seed)
    out = []
    for _ in range(count):
        plan = random_cto(ctx, state.n_branches, rng.randint(1, 3), rng)
        out.append(apply_cto(plan, state, ctx))
    return out


def random_witness(n_rows: int, n_cols: int, seed,
                   policy: NumericPolicy | None = None) -> WitnessMatrix:
    """`extract_witness` of uniform multipliers (lam[0][0] = 1 when all
    are zero): the exact image of the certificate construction."""
    policy = policy or NumericPolicy()
    rng = _rng(seed)
    lam = [[_unit(rng, policy) for _ in range(n_cols)] for _ in range(n_rows)]
    if not any(map(any, lam)):
        lam[0][0] = policy.one()
    flat = [lam[i][y] for y in range(n_cols) for i in range(n_rows)]
    return extract_witness(((), flat), n_rows, n_cols)


def pq_increments(source: CQState, target: CQState, ctx: GibbsContext):
    """Lorenz increments P (D x ell) and Q (D x m), as rows, of the source
    and target branches over the target's merged bend grid."""
    _, cum_p, cum_q = _grid_values(cq_branch_curves(source, ctx),
                                   cq_branch_curves(target, ctx), ctx.policy)
    return _increments(cum_p), _increments(cum_q)


def conditional_lt_majorize(p_matrix, q_matrix, policy: NumericPolicy) -> Decision:
    """Full-grid oracle: the decision LP with every row of every branch, on
    raw increment matrices (rows are grid segments)."""
    if len(p_matrix) != len(q_matrix):
        raise DimensionMismatch("joint distributions differ in row count")
    cum_p = _cumsum_rows(p_matrix)
    cum_q = _cumsum_rows(q_matrix)
    rows = [range(len(cum_q))] * len(cum_q[0])
    return _decide(cum_p, cum_q, policy, rows)[0]


def _cumsum_rows(matrix):
    out = []
    acc = None
    for row in matrix:
        acc = list(row) if acc is None else [a + b for a, b in zip(acc, row)]
        out.append(list(acc))
    return out


def two_column_source(u: StateVector, p, ctx: GibbsContext) -> CQState:
    """The threshold construction: weight p on u, weight 1-p on the Gibbs state."""
    g = StateVector(ctx.gibbs)
    cols = [u.scaled(p), g.scaled(ctx.policy.one() - p)]
    return canonicalize_cq(CQState(tuple(cols)), ctx.policy)


def pmin_grid_oracle(u: StateVector, v: StateVector, ctx: GibbsContext,
                     step, bisect: bool = False):
    """Smallest grid multiple of step whose two-column source converts to v.

    Linear scan by default; bisect=True exploits monotonicity in p and
    verifies the flip by also checking the preceding grid point.
    """
    if not thermo_majorizes(u, v, ctx):
        raise NotThermoMajorizing("source does not thermo-majorize the target")
    target = canonicalize_cq(CQState((v,)), ctx.policy)
    n_steps = math.ceil(1 / Fraction(str(step)) if not isinstance(step, Fraction)
                        else 1 / step)

    def feasible(k: int) -> bool:
        p = min(ctx.policy.one(), k * step)
        src = two_column_source(u, p, ctx)
        return check_cto(src, target, ctx).convertible

    if bisect:
        lo, hi = 0, n_steps  # feasible(n_steps) holds: p = 1 thermo-majorizes
        if feasible(0):
            return 0 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        return min(ctx.policy.one(), hi * step)
    for k in range(n_steps + 1):
        if feasible(k):
            return min(ctx.policy.one(), k * step)
    raise NotThermoMajorizing("no grid weight converts; inconsistent inputs")


def perturb_to_infeasible(source: CQState, ctx: GibbsContext, seed,
                          max_steps: int = 10):
    """Sharpen the target's branches toward the steepest pure state until the
    pair stops being convertible; None when the source is already maximal."""
    rng = _rng(seed)
    policy = ctx.policy
    d = ctx.dim
    top = min(range(d), key=lambda i: ctx.gibbs[i])
    pure = [policy.zero()] * d
    pure[top] = policy.one()
    base = [c.normalized().w for c in source.columns]
    masses = source.branch_masses
    for k in range(1, max_steps + 1):
        if policy.exact:
            t = Fraction(k, max_steps)
        else:
            t = k / max_steps
        one = policy.one()
        cols = [
            StateVector(tuple(
                m * ((one - t) * b[i] + t * pure[i]) for i in range(d)
            ))
            for m, b in zip(masses, base)
        ]
        target = canonicalize_cq(CQState(tuple(cols)), policy)
        if not check_cto(source, target, ctx).convertible:
            return target
    return None


@contextmanager
def phi_screen_bypassed(screened=None):
    """Within the block, `check_cto` sends every ell, m >= 2 pair to the
    decision LP: the phi screen answers None.  The refusal (or None) that
    the screen would have given is appended to `screened`, if given."""
    screen = convert._phi_screen

    def bypass(*args):
        if screened is not None:
            screened.append(screen(*args))
        return None

    convert._phi_screen = bypass
    try:
        yield
    finally:
        convert._phi_screen = screen


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


def canonicalize_cto(terms, ctx: GibbsContext) -> CTOPlan:
    """Average an arbitrary indexed decomposition into the (x, y)-indexed form.

    terms: iterable of (sub-stochastic control part, TOMatrix) pairs whose
    control parts sum to a row-stochastic matrix.  Parts and maps are held
    to the entry rule: nonnegative, and no float in rational mode.
    """
    policy = ctx.policy
    terms = [(tuple(tuple(r) for r in part), t) for part, t in terms]
    if not terms:
        raise NotStochasticSum("empty decomposition")
    ell = len(terms[0][0])
    m = len(terms[0][0][0])
    d = ctx.dim
    total = [[policy.zero()] * m for _ in range(ell)]
    for part, t in terms:
        if len(part) != ell or any(len(r) != m for r in part):
            raise DimensionMismatch("ragged decomposition parts")
        if t.dim != d:
            raise DimensionMismatch("branch map dimension mismatch")
        for x in range(ell):
            _check_entries(part[x], policy, "sub-stochastic entry")
            for y in range(m):
                total[x][y] += part[x][y]
    for x in range(ell):
        if not policy.close(sum(total[x]), policy.one()):
            raise NotStochasticSum(
                f"row {x} of the summed control parts is not stochastic"
            )
    _check_entries((v for _, t in terms for row in t.t for v in row),
                   policy, "matrix entry")
    branch_maps = {}
    for x in range(ell):
        for y, r_xy in enumerate(total[x]):
            if r_xy == 0:
                continue
            acc = [[policy.zero()] * d for _ in range(d)]
            for part, t in terms:
                c = part[x][y]
                if c == 0:
                    continue
                for i, row in enumerate(t.t):
                    for j in range(d):
                        acc[i][j] += c * row[j]
            branch_maps[(x, y)] = TOMatrix(
                tuple(tuple(v / r_xy for v in row) for row in acc)
            )
    return CTOPlan(control=tuple(tuple(r) for r in total), branch_maps=branch_maps)


def map_by_map_apply(plan: CTOPlan, state: CQState, ctx: GibbsContext) -> CQState:
    """`apply_cto` with each used map applied by itself and the mapped
    columns summed in x order from a zero, as before a branch's maps were
    applied together.  A map runs E, then its steps, then B, each E row's
    first product starting its sum; on a dense map (no steps, B = 1) these
    are the dense row loop's operations in its order."""
    policy = ctx.policy
    state.validate(policy)
    cols = []
    for y in range(plan.n_out):
        acc = [policy.zero()] * state.dim
        for x in range(plan.n_in):
            r = plan.control[x][y]
            if r != 0:
                t, w, out = plan.branch_maps[(x, y)], state.columns[x].w, []
                for row in t._e:
                    z = None
                    for c, e in row.items():
                        if e:
                            z = e * w[c] if z is None else z + e * w[c]
                    out.append(0 * w[0] if z is None else z)
                for j, k, keep, a, b in t._steps:
                    s = out[j] + out[k]
                    out[j], out[k] = keep * out[j] + a * s, keep * out[k] + b * s
                acc = [a + r * (b * out[k]) for a, (k, b) in zip(acc, t._home)]
        cols.append(StateVector(tuple(acc)))
    return canonicalize_cq(CQState(tuple(cols)), policy)
