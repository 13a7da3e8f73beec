"""Lorenz curves, thermo-majorization and the dimension-embedding construction.

A curve is stored as its vertex list after merging collinear vertices, so
the interior abscissae are exactly the bends and segment slopes strictly
decrease left to right.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .core import CQState, GibbsContext, NumericPolicy, StateVector
from .errors import DimensionMismatch, EmptyInput, MassMismatch, OutOfRange


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear concave curve from (0,0) to (1, mass)."""

    points: tuple  # ((s, t), ...)

    @property
    def mass(self):
        return self.points[-1][1]

    @cached_property
    def _xs(self) -> tuple:
        """Vertex abscissae, computed once for `value`'s bisection."""
        return tuple(p[0] for p in self.points)

    @property
    def bend_abscissae(self) -> tuple:
        return self._xs[1:-1]

    def value(self, s):
        """Linear interpolation; exact at vertices."""
        pts = self.points
        lo, hi = pts[0][0], pts[-1][0]
        if s < lo or s > hi:
            raise OutOfRange(f"abscissa {s} outside [{lo}, {hi}]")
        k = bisect_right(self._xs, s)
        if k >= len(pts):
            return pts[-1][1]
        s0, t0 = pts[k - 1]
        s1, t1 = pts[k]
        if s == s0:
            return t0
        return t0 + (t1 - t0) * (s - s0) / (s1 - s0)


def _eval_clamped(curve: LorenzCurve, s, policy: NumericPolicy):
    """Evaluate, tolerating float noise just outside [0, 1]."""
    if not policy.exact:
        if -policy.eps_cmp <= s < 0:
            s = 0.0
        elif 1 < s <= 1 + policy.eps_cmp:
            s = 1.0
    return curve.value(s)


def build_lorenz(w: StateVector, ctx: GibbsContext, *,
                 validated: bool = False) -> LorenzCurve:
    """Sort levels by w_i/g_i non-increasing and connect the cumulative points.

    validated=True skips `w.validate`, for a caller that has checked w
    already (as CQState.validate checks each column).
    """
    if w.dim != ctx.dim:
        raise DimensionMismatch(
            f"state has dimension {w.dim}, context has {ctx.dim}"
        )
    if not validated:
        w.validate(ctx.policy)
    g = ctx.gibbs
    ratios, order = lorenz_order(w, g)

    policy = ctx.policy
    zero = policy.zero()
    pts = [(zero, zero)]
    s = zero
    t = zero
    prev_slope = None
    for i in order:
        s = s + g[i]
        t = t + w.w[i]
        slope = ratios[i]
        if prev_slope is not None and _same_slope(prev_slope, slope, policy):
            pts[-1] = (s, t)  # extend the current collinear segment
        else:
            pts.append((s, t))
            prev_slope = slope
    # pin the endpoint abscissa to exactly 1 (float cumsum noise)
    last_s, last_t = pts[-1]
    if not policy.exact and last_s != 1.0:
        pts[-1] = (1.0, last_t)
    return LorenzCurve(tuple(pts))


def lorenz_order(w: StateVector, g) -> tuple:
    """Slopes w_i/g_i, and the levels by slope, non-increasing (L[w]'s order)."""
    ratios = [w.w[i] / g[i] for i in range(w.dim)]
    return ratios, sorted(range(w.dim), key=ratios.__getitem__, reverse=True)


def _same_slope(a, b, policy: NumericPolicy) -> bool:
    if policy.exact:
        return a == b
    return abs(a - b) <= policy.eps_merge


def thermo_majorizes(u: StateVector, v: StateVector, ctx: GibbsContext) -> bool:
    """True when L[u] lies nowhere below L[v] (checked at the bends of L[v])."""
    if u.dim != v.dim:
        raise DimensionMismatch("states differ in dimension")
    policy = ctx.policy
    if not policy.close(u.mass, v.mass):
        raise MassMismatch(f"masses {u.mass} and {v.mass} differ")
    cu = build_lorenz(u, ctx)
    cv = build_lorenz(v, ctx)
    for s in cv.bend_abscissae:
        if not policy.leq(cv.value(s), cu.value(s)):
            return False
    return True


def merged_bend_grid(curves, policy: NumericPolicy) -> list:
    """Sorted union of the curves' interior bends, deduplicated, plus 0 and 1."""
    interior = sorted(s for c in curves for s in c.bend_abscissae)
    grid = [policy.zero()]
    for s in interior:
        if policy.exact:
            if s != grid[-1]:
                grid.append(s)
        elif s - grid[-1] > policy.eps_merge:
            grid.append(s)
    one = policy.one()
    if policy.exact:
        if grid[-1] != one:
            grid.append(one)
    else:
        if one - grid[-1] > policy.eps_merge:
            grid.append(one)
        else:
            grid[-1] = 1.0
    return grid


def embed_states(states, ctx: GibbsContext):
    """Re-express states on the union bend grid of their Lorenz curves.

    Returns a new context whose Gibbs weights are the grid gaps, and one
    vector of Lorenz increments per input state.  Every output curve equals
    its input curve, and curves of mixtures equal mixtures of curves.
    """
    if not states:
        raise EmptyInput("no states to embed")
    policy = ctx.policy
    for w in states:
        if not policy.close(w.mass, policy.one()):
            raise MassMismatch(f"embedding requires normalized states, mass {w.mass}")
    curves = [build_lorenz(w, ctx) for w in states]
    grid = merged_bend_grid(curves, policy)
    weights = [grid[i] - grid[i - 1] for i in range(1, len(grid))]
    ctx2 = GibbsContext.from_weights(weights, policy)
    out = []
    for c in curves:
        vals = [_eval_clamped(c, s, policy) for s in grid]
        out.append(StateVector(tuple(vals[i] - vals[i - 1]
                                     for i in range(1, len(grid)))))
    return ctx2, out


def cq_branch_curves(state: CQState, ctx: GibbsContext, *,
                     validated: bool = False) -> list:
    """Lorenz curves of the weighted columns of a joint state (see
    `build_lorenz` for validated)."""
    return [build_lorenz(c, ctx, validated=validated) for c in state.columns]
