"""Lorenz curves, thermo-majorization and the dimension-embedding construction.

A curve is stored as its vertex list after merging collinear vertices, so
the interior abscissae are exactly the bends and segment slopes strictly
decrease left to right.  `build_lorenz` establishes the curve invariant that
every other function relies on: the abscissae strictly increase from 0 and
end at exactly 1, so `LorenzCurve.values`, the one evaluator, is defined on
all of [0, 1].  In float mode the cumulative abscissa is capped at 1, a
vertex that rounding leaves at or before the previous one joins it, and the
endpoint is pinned to 1.0.

In rational mode a curve is built and walked on integer numerators: vertex
k is (S_k/G, T_k/W), G and W read from the context's and the column's held
integer forms (`core`).  `_int_grid` and `_int_rows` give a grid over G and
values over one denominator with no Fraction; else each output is the one
Fraction that exact arithmetic step by step gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (CQState, GibbsContext, NumericPolicy, StateVector,
                   _check_joint, _over_lcm)
from .errors import DimensionMismatch, EmptyInput, MassMismatch, OutOfRange


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear concave curve from (0,0) to (1, mass)."""

    points: tuple  # ((s, t), ...)
    abscissae: tuple = field(init=False, repr=False, compare=False)  # the s of points
    # (G, W, S, T) with points[k] == (S[k]/G, T[k]/W) on ints, () for a
    # curve with a float coordinate; derived from the points when not given
    _ints: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "abscissae", tuple([s for s, _ in self.points]))
        if self._ints is None:
            object.__setattr__(self, "_ints", _integer_vertices(self.points))

    @property
    def mass(self):
        return self.points[-1][1]

    @property
    def bend_abscissae(self) -> tuple:
        return self.abscissae[1:-1]

    def value(self, s):
        """The curve at s (see `values`)."""
        return self.values((s,))[0]

    def values(self, xs) -> list:
        """The curve at each abscissa of xs, by linear interpolation, exact at
        vertices: one walk along the vertices takes each s to the segment
        `bisect_right` on the abscissae gives.  xs must not decrease and must
        lie in the curve's range; else, NaN included, OutOfRange.

        A rational curve is walked on its integer vertices (S_k/G, T_k/W): an
        int or Fraction s = a/b lies at or past vertex k when S_k*b <= a*G,
        a vertex gives its stored value, and a point between vertices k-1
        and k gives the one Fraction (T_0*dS*b + dT*(a*G - S_0*b)) / (W*dS*b),
        with S_0, T_0 vertex k-1's and dS, dT the segment's rise.  A float
        curve, and a float s on a rational curve, take the generic formula
        t0 + (t1 - t0) * (s - s0) / (s1 - s0); on Fractions it gives the
        same Fraction."""
        ints = self._ints
        big_g, big_w, ss, ts = ints or (None, None, None, None)
        pts, ab = self.points, self.abscissae
        n = len(pts)
        # the last abscissa, and pa/pb its value when it was walked on ints
        prev, pa, pb = ab[0], (ss[0] if ints else None), big_g
        k, out = 1, []
        for s in xs:
            if ints and isinstance(s, (int, Fraction)):
                a, b = s.numerator, s.denominator
                if not (prev <= s if pa is None else pa * b <= a * pb):
                    raise OutOfRange(f"abscissa {s} outside [{prev}, {ab[-1]}]")
                prev, pa, pb = s, a, b
                ag = a * big_g
                while k < n and ss[k] * b <= ag:
                    k += 1
                sb = ss[k - 1] * b
                if sb == ag or k == n:  # k == n: s at or past the last abscissa
                    out.append(pts[k - 1][1])
                else:
                    t0, ds = ts[k - 1], ss[k] - ss[k - 1]
                    out.append(Fraction(t0 * ds * b + (ts[k] - t0) * (ag - sb),
                                        big_w * ds * b))
                continue
            if not prev <= s:
                raise OutOfRange(f"abscissa {s} outside [{prev}, {ab[-1]}]")
            prev, pa = s, None
            while k < n and ab[k] <= s:
                k += 1
            s0, t0 = pts[k - 1]
            if s == s0 or k == n:
                out.append(t0)
            else:
                s1, t1 = pts[k]
                out.append(t0 + (t1 - t0) * (s - s0) / (s1 - s0))
        # the largest s, checked after the walk
        if not (prev <= ab[-1] if pa is None else pa * big_g <= ss[-1] * pb):
            raise OutOfRange(f"abscissa {prev} outside [{ab[0]}, {ab[-1]}]")
        return out


def _integer_vertices(points) -> tuple:
    """`LorenzCurve._ints` of a curve given by its points: G and W the lcm of
    the abscissa and value denominators; () if a coordinate is neither an
    int nor a Fraction."""
    if not all(isinstance(x, (int, Fraction)) for p in points for x in p):
        return ()
    big_g, ss = _over_lcm([s for s, _ in points])
    big_w, ts = _over_lcm([t for _, t in points])
    return big_g, big_w, tuple(ss), tuple(ts)


def build_lorenz(w: StateVector, ctx: GibbsContext, by_slope=None) -> LorenzCurve:
    """Sort levels by w_i/g_i non-increasing and connect the cumulative points.

    The one place a column is checked (its dimension, `StateVector.validate`);
    callers read w's mass from the curve, summed in Lorenz order.  In
    rational mode the cumulative sums are the integers S = sum G_i and
    T = sum W_i of `_by_slope`'s integers, levels of equal slope key
    join one segment, and each vertex becomes (Fraction(S, G), Fraction(T, W)).
    A caller that has checked w may pass its `_by_slope(w, ctx)`, sorted once.
    """
    if w.dim != ctx.dim:
        raise DimensionMismatch(
            f"state has dimension {w.dim}, context has {ctx.dim}"
        )
    policy = ctx.policy
    g, wv = ctx.gibbs, w.w
    slopes, order, ints = by_slope or _by_slope(w.validate(policy), ctx)
    if policy.exact:
        return _build_exact(slopes, order, *ints)

    eps = policy.eps_merge
    pts = [(0.0, 0.0)]
    s = t = 0.0
    prev = math.nan  # equals no slope, so the first level starts a segment
    for i in order:
        s = s + g[i]
        t = t + wv[i]
        if s > 1.0:  # a float cumsum may pass 1, or stall on a tiny g
            s = 1.0
        slope = slopes[i]
        if abs(prev - slope) <= eps or s <= pts[-1][0]:
            pts[-1] = (s, t)  # extend the collinear segment, or join the vertex
        else:
            pts.append((s, t))
            prev = slope
    pts[-1] = (1.0, t)  # pin the endpoint
    return LorenzCurve(tuple(pts), ())


def _build_exact(keys, order, big_g, gs, big_w, ws) -> LorenzCurve:
    """`build_lorenz`'s rational loop, on the integers of `_by_slope`."""
    ss, ts = [0], [0]
    s = t = 0
    prev = None
    for i in order:
        s += gs[i]
        t += ws[i]
        if keys[i] == prev:
            ss[-1], ts[-1] = s, t  # extend the collinear segment
        else:
            ss.append(s)
            ts.append(t)
            prev = keys[i]
    ss[-1] = big_g  # pin the endpoint
    pts = tuple([(Fraction(a, big_g), Fraction(b, big_w)) for a, b in zip(ss, ts)])
    return LorenzCurve(pts, (big_g, big_w, tuple(ss), tuple(ts)))


def _by_slope(w: StateVector, ctx: GibbsContext) -> tuple:
    """Slopes w_i/g_i, the levels by slope, non-increasing (L[w]'s order),
    and in rational mode the integers (G, [G_i], W, [W_i]) behind them;
    None in float mode.

    In rational mode the slopes are the integer keys W_i*(P // G_i), each
    w_i/g_i times the same positive integer, read from the context's held
    (G, [G_i], [P // G_i]) and w's held (W, [W_i]) (`core`): g_i = G_i/G,
    w_i = W_i/W.  The order is the one Fraction slopes give."""
    if ctx._ints is None:
        slopes, ints = [x / gi for x, gi in zip(w.w, ctx.gibbs)], None
    else:
        big_g, gs, keys = ctx._ints
        big_w, ws = w._ints
        slopes = [wi * k for wi, k in zip(ws, keys)]
        ints = big_g, gs, big_w, ws
    return slopes, sorted(range(w.dim), key=slopes.__getitem__, reverse=True), ints


def thermo_majorizes(u: StateVector, v: StateVector, ctx: GibbsContext) -> bool:
    """True when L[u] lies nowhere below L[v]."""
    cu, cv = _majorization_curves(u, v, ctx)
    return _first_above(cv, cu.values(cv.abscissae[1:]), ctx.policy) is None


def _majorization_curves(u: StateVector, v: StateVector, ctx: GibbsContext):
    """L[u] and L[v], for states of the context's dimension and equal mass."""
    cu, cv = build_lorenz(u, ctx), build_lorenz(v, ctx)
    if not ctx.policy.close(cu.mass, cv.mass):
        raise MassMismatch(f"masses {cu.mass} and {cv.mass} differ")
    return cu, cv


def _first_above(curve: LorenzCurve, upper, policy: NumericPolicy):
    """The abscissa of the curve's first vertex past 0 above f, for a concave
    f that is 0 at s = 0, given `upper`, the values of f at the curve's
    vertices past 0 (its bends and s = 1); None if the curve, linear between
    them, lies nowhere above f.  Judged within eps_lp, or exactly."""
    eps = policy.eps_lp
    return next((s for (s, t), u in zip(curve.points[1:], upper)
                 if not policy.leq(t, u, eps)), None)


def merged_bend_grid(curves, policy: NumericPolicy) -> list:
    """Sorted union of the curves' interior bends, plus 0 and 1, merged by
    `_merge_sorted` on the curves' values; a bend merged with 1 gives way."""
    grid = _merge_sorted([policy.zero(), *sorted(
        s for c in curves for s in c.bend_abscissae), policy.one()], policy, curves)
    grid[-1] = policy.one()
    return grid


def _int_grid(curves) -> list:
    """`merged_bend_grid` of rational curves built in one context, on the
    integers S of their `_ints` over its G: 0, the bends' union, G."""
    return [0, *sorted({s for c in curves for s in c._ints[2][1:-1]}), curves[0]._ints[0]]


def _int_rows(curves, xs) -> tuple:
    """(D, rows), rows[i][c] / D = curves[c] at xs[i] / G, for rational curves
    over one G and non-decreasing integers xs in (0, G]: each value reduced
    on the integer vertices, no Fraction made, and D the lcm (`_over_lcm`)."""
    cols = []
    for c in curves:
        _, big_w, ss, ts = c._ints
        k, col = 1, []
        for x in xs:
            while ss[k] < x:
                k += 1
            s0, t0, ds = ss[k - 1], ts[k - 1], ss[k] - ss[k - 1]
            n, d = t0 * ds + (ts[k] - t0) * (x - s0), big_w * ds  # T_k/W at x = S_k
            g = math.gcd(n, d)
            col.append((n // g, d // g))
        cols.append(col)
    den = math.lcm(*[d for col in cols for _, d in col])
    return den, [[n * (den // d) for n, d in row] for row in zip(*cols)]


def _merge_sorted(xs, policy: NumericPolicy, curves=()) -> list:
    """Sorted abscissae without each one that equals the last one kept or,
    in float mode, lies within eps_merge of it where every curve's value
    does too.  The values guard a steep segment: a bend 1e-13 from the last
    point may still rise by most of a curve's mass."""
    exact, eps = policy.exact, policy.eps_merge
    out = xs[:1]
    for s in xs[1:]:
        last = out[-1]
        if s != last and (exact or s - last > eps or any(
                abs(c.value(s) - c.value(last)) > eps for c in curves)):
            out.append(s)
    return out


def embed_states(states, ctx: GibbsContext):
    """Re-express states on the union bend grid of their Lorenz curves.

    Returns a new context whose Gibbs weights are the grid gaps, and one
    vector of Lorenz increments per input state.  Every output curve equals
    its input curve, and curves of mixtures equal mixtures of curves.
    """
    if not states:
        raise EmptyInput("no states to embed")
    policy = ctx.policy
    curves = [build_lorenz(w, ctx) for w in states]
    for c in curves:
        if not policy.close(c.mass, policy.one()):
            raise MassMismatch(f"embedding requires normalized states, mass {c.mass}")
    grid = merged_bend_grid(curves, policy)
    # the gaps are numbers of the policy's type already: no parsing, as
    # GibbsContext.from_weights would do, only its defaults and checks
    gaps = tuple([grid[i] - grid[i - 1] for i in range(1, len(grid))])
    one = policy.one()
    ctx2 = GibbsContext(gibbs=gaps, beta=one, partition=one, policy=policy)
    out = []
    for c in curves:
        vals = c.values(grid)
        out.append(StateVector(tuple(b - a for a, b in zip(vals, vals[1:]))))
    return ctx2, out


def cq_branch_curves(state: CQState, ctx: GibbsContext) -> list:
    """Lorenz curves of the weighted columns of a joint state, the one place
    a joint state is checked: each column by `build_lorenz`, then the curves'
    masses by the joint rule of `CQState.validate`."""
    curves = [build_lorenz(c, ctx) for c in state.columns]
    _check_joint([c.mass for c in curves], ctx.policy)
    return curves
