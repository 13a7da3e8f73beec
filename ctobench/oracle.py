"""Computations made apart from ctoconv, used to build inputs and to check
every output of a timed operation.

Nothing here calls into ctoconv's algorithms.  Lorenz values come from the
hockey-stick form

    L[w](s) = min over c in {0} u {w_i / g_i} of  c*s + sum_i max(w_i - c*g_i, 0),

which never sorts.  Decisions come from a slack-maximising LP solved by
scipy's HiGHS.  Free energies come from numpy relative entropies.  Float
inputs are handled with numpy; Fraction inputs stay exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

EPS_MERGE = 1e-12  # float abscissae closer than this are one grid point
FLOAT_TOL = 1e-7  # float-mode agreement: the program's eps_lp
LABEL_MARGIN = 1e-5  # a "no" pair must miss feasibility by at least this


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def is_exact(values) -> bool:
    return isinstance(values[0], Fraction)


# -- plan arithmetic -------------------------------------------------------


def matvec(t, w):
    """Rows of t times the vector w, exact on Fractions."""
    if is_exact(w):
        return [sum(a * b for a, b in zip(row, w)) for row in t]
    return (np.asarray(t, dtype=float) @ np.asarray(w, dtype=float)).tolist()


def apply_plan(control, maps, columns):
    """v^y = sum_x R[x][y] T^(x,y) u^x on weighted columns."""
    ell, m, d = len(control), len(control[0]), len(columns[0])
    out = []
    for y in range(m):
        acc = [0 * columns[0][0]] * d
        for x in range(ell):
            mapped = matvec(maps[(x, y)], columns[x])
            acc = [a + control[x][y] * b for a, b in zip(acc, mapped)]
        out.append(acc)
    return out


# -- Lorenz values -----------------------------------------------------------


def lorenz_values(w, g, abscissae):
    """Hockey-stick Lorenz values of the (sub-normalized) vector w."""
    if is_exact(w):
        cands = [Fraction(0)] + [wi / gi for wi, gi in zip(w, g)]
        offs = [sum(max(wi - c * gi, 0) for wi, gi in zip(w, g)) for c in cands]
        return [min(c * s + h for c, h in zip(cands, offs)) for s in abscissae]
    w = np.asarray(w, dtype=float)
    g = np.asarray(g, dtype=float)
    cands = np.concatenate(([0.0], w / g))
    offs = np.maximum(w[None, :] - cands[:, None] * g[None, :], 0.0).sum(axis=1)
    s = np.asarray(abscissae, dtype=float)
    return (s[:, None] * cands[None, :] + offs[None, :]).min(axis=1).tolist()


def _dedupe(values, exact: bool):
    """Sorted values with duplicates (or float near-duplicates) merged."""
    out = []
    for s in sorted(values):
        if not out or (s != out[-1] if exact else s - out[-1] > EPS_MERGE):
            out.append(s)
    return out


def candidate_abscissae(w, g):
    """Every s = sum of g_i over the levels whose ratio w_i/g_i is at least
    that of level j: a superset of the bends of L[w]."""
    if is_exact(w):
        ratios = [wi / gi for wi, gi in zip(w, g)]
        return [sum(gi for gi, ri in zip(g, ratios) if ri >= rj) for rj in ratios]
    g = np.asarray(g, dtype=float)
    ratios = np.asarray(w, dtype=float) / g
    return ((ratios[None, :] >= ratios[:, None]) @ g).tolist()


def bends(w, g):
    """Interior bend abscissae of L[w]: a bend sits where the ratio changes."""
    exact = is_exact(w)
    ratios = [wi / gi for wi, gi in zip(w, g)]
    order = sorted(range(len(w)), key=lambda i: ratios[i], reverse=True)
    out = []
    s = 0 * g[0]
    for k, i in enumerate(order[:-1]):
        s = s + g[i]
        nxt = ratios[order[k + 1]]
        if (ratios[i] != nxt) if exact else (abs(ratios[i] - nxt) > EPS_MERGE):
            out.append(s)
    return out


def bend_grid(columns, g):
    """0, the merged interior bends of all columns, and 1."""
    exact = is_exact(g)
    one = Fraction(1) if exact else 1.0
    interior = _dedupe([s for w in columns for s in bends(w, g)], exact)
    grid = [0 * one] + [s for s in interior if (s < one if exact else one - s > EPS_MERGE)]
    return grid + [one]


def probe_grid(columns, g):
    """Abscissae at which a Lorenz inequality against these columns is tested."""
    exact = is_exact(g)
    pts = [s for w in columns for s in candidate_abscissae(w, g)]
    return _dedupe(pts + [0 * g[0]], exact)


# -- decision LP via HiGHS ---------------------------------------------------


def feasibility_slack(src_cols, tgt_cols, g) -> float:
    """Largest t such that a row-stochastic R gives
    sum_x R[x][y] L[u^x](s) >= L[v^y](s) + t at every tested abscissa.
    Convertible exactly when t >= 0."""
    from scipy.optimize import linprog

    grid = [float(s) for s in probe_grid(tgt_cols, g)]
    gf = [float(x) for x in g]
    p = np.array([lorenz_values([float(x) for x in u], gf, grid) for u in src_cols]).T
    q = np.array([lorenz_values([float(x) for x in v], gf, grid) for v in tgt_cols]).T
    ell, m, k = len(src_cols), len(tgt_cols), len(grid)
    n = ell * m + 1
    a_ub = np.zeros((m * k, n))
    b_ub = np.zeros(m * k)
    for y in range(m):
        for x in range(ell):
            a_ub[y * k:(y + 1) * k, x * m + y] = -p[:, x]
        a_ub[y * k:(y + 1) * k, -1] = 1.0
        b_ub[y * k:(y + 1) * k] = -q[:, y]
    a_eq = np.zeros((ell, n))
    for x in range(ell):
        a_eq[x, x * m:(x + 1) * m] = 1.0
    c = np.zeros(n)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(ell),
                  bounds=[(0, None)] * (n - 1) + [(None, 1.0)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return -res.fun


# -- checks on LP outputs ----------------------------------------------------


def close(a, b, exact: bool, tol: float = FLOAT_TOL) -> bool:
    return a == b if exact else abs(float(a) - float(b)) <= tol


def check_control(control, src_cols, tgt_cols, g):
    """A "yes" answer: R is row-stochastic and its mixtures of source curves
    lie above every target curve."""
    exact = is_exact(g)
    require(len(control) == len(src_cols) and all(len(r) == len(tgt_cols) for r in control),
            "control map has the wrong shape")
    for row in control:
        require(all(x >= 0 for x in row), "negative control entry")
        require(close(sum(row), 1, exact), "control row does not sum to 1")
    grid = probe_grid(tgt_cols, g)
    p = [lorenz_values(u, g, grid) for u in src_cols]
    for y, v in enumerate(tgt_cols):
        lv = lorenz_values(v, g, grid)
        for i in range(len(grid)):
            mix = sum(control[x][y] * p[x][i] for x in range(len(src_cols)))
            require(mix >= lv[i] if exact else mix >= lv[i] - 10 * FLOAT_TOL,
                    f"Lorenz inequality fails for target branch {y}")


def check_witness(a, src_cols, tgt_cols, g):
    """A "no" answer: A is nonnegative with mass 1 and non-increasing
    columns, and its conversion functional, returned, is negative."""
    exact = is_exact(g)
    grid = bend_grid(tgt_cols, g)
    n_rows = len(grid) - 1
    require(len(a) == n_rows, f"witness has {len(a)} rows, target grid has {n_rows}")
    require(all(x >= 0 for row in a for x in row), "negative witness entry")
    require(close(sum(sum(row) for row in a), 1, exact), "witness mass is not 1")
    for i in range(1, n_rows):
        require(all(a[i][z] <= a[i - 1][z] for z in range(len(a[0]))),
                "witness column increases")

    def incr(w):
        vals = lorenz_values(w, g, grid)
        return [vals[i + 1] - vals[i] for i in range(n_rows)]

    def om(w):
        inc = incr(w)
        return max(sum(a[i][z] * inc[i] for i in range(n_rows)) for z in range(len(a[0])))

    total = sum(om(u) for u in src_cols) - sum(om(v) for v in tgt_cols)
    require(total < (0 if exact else -FLOAT_TOL),
            f"witness functional {float(total)} is not negative")
    return total


def check_plan(control, maps, src_cols, tgt_cols, g, applied_cols):
    """A synthesized plan: every T is column-stochastic and fixes g, the
    plan maps the source onto the target, and so did apply_cto."""
    exact = is_exact(g)
    d = len(g)
    for key, t in maps.items():
        require(all(x >= 0 for row in t for x in row), f"negative entry in T{key}")
        for j in range(d):
            require(close(sum(t[i][j] for i in range(d)), 1, exact),
                    f"column {j} of T{key} does not sum to 1")
        fixed = matvec(t, g)
        require(all(close(a, b, exact) for a, b in zip(fixed, g)),
                f"T{key} does not fix the Gibbs vector")
    out = apply_plan(control, maps, src_cols)
    for name, cols in (("plan", out), ("apply_cto", applied_cols)):
        require(len(cols) == len(tgt_cols), f"{name} output has the wrong branch count")
        for got, want in zip(cols, tgt_cols):
            require(all(close(a, b, exact) for a, b in zip(got, want)),
                    f"{name} output differs from the target")


# -- LP-free formulas ----------------------------------------------------------


def majorization_gap(u, v, g):
    """min over the abscissae of v of L[u] - L[v]; >= 0 iff u thermo-majorizes v."""
    grid = probe_grid([v], g)
    return min(a - b for a, b in zip(lorenz_values(u, g, grid), lorenz_values(v, g, grid)))


def state_to_ensemble_gap(u, tgt_cols, g):
    grid = probe_grid(tgt_cols, g)
    lu = lorenz_values(u, g, grid)
    return min(
        sum(v) * a - b
        for v in tgt_cols
        for a, b in zip(lu, lorenz_values(v, g, grid))
    )


def ensemble_to_state_gap(src_cols, v, g):
    grid = probe_grid([v], g)
    mix = [sum(vals) for vals in zip(*(lorenz_values(u, g, grid) for u in src_cols))]
    return min(a - b for a, b in zip(mix, lorenz_values(v, g, grid)))


def p_min(u, v, g):
    """Smallest p with p*L[u](s) + (1-p)*s >= L[v](s) for all s; the left
    side is concave, so the bends of L[v] suffice."""
    grid = bends(v, g)
    best = 0 * g[0]
    for s, lu, lv in zip(grid, lorenz_values(u, g, grid), lorenz_values(v, g, grid)):
        if lv - s > 0:
            best = max(best, (lv - s) / (lu - s))
    return min(best, 1 + 0 * best)


def embedding(states, g):
    """(grid gaps, Lorenz increments per state) on the union bend grid."""
    grid = bend_grid(states, g)
    gaps = [grid[i + 1] - grid[i] for i in range(len(grid) - 1)]
    incs = []
    for w in states:
        vals = lorenz_values(w, g, grid)
        incs.append([vals[i + 1] - vals[i] for i in range(len(grid) - 1)])
    return gaps, incs


def subset_sum_grid(g):
    """Every proper non-empty subset sum of the Gibbs weights."""
    d = len(g)
    sums = [sum(c) for k in range(1, d) for c in itertools.combinations(g, k)]
    return _dedupe(sums, is_exact(g))


def phi_values(cols, g, abscissae):
    return [sum(vals) for vals in zip(*(lorenz_values(w, g, abscissae) for w in cols))]


def relative_free_energy(cols, g, beta) -> float:
    """sum_x p_x D(u^x || g) / beta, with numpy logarithms."""
    gf = np.asarray([float(x) for x in g])
    total = 0.0
    for w in cols:
        wf = np.asarray([float(x) for x in w])
        mass = wf.sum()
        cond = wf / mass
        nz = cond > 0
        total += mass * float(np.sum(cond[nz] * np.log(cond[nz] / gf[nz])))
    return total / float(beta)


def rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)
