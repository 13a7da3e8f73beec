"""Pure-Python simplex pivot kernel.

Works on a tableau given as a list of row lists whose entries share one
numeric type: Python floats, or Fractions for the exact engine (eps == 0).

Tableau layout: rows 0..m-1 are constraints with the right-hand side in the
last column; row m holds the reduced costs with -objective in the corner.
The caller minimizes, so a column enters while its reduced cost is < -eps.
"""

OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2


def run_simplex(tab, basis, eps, max_iter):
    """Run Bland-rule simplex pivots in place; returns a status code."""
    m = len(basis)
    ncols = len(tab[0])
    rhs = ncols - 1
    obj = tab[m]
    # Pivot elements barely above the comparison tolerance amplify rounding
    # error by ~1/eps per pivot and can corrupt the tableau, so the ratio
    # test demands a wider margin.  Exact callers pass eps == 0, where this
    # degrades to the usual "strictly positive" test.
    piv_tol = eps * 100
    for _ in range(max_iter):
        enter = -1
        for j in range(rhs):
            if obj[j] < -eps:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > piv_tol:
                ratio = tab[i][rhs] / a
                if leave < 0 or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(tab, basis, leave, enter, m, ncols)
    return ITERATION_LIMIT


def _pivot(tab, basis, row, col, m, ncols):
    pr = tab[row]
    piv = pr[col]
    if piv != 1:
        for j in range(ncols):
            pr[j] = pr[j] / piv
    for i in range(m + 1):
        if i == row:
            continue
        ri = tab[i]
        factor = ri[col]
        if factor != 0:
            for j in range(ncols):
                ri[j] = ri[j] - factor * pr[j]
            ri[col] = 0 * ri[col]  # kill residual noise, keeps the type
    basis[row] = col
