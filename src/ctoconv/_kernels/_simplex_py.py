"""Pure-Python simplex pivot kernel.

Works on a tableau given as a list of row lists whose entries share one
numeric type: Python floats, or Fractions for the exact engine (eps == 0).

Tableau layout: rows 0..m-1 are constraints with the right-hand side in the
last column; row m holds the reduced costs with -objective in the corner.
The caller minimizes, so a column enters while its reduced cost is < -eps.
"""

from itertools import compress

OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2

# Dantzig's rule can cycle through degenerate pivots; after this many in a
# row the kernel prices by Bland's rule, which cannot, until a pivot makes
# progress again.
_DEGENERATE_RUN = 50


def run_simplex(tab, basis, eps, max_cells, retire_from):
    """Run simplex pivots in place; returns (status code, cells swept).

    The entering column is the one with the most negative reduced cost
    (Dantzig's rule), or, after _DEGENERATE_RUN degenerate pivots in a row,
    the first with a negative one (Bland's rule).  Either way the leaving
    row is the smallest ratio, ties going to the smallest basic index.
    Every run of degenerate pivots thus ends under Bland's rule, which does
    not cycle, so the kernel is finite.  The cells are those `_pivot`
    swept; ITERATION_LIMIT means a pivot took them past max_cells.

    A column at or past retire_from is zeroed in every row, cost row too,
    the pivot it leaves the basis, so it never prices in or is swept again;
    a retire_from at the rhs column retires none.
    """
    m = len(basis)
    ncols = len(tab[0])
    rhs = ncols - 1
    obj = tab[m]
    # Pivot elements barely above the comparison tolerance amplify rounding
    # error by ~1/eps per pivot and can corrupt the tableau, so the ratio
    # test demands a wider margin.  Exact callers pass eps == 0, where this
    # degrades to the usual "strictly positive" test.
    piv_tol = eps * 100
    degenerate = 0
    swept = 0
    while True:
        enter = -1
        if degenerate < _DEGENERATE_RUN:
            cost = min(obj[:rhs], default=0)
            if cost < -eps:
                enter = obj.index(cost)
        else:
            for j in range(rhs):
                if obj[j] < -eps:
                    enter = j
                    break
        if enter < 0:
            return OPTIMAL, swept
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
            return UNBOUNDED, swept
        degenerate = degenerate + 1 if best <= eps else 0
        out = basis[leave]
        swept += _pivot(tab, basis, leave, enter, m, ncols)
        if swept > max_cells:
            return ITERATION_LIMIT, swept
        if out >= retire_from:
            zero = 0 * obj[out]  # keeps the type
            for row in tab:
                row[out] = zero


def _pivot(tab, basis, row, col, m, ncols) -> int:
    """Pivot on tab[row][col] in place; returns the cells swept: the pivot
    row and column once each, and the pivot row's nonzero columns in every
    row it rewrites."""
    pr = tab[row]
    # slack and artificial columns leave most of a pivot row zero, and a
    # zero entry changes no other row, so only the nonzero columns are swept
    nz = list(compress(range(ncols), pr))  # the j with pr[j] != 0, NaN kept
    piv = pr[col]
    swept = ncols + m + 1
    if piv != 1:
        swept += len(nz)
        for j in nz:
            pr[j] = pr[j] / piv
    for i in range(m + 1):
        if i == row:
            continue
        ri = tab[i]
        factor = ri[col]
        if factor != 0:
            swept += len(nz)
            for j in nz:
                ri[j] = ri[j] - factor * pr[j]
            ri[col] = 0 * ri[col]  # kill residual noise, keeps the type
    basis[row] = col
    return swept
