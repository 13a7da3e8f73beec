"""The simplex kernel (Dantzig pricing, Bland's rule against cycling),
shared by float and exact (Fraction) solves.  It retires the columns its
caller marks (phase 1's inequality-row artificials) as they leave the basis.

KERNEL, run_simplex_float and run_simplex_exact are read by the benchmark
harness (ctobench), so they stay as names of the one kernel.
"""

from ._simplex_py import ITERATION_LIMIT, OPTIMAL, run_simplex

KERNEL = "python"
run_simplex_float = run_simplex_exact = run_simplex
