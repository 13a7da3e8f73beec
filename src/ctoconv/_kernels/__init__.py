"""The Bland-rule simplex kernel, shared by float and exact (Fraction) solves.

KERNEL, run_simplex_float and run_simplex_exact are read by the benchmark
harness (ctobench), so they stay as names of the one kernel.
"""

from ._simplex_py import OPTIMAL, run_simplex

KERNEL = "python"
run_simplex_float = run_simplex_exact = run_simplex
