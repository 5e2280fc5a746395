"""Fixed reference work, timed right after each measured operation.

The gated latency is each operation's wall time divided by the wall time
of the reference that ran just after it.  On a shared 2-CPU host the
speed of both drifts together by 20 to 30% over seconds to minutes, so
the ratio keeps what the package costs and drops most of the host's
phase.  The references use none of the package's code: a change to the
package moves the operation and leaves its reference alone.

Three references, each shaped like the work it stands beside:

* ``python3 bench/reference.py FILE`` is the CLI reference: a fresh
  interpreter that imports the numpy and scipy modules the package
  imports, then writes a CSV file of fixed numbers and parses it back.
* ``scan_kernel()`` stands beside the Knuth-rule requests: a sort, a
  histogram, a vectorised ``gammaln`` and a scalar loop.
* ``solve_kernel()`` stands beside the wide fixed-bin requests: a dense
  solve through the same multithreaded BLAS, and a scalar loop.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import sys

import numpy as np
import scipy.integrate  # noqa: F401  (imported for its cost, as the package does)
import scipy.special

CSV_ROWS = 12_000
KERNEL_VALUES = np.random.default_rng(12345).normal(size=50_000)
SOLVE_SIZE = 1200


def csv_round_trip(path: str) -> float:
    """Write ``CSV_ROWS`` rows of six fixed numbers to ``path``, read them
    back and return their sum."""
    rows = [[f"{(i * 7919 % 100003) / 977.0:.17g}" for i in range(j, j + 6)]
            for j in range(CSV_ROWS)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    with open(path, newline="", encoding="utf-8") as fh:
        total = sum(float(x) for row in csv.reader(fh) for x in row)
    os.remove(path)
    return total


def scalar_loop(steps: int) -> float:
    return sum(math.lgamma(m + 0.5) - math.log(m) for m in range(1, steps + 1))


def scan_kernel() -> float:
    ordered = np.sort(KERNEL_VALUES)
    counts, _ = np.histogram(ordered, bins=64)
    return float(scipy.special.gammaln(counts + 0.5).sum()) + scalar_loop(2_000)


@functools.cache
def solve_matrix() -> np.ndarray:
    """A fixed, diagonally dominant matrix, built on first use."""
    rng = np.random.default_rng(7)
    return rng.normal(size=(SOLVE_SIZE, SOLVE_SIZE)) + SOLVE_SIZE * np.eye(SOLVE_SIZE)


def solve_kernel() -> float:
    moments = np.linalg.solve(solve_matrix(), np.ones(SOLVE_SIZE))
    return float(moments[0]) + scalar_loop(20_000)


if __name__ == "__main__":
    csv_round_trip(sys.argv[1])
