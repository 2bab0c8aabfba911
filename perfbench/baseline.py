#!/usr/bin/env python3
"""Measure again the hand-timed baseline rows of ROADMAP.md.

    python3 perfbench/baseline.py

All rows use the 600-site free chain of acceptance test 01.  Each short
row is the median of REPEATS calls after one warm-up call; the two
scans run once.  BLAS threads are pinned to 1, as in run.py.
"""

import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from domsplit import certifier, harness, jacobi  # noqa: E402

REPEATS = 5


def timed(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main():
    op = jacobi.JacobiOperator(j_lo=-300, a=np.ones(600, complex), b=np.zeros(600))
    rows = []
    for E in (3.0, 2.1, 2.01):
        rows.append((f"certify_operator at E={E}",
                     timed(lambda E=E: certifier.certify_operator(op, E), REPEATS)))
    grid = np.linspace(-4.0, 4.0, 41)
    rows.append(("41-energy serial sweep over [-4, 4]",
                 timed(lambda: [certifier.certify_operator(op, E) for E in grid], 1)))
    rows.append(("spectrum", timed(lambda: jacobi.spectrum(op), REPEATS)))
    t = time.perf_counter()
    rep = harness.johnson_scan(op, np.linspace(-4.0, 4.0, 401), jobs=4)
    rows.append((f"401-energy scan, jobs=4 ({rep.summary()})", time.perf_counter() - t))
    for label, seconds in rows:
        print(f"{label:<60} {seconds * 1e3:10.1f} ms")


if __name__ == "__main__":
    main()
