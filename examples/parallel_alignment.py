#!/usr/bin/env python
"""Parallel interval DP — strong scaling of the 1-CSR profit tables.

Measures the incremental all-intervals DP that powers the 1-CSR solver
serially and over process pools of several sizes.  The left endpoints
are independent, so the work splits cleanly; whether a pool pays
depends on the table size against pool start-up and on the host's
cores (at the default size on a two-core host, serial wins).

Run:  python examples/parallel_alignment.py [workers...]
"""

from __future__ import annotations

import sys

import numpy as np

from fragalign.align import (
    all_interval_chain_scores,
    all_interval_chain_scores_parallel,
)
from fragalign.util.timing import time_call


def interval_dp_study(workers_list: list[int]) -> None:
    gen = np.random.default_rng(2)
    W = gen.normal(size=(64, 800))
    print("Incremental all-intervals DP (1-CSR profit tables)")
    t1, expect = time_call(all_interval_chain_scores, W, repeat=1)
    print(f"{'workers':<8} {'time':>8} {'speedup':>8}")
    print(f"{'serial':<8} {t1:>7.2f}s {1.0:>7.2f}x")
    for w in workers_list:
        t, got = time_call(all_interval_chain_scores_parallel, W, w, repeat=1)
        assert np.allclose(got, expect)
        print(f"{w:<8} {t:>7.2f}s {t1 / t:>7.2f}x")


def main() -> None:
    workers = [int(x) for x in sys.argv[1:]] or [2, 4, 8]
    interval_dp_study(workers)


if __name__ == "__main__":
    main()
