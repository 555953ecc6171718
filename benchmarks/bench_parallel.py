"""B-PAR — strong scaling of the incremental all-intervals DP (the
1-CSR solver's profit tables, paper §3.4) over a process pool.

Absolute numbers are machine-specific: the speedup saturates with the
host's cores, and on small hosts pool start-up can outweigh the split.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_table
from fragalign.align import (
    all_interval_chain_scores,
    all_interval_chain_scores_parallel,
)
from fragalign.util.timing import time_call


def test_interval_dp_strong_scaling(benchmark, rng):
    W = rng.normal(size=(64, 1000))
    expect = all_interval_chain_scores(W)
    t1, _ = time_call(all_interval_chain_scores, W, repeat=1)
    rows = [("serial", f"{t1:.2f}s", "1.00x")]
    for workers in (2, 4, 8):
        t, got = time_call(
            all_interval_chain_scores_parallel, W, workers, repeat=1
        )
        assert np.allclose(got, expect)
        rows.append((f"{workers} workers", f"{t:.2f}s", f"{t1 / t:.2f}x"))
    print_table(
        "B-PAR incremental interval DP",
        ["configuration", "time", "speedup"],
        rows,
    )
    benchmark.pedantic(
        all_interval_chain_scores_parallel,
        args=(W, 4),
        rounds=1,
        iterations=1,
    )
