"""Incremental all-intervals chain DP.

The 1-CSR → ISP reduction (paper §3.4) needs the profit

    p(i, [d, e)) = MS(h_i, m(d, e))

for *every* subinterval [d, e) of the single m-sequence.  Running an
independent chain DP per interval costs O(n·m²·m) per fragment; the
incremental engine below computes all of them in O(n·m²) by fixing the
left endpoint ``d`` and extending ``e`` one column at a time, carrying
the DP frontier ``f`` forward:

    f[i]   = best chain within rows [0, i), cols [d, e)
    g[r]   = f[r] + W[r, e]                (chains ending in column e)
    f'[i]  = max(f[i], max_{r < i} g[r])   (two maximum.accumulate)

This is the "incremental DP variant" of the IPPS evaluation.  Every
left endpoint advances in one batched sweep per column, so the whole
table costs m Python-level iterations.  There is no parallel variant:
a process pool over left endpoints (the paper's cluster run) lost to
this sweep at every size measured on a 2-vCPU host.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "all_interval_chain_scores",
    "all_interval_chain_scores_reference",
]


def all_interval_chain_scores_reference(W: np.ndarray) -> np.ndarray:
    """Per-interval chain DP (oracle): S[d, e] = chain score of W[:, d:e]."""
    from fragalign.align.chain import chain_score

    W = np.asarray(W, dtype=float)
    m = W.shape[1]
    S = np.zeros((m + 1, m + 1))
    for d in range(m):
        for e in range(d + 1, m + 1):
            S[d, e] = chain_score(W[:, d:e])
    return S


def all_interval_chain_scores(W: np.ndarray) -> np.ndarray:
    """S[d, e] = max-weight chain of W restricted to columns [d, e).

    O(n·m²) total; equals the reference implementation exactly (test
    invariant).  ``S`` is (m+1)×(m+1), upper-triangular, with S[d, d]=0.

    All left endpoints are advanced together: ``F[d]`` holds the DP
    frontier for left endpoint ``d``, and extending every active
    frontier to column ``e`` is one batched sweep (m Python-level
    iterations in all, not one per interval).  Each frontier is
    nondecreasing by construction, so ``F[d, n]`` is the score.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValueError("weight matrix must be 2-D (rows x columns)")
    n, m = W.shape
    S = np.zeros((m + 1, m + 1))
    if W.size == 0:
        return S
    F = np.zeros((m, n + 1))
    for e in range(m):
        A = F[: e + 1]
        G = A[:, :-1] + W[:, e]
        np.maximum.accumulate(G, axis=1, out=G)
        np.maximum(A[:, 1:], G, out=A[:, 1:])
        S[: e + 1, e + 1] = A[:, n]
    return S
