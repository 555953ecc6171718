"""1-CSR: CSR with a single m-sequence, solved via ISP (§3.4).

Every H fragment participates in at most one match, with its full site
(padding is free, so a fuller site never scores less).  A solution is
then a choice of disjoint m-intervals, one per used H fragment —
exactly the Interval Selection Problem with profits

    p(i, [d, e)) = MS(h_i, m(d, e)).

All profits come from the incremental all-intervals chain DP (both
orientations), and the two-phase algorithm picks the intervals, giving
the ratio-2 1-CSR solver that Corollary 1 doubles into a factor-4 CSR
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fragalign.align.interval_dp import all_interval_chain_scores
from fragalign.core.fragments import CSRInstance
from fragalign.core.match_score import MatchScorer
from fragalign.core.sites import Site
from fragalign.core.solution import CSRSolution
from fragalign.core.state import SolutionState
from fragalign.core.symbols import reverse_word
from fragalign.isp.exact import exact_isp
from fragalign.isp.instance import ISPInstance, ISPItem
from fragalign.isp.tpa import tpa
from fragalign.util.errors import SolverError

__all__ = ["one_csr_profits", "solve_one_csr", "solve_one_csr_exact"]


def one_csr_profits(instance: CSRInstance) -> list[np.ndarray]:
    """Per-H-fragment interval profit tables.

    Returns a list P with P[i][d, e] = MS(h_i, m(d, e)) for the single
    m-fragment, computed as the elementwise max of the forward table
    and the (coordinate-flipped) reversed table.
    """
    if instance.n_m != 1:
        raise SolverError("one_csr_profits needs exactly one m-fragment")
    m_word = instance.m_fragments[0].regions
    tables: list[np.ndarray] = []
    for frag in instance.h_fragments:
        W_fwd = instance.scorer.weight_matrix(frag.regions, m_word)
        W_rev = instance.scorer.weight_matrix(frag.regions, reverse_word(m_word))
        S_fwd = all_interval_chain_scores(W_fwd)
        S_rev = all_interval_chain_scores(W_rev)
        # Interval [d, e) of m maps to [L-e, L-d) of reversed m (L = len(m)).
        S_rev_mapped = S_rev[::-1, ::-1].T
        tables.append(np.maximum(S_fwd, S_rev_mapped))
    return tables


def _one_csr_items(instance: CSRInstance) -> list[ISPItem]:
    """The ISP items of §3.4's reduction.

    An item whose profit does not exceed that of a strictly shorter
    nested interval for the same fragment is dropped — padding is
    free, so such items are never needed (this prunes the quadratic
    interval count substantially without touching the optimum or the
    TPA guarantee, which holds for any item subset containing an
    optimal solution's items).
    """
    profits = one_csr_profits(instance)
    L = len(instance.m_fragments[0])
    items: list[ISPItem] = []
    for i, table in enumerate(profits):
        for d in range(L):
            for e in range(d + 1, L + 1):
                p = float(table[d, e])
                if p <= 0:
                    continue
                if e - d > 1:
                    inner = max(float(table[d + 1, e]), float(table[d, e - 1]))
                    if p <= inner:
                        continue
                items.append(ISPItem(index=i, start=d, end=e, profit=p))
    return items


def solve_one_csr(instance: CSRInstance) -> CSRSolution:
    """Ratio-2 1-CSR solver: all-interval profits + TPA."""
    items = _one_csr_items(instance)
    chosen = tpa(ISPInstance.build(items))
    ms = MatchScorer(instance)
    state = SolutionState(instance, ms)
    for item in chosen:
        state.add_full(("H", item.index), Site("M", 0, item.start, item.end))
    return CSRSolution.from_state(
        state, "one_csr_tpa", {"isp_items": len(items), "chosen": len(chosen)}
    )


def solve_one_csr_exact(instance: CSRInstance, max_items: int = 30) -> CSRSolution:
    """Exact 1-CSR on small instances: exact ISP over the same items.

    Plugged into Theorem 3's combinator this yields a true ratio-2 CSR
    algorithm (r = 1), the best the paper's framework offers short of
    the improvement algorithms.
    """
    items = _one_csr_items(instance)
    if len(items) > max_items:
        raise SolverError(
            f"exact 1-CSR limited to {max_items} ISP items (got {len(items)})"
        )
    _profit, chosen = exact_isp(ISPInstance.build(items), max_items=max_items)
    ms = MatchScorer(instance)
    state = SolutionState(instance, ms)
    for item in chosen:
        state.add_full(("H", item.index), Site("M", 0, item.start, item.end))
    return CSRSolution.from_state(
        state, "one_csr_exact", {"isp_items": len(items), "chosen": len(chosen)}
    )
