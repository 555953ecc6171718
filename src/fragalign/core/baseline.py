"""Corollary 1: the factor-4 baseline via Theorem 3's combinator A′.

A′ runs a 1-CSR solver twice — on (H, M′) and on (M, H′), where X′ is
the concatenation of X's fragments in their given order — and keeps the
better solution.  Inequality (2), Opt(H,M′) + Opt(M,H′) ≥ Opt(H,M),
makes the better run lose at most a factor 2 on top of the 1-CSR
solver's own ratio (2 for TPA), hence 4 overall.

The baseline also supplies the score X that the scaling rule of §4.1
(see :mod:`fragalign.core.scaling`) feeds on.
"""

from __future__ import annotations

from fragalign.core.conjecture import Arrangement, identity_arrangement, score_pair
from fragalign.core.exact import state_from_arrangements
from fragalign.core.fragments import CSRInstance, Fragment
from fragalign.core.one_csr import solve_one_csr
from fragalign.core.scoring import Scorer
from fragalign.core.solution import CSRSolution

__all__ = [
    "concat_m_instance",
    "transposed_concat_instance",
    "baseline4",
]


def _concat_regions(frags: tuple[Fragment, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for f in frags:
        out.extend(f.regions)
    return tuple(out)


def concat_m_instance(instance: CSRInstance) -> CSRInstance:
    """(H, M′): fuse all m-fragments into one, fixing their order."""
    return CSRInstance.build(
        [f.regions for f in instance.h_fragments],
        [_concat_regions(instance.m_fragments)],
        instance.scorer.copy(),
        dict(instance.region_names),
    )


def _transpose_scorer(scorer: Scorer) -> Scorer:
    out = Scorer()
    for a, b, v in scorer.pairs():
        out.set(b, a, v)
    return out


def transposed_concat_instance(instance: CSRInstance) -> CSRInstance:
    """(M, H′) with species roles swapped so 1-CSR machinery applies.

    The new H fragments are the original M fragments; the single new M
    fragment is the concatenation of the original H fragments; σ is
    transposed (σ′(a, b) = σ(b, a)), which preserves all chain scores.
    """
    return CSRInstance.build(
        [f.regions for f in instance.m_fragments],
        [_concat_regions(instance.h_fragments)],
        _transpose_scorer(instance.scorer),
        dict(instance.region_names),
    )


def _unconcat_moving(moving: Arrangement, frozen: Arrangement) -> Arrangement:
    """If the solver reversed the concatenated (frozen) fragment, mirror
    the moving side instead — Score is invariant under mirroring both."""
    return moving.mirrored() if frozen.order[0][1] else moving


def baseline4(instance: CSRInstance) -> CSRSolution:
    """Theorem 3's A′ with the TPA 1-CSR solver: ratio 4 (Corollary 1)."""
    # Run 1: H fragments move, M is frozen in concatenation order.
    sol_hm = solve_one_csr(concat_m_instance(instance))
    arr_h1 = Arrangement(
        "H", _unconcat_moving(sol_hm.arr_h, sol_hm.arr_m).order
    )
    arr_m1 = identity_arrangement(instance, "M")
    score1 = score_pair(instance, arr_h1, arr_m1)

    # Run 2: M fragments move, H is frozen.
    sol_mh = solve_one_csr(transposed_concat_instance(instance))
    arr_h2 = identity_arrangement(instance, "H")
    arr_m2 = Arrangement(
        "M", _unconcat_moving(sol_mh.arr_h, sol_mh.arr_m).order
    )
    score2 = score_pair(instance, arr_h2, arr_m2)

    if score1 >= score2:
        arr_h, arr_m, score = arr_h1, arr_m1, score1
    else:
        arr_h, arr_m, score = arr_h2, arr_m2, score2
    state = state_from_arrangements(instance, arr_h, arr_m)
    return CSRSolution(
        state=state,
        arr_h=arr_h,
        arr_m=arr_m,
        score=score,
        algorithm="baseline4",
        stats={"score_hm": score1, "score_mh": score2},
    )
