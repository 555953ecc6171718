"""State fuzzing: random operation sequences never break invariants.

Hypothesis drives random but *type-correct* sequences of the state
primitives (add full, add border, prepare, detach, restrict through
prepare) and asserts after every step that

* the structural invariants hold (``check``),
* the layout realizes at least the claimed score,
* snapshots taken before a rolled-back prefix restore exactly.

This is the safety net under the improvement engine: every attempt is
a composition of exactly these primitives.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragalign.core.consistency import layout_score
from fragalign.core.generators import random_instance
from fragalign.core.match_score import MatchScorer
from fragalign.core.sites import Site
from fragalign.core.state import SolutionState
from fragalign.util.errors import InconsistentMatchSetError

ops = st.lists(
    st.tuples(
        st.sampled_from(["plug", "border", "prepare", "detach"]),
        st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=12,
)


def _random_site(state: SolutionState, species: str, salt: int) -> Site:
    frags = state.instance.fragments(species)
    frag = frags[salt % len(frags)]
    n = len(frag)
    start = salt // 7 % n
    end = start + 1 + (salt // 31 % (n - start))
    return Site(species, frag.fid, start, end)


def _apply(state: SolutionState, op: str, salt: int) -> None:
    inst = state.instance
    if op == "plug":
        species = "H" if salt % 2 else "M"
        frag = inst.fragments(species)[salt % len(inst.fragments(species))]
        host_site = _random_site(state, "M" if species == "H" else "H", salt)
        try:
            state.add_full((species, frag.fid), host_site)
        except InconsistentMatchSetError:
            pass  # occupied territory — legal refusal
    elif op == "border":
        h_site = _random_site(state, "H", salt)
        m_site = _random_site(state, "M", salt // 3)
        h_len = len(inst.fragment("H", h_site.fid))
        m_len = len(inst.fragment("M", m_site.fid))
        if h_site.kind(h_len) != "border" or m_site.kind(m_len) != "border":
            return
        if state.border_match_of(h_site.key) is not None:
            return
        if state.border_match_of(m_site.key) is not None:
            return
        try:
            state.add_border(h_site, m_site)
        except InconsistentMatchSetError:
            pass
    elif op == "prepare":
        species = "H" if salt % 2 else "M"
        state.prepare(_random_site(state, species, salt))
    elif op == "detach":
        species = "H" if salt % 2 else "M"
        frags = inst.fragments(species)
        state.detach_fragment((species, frags[salt % len(frags)].fid))


# At least this many examples; more under a larger profile such as
# `--hypothesis-profile=long`.
@settings(max_examples=max(40, settings.default.max_examples))
@given(st.integers(0, 10_000), ops)
def test_invariants_survive_random_operations(seed, operations):
    inst = random_instance(n_h=2, n_m=2, len_lo=2, len_hi=4, rng=seed)
    state = SolutionState(inst, MatchScorer(inst))
    for op, salt in operations:
        _apply(state, op, salt)
        state.check()
        assert layout_score(state) + 1e-9 >= state.score()


@settings(max_examples=max(25, settings.default.max_examples))
@given(st.integers(0, 10_000), ops, ops)
def test_snapshot_isolates_suffix(seed, prefix, suffix):
    inst = random_instance(n_h=2, n_m=2, len_lo=2, len_hi=4, rng=seed)
    state = SolutionState(inst, MatchScorer(inst))
    for op, salt in prefix:
        _apply(state, op, salt)
    snap = state.snapshot()
    score_before = state.score()
    matches_before = sorted(repr(m) for m in state.matches())
    for op, salt in suffix:
        _apply(state, op, salt)
    state.restore(snap)
    assert state.score() == pytest.approx(score_before)
    assert sorted(repr(m) for m in state.matches()) == matches_before
    state.check()
