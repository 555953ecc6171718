"""The paper's algorithms end to end: guarantees measured against the
exact oracle.

* Corollary 1: baseline4 ≥ OPT/4.
* Theorem 4: Full_Improve ≥ OPT/3 (−ε) on Full-CSR instances.
* Lemma 9: matching_2approx ≥ OPT/2 on Border-CSR instances.
* Theorem 5: Border_Improve ≥ OPT/3 on Border-CSR instances.
* Theorem 6: CSR_Improve ≥ OPT/3 on general instances.

Hypothesis drives randomized families through each guarantee; the
bounds are checked with a small numerical slack for float noise only —
the guarantees themselves are exercised at full strength.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragalign.core.baseline import baseline4
from fragalign.core.border_improve import border_improve, matching_2approx
from fragalign.core.consistency import check_consistent
from fragalign.core.csr_improve import csr_improve
from fragalign.core.exact import exact_csr
from fragalign.core.full_improve import full_improve
from fragalign.core.generators import (
    border_chain_instance,
    full_csr_instance,
    planted_instance,
    random_instance,
    ucsr_instance,
)
from fragalign.core.greedy import greedy_csr
from fragalign.core.one_csr import solve_one_csr
from fragalign.core.solution import CSRSolution

SLACK = 1e-6

seeds = st.integers(0, 10_000)


class TestOneCSR:
    @given(seeds)
    @settings(max_examples=12)
    def test_ratio_two_vs_exact(self, seed):
        inst = random_instance(n_h=3, n_m=1, len_lo=2, len_hi=4, rng=seed)
        sol = solve_one_csr(inst)
        opt = exact_csr(inst).score
        assert 2.0 * sol.score + SLACK >= opt
        check_consistent(sol.state)


class TestBaseline4:
    @given(seeds)
    @settings(max_examples=12)
    def test_corollary1_ratio_four(self, seed):
        inst = random_instance(n_h=3, n_m=2, rng=seed)
        sol = baseline4(inst)
        opt = exact_csr(inst).score
        assert 4.0 * sol.score + SLACK >= opt

    def test_paper_example(self, paper_instance):
        sol = baseline4(paper_instance)
        assert 4.0 * sol.score + SLACK >= 11.0
        assert sol.score <= 11.0 + SLACK


class TestFullImprove:
    @given(seeds)
    @settings(max_examples=10)
    def test_theorem4_ratio_three_on_full_instances(self, seed):
        inst = full_csr_instance(n_h=4, n_m=2, m_len=3, rng=seed)
        sol = full_improve(inst)
        opt = exact_csr(inst).score
        assert 3.0 * sol.score + SLACK >= opt
        check_consistent(sol.state)

    def test_only_full_matches_created(self):
        inst = full_csr_instance(n_h=5, n_m=2, m_len=4, rng=3)
        sol = full_improve(inst)
        assert all(m.kind == "full" for m in sol.state.matches())


class TestBorderAlgorithms:
    @given(seeds)
    @settings(max_examples=8)
    def test_lemma9_ratio_two(self, seed):
        inst = border_chain_instance(k=3, jitter=1.0, rng=seed)
        sol = matching_2approx(inst)
        opt = exact_csr(inst).score
        assert 2.0 * sol.score + SLACK >= opt
        check_consistent(sol.state)

    @given(seeds)
    @settings(max_examples=8)
    def test_theorem5_ratio_three(self, seed):
        inst = border_chain_instance(k=3, jitter=1.0, rng=seed)
        sol = border_improve(inst)
        opt = exact_csr(inst).score
        assert 3.0 * sol.score + SLACK >= opt
        check_consistent(sol.state)

    def test_border_improve_uses_border_matches(self):
        inst = border_chain_instance(k=3)
        sol = border_improve(inst)
        kinds = {m.kind for m in sol.state.matches()}
        assert kinds <= {"border"}
        assert sol.score > 0


class TestCSRImprove:
    @given(seeds)
    @settings(max_examples=10)
    def test_theorem6_ratio_three_random(self, seed):
        inst = random_instance(n_h=3, n_m=2, rng=seed)
        sol = csr_improve(inst)
        opt = exact_csr(inst).score
        assert 3.0 * sol.score + SLACK >= opt
        check_consistent(sol.state)

    @given(seeds)
    @settings(max_examples=8)
    def test_theorem6_on_ucsr(self, seed):
        inst = ucsr_instance(n_letters=6, n_h=2, n_m=2, rng=seed)
        sol = csr_improve(inst)
        opt = exact_csr(inst).score
        assert 3.0 * sol.score + SLACK >= opt

    def test_paper_example_reaches_optimum(self, paper_instance):
        sol = csr_improve(paper_instance, validate=True)
        assert sol.score == pytest.approx(11.0)

    def test_seeded_from_baseline(self, paper_instance):
        sol = csr_improve(paper_instance, seed="baseline")
        assert sol.score == pytest.approx(11.0)

    def test_bad_seed_rejected(self, paper_instance):
        with pytest.raises(ValueError):
            csr_improve(paper_instance, seed="nonsense")

    def test_planted_recovery(self):
        p = planted_instance(n_blocks=6, n_h=2, n_m=3, rng=4)
        sol = csr_improve(p.instance)
        # Local search must collect at least the planted correspondence
        # up to its (3+ε) guarantee; in practice it recovers most of it.
        assert 3.0 * sol.score + SLACK >= p.planted_score


class TestGreedyFoil:
    @given(seeds)
    @settings(max_examples=8)
    def test_greedy_is_consistent_but_unguaranteed(self, seed):
        inst = random_instance(n_h=3, n_m=2, rng=seed)
        sol = greedy_csr(inst)
        check_consistent(sol.state)
        assert sol.score <= exact_csr(inst).score + SLACK

    def test_csr_improve_beats_or_ties_greedy_on_paper(self, paper_instance):
        assert (
            csr_improve(paper_instance).score
            >= greedy_csr(paper_instance).score
        )


class TestSolutionType:
    def test_summary_format(self, paper_instance):
        sol = csr_improve(paper_instance)
        text = sol.summary()
        assert "csr_improve" in text and "score" in text
        assert isinstance(sol, CSRSolution)
