"""Conserved-region discovery between two contig sets.

Seed-and-extend homology search: shared k-mers between a contig pair
(both strands) are clustered by diagonal; each cluster seeds a window
that is scored with local alignment.  Detected regions that overlap on
a contig are reduced to a best-scoring non-overlapping subset, because
the paper's model assumes regions are "identical or completely
distinct" — no partial overlap (§1).

All candidate windows are collected first and scored in one
``align_many`` batch through the alignment engine, so discovery can be
pointed at any registered backend (numpy, native or naive).
On the numpy backend the whole batch of windows, whatever their
shapes, shares one forward sweep per chunk (padded to its longest
window) that emits packed direction codes, and each window's
alignment is recovered by the table-free O(n+m) code walk — discovery
no longer pays for per-window float DP tables.

The result feeds :func:`build_csr_instance`: regions become symbols,
alignment scores become σ, and the contigs become CSR fragments.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from fragalign.align.scoring_matrices import SubstitutionModel, unit_dna
from fragalign.engine import AlignmentEngine
from fragalign.core.fragments import CSRInstance
from fragalign.core.scoring import Scorer
from fragalign.genome.dna import reverse_complement
from fragalign.genome.shotgun import Contig

__all__ = ["RegionHit", "find_conserved_regions", "build_csr_instance"]


@dataclass(frozen=True)
class RegionHit:
    """One conserved region pair between an H and an M contig."""

    h_contig: int
    h_start: int
    h_end: int
    m_contig: int
    m_start: int
    m_end: int
    reversed: bool  # m side on the minus strand relative to h
    score: float


def _kmers(seq: str, k: int) -> dict[str, list[int]]:
    index: dict[str, list[int]] = defaultdict(list)
    for i in range(len(seq) - k + 1):
        index[seq[i : i + k]].append(i)
    return index


def _diagonal_clusters(
    index: dict[str, list[int]], m_seq: str, k: int, min_seeds: int
) -> list[tuple[int, int, int, int]]:
    """Cluster shared k-mers by diagonal; return merged windows
    (h_start, h_end, m_start, m_end).

    ``index`` is the H contig's k-mer index from :func:`_kmers`, built
    once per H contig and reused across every M contig and strand.
    """
    by_diag: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for j in range(len(m_seq) - k + 1):
        for i in index.get(m_seq[j : j + k], ()):
            by_diag[i - j].append((i, j))
    windows: list[tuple[int, int, int, int]] = []
    # Merge neighbouring diagonals (indels shift the diagonal slightly).
    merged: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for d, seeds in by_diag.items():
        merged[d // 8].extend(seeds)
    for seeds in merged.values():
        if len(seeds) < min_seeds:
            continue
        hs = min(i for i, _ in seeds)
        he = max(i for i, _ in seeds) + k
        ms = min(j for _, j in seeds)
        me = max(j for _, j in seeds) + k
        windows.append((hs, he, ms, me))
    return windows


def find_conserved_regions(
    h_contigs: list[Contig],
    m_contigs: list[Contig],
    k: int = 12,
    min_seeds: int = 3,
    min_score: float = 20.0,
    model: SubstitutionModel | None = None,
    pad: int = 25,
    engine: AlignmentEngine | None = None,
) -> list[RegionHit]:
    """All conserved region pairs above ``min_score``.

    ``engine`` selects the execution backend for window scoring (must
    be in ``local`` mode; its model takes precedence over ``model``).
    By default a vectorized in-process engine is used.
    """
    if engine is None:
        model = model or unit_dna(match=1.0, mismatch=-1.0, gap=-2.0)
        engine = AlignmentEngine(backend="numpy", model=model, mode="local")
    elif engine.mode != "local":
        raise ValueError("conserved-region discovery needs a local-mode engine")
    jobs: list[tuple[int, int, bool, int, int, int]] = []
    windows: list[tuple[str, str]] = []
    for hi, hc in enumerate(h_contigs):
        h_index = _kmers(hc.sequence, k)
        for mi, mc in enumerate(m_contigs):
            for rev in (False, True):
                m_seq = reverse_complement(mc.sequence) if rev else mc.sequence
                for hs, he, ms, me in _diagonal_clusters(
                    h_index, m_seq, k, min_seeds
                ):
                    hs = max(0, hs - pad)
                    he = min(len(hc.sequence), he + pad)
                    ms = max(0, ms - pad)
                    me = min(len(m_seq), me + pad)
                    jobs.append((hi, mi, rev, hs, ms, len(mc.sequence)))
                    windows.append((hc.sequence[hs:he], m_seq[ms:me]))
    hits: list[RegionHit] = []
    for (hi, mi, rev, hs, ms, L), aln in zip(jobs, engine.align_many(windows)):
        if aln.score < min_score or not aln.pairs:
            continue
        h0 = hs + aln.a_interval[0]
        h1 = hs + aln.a_interval[1]
        m0 = ms + aln.b_interval[0]
        m1 = ms + aln.b_interval[1]
        if rev:
            # Map back to plus-strand coordinates of m.
            m0, m1 = L - m1, L - m0
        hits.append(
            RegionHit(
                h_contig=hi,
                h_start=h0,
                h_end=h1,
                m_contig=mi,
                m_start=m0,
                m_end=m1,
                reversed=rev,
                score=float(aln.score),
            )
        )
    return hits


def _select_disjoint(hits: list[RegionHit]) -> list[RegionHit]:
    """Greedy best-score selection of hits that do not overlap any
    already-kept hit on either contig (the paper's no-partial-overlap
    assumption)."""
    kept: list[RegionHit] = []

    def clashes(a: RegionHit, b: RegionHit) -> bool:
        if a.h_contig == b.h_contig and a.h_start < b.h_end and b.h_start < a.h_end:
            return True
        if a.m_contig == b.m_contig and a.m_start < b.m_end and b.m_start < a.m_end:
            return True
        return False

    for hit in sorted(hits, key=lambda h: -h.score):
        if not any(clashes(hit, kk) for kk in kept):
            kept.append(hit)
    return kept


def build_csr_instance(
    h_contigs: list[Contig],
    m_contigs: list[Contig],
    hits: list[RegionHit],
) -> tuple[CSRInstance, list[RegionHit]]:
    """Turn contigs + conserved regions into a CSR instance.

    Each selected hit becomes a fresh (h-region, m-region) symbol pair
    with σ = its alignment score (orientation-aware); contigs become
    fragments listing their region symbols in sequence order.  Contigs
    with no region still appear (as a harmless one-region fragment with
    no scores) so arrangements stay total.
    """
    selected = _select_disjoint(hits)
    scorer = Scorer()
    next_sym = 1
    h_regions: dict[int, list[tuple[int, int]]] = defaultdict(list)  # start→sym
    m_regions: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for hit in selected:
        h_sym = next_sym
        m_sym = next_sym + 1
        next_sym += 2
        h_regions[hit.h_contig].append((hit.h_start, h_sym))
        m_regions[hit.m_contig].append((hit.m_start, m_sym))
        scorer.set(h_sym, -m_sym if hit.reversed else m_sym, hit.score)
    h_words = []
    for i in range(len(h_contigs)):
        regs = sorted(h_regions.get(i, []))
        if not regs:
            regs = [(0, next_sym)]
            next_sym += 1
        h_words.append(tuple(sym for _pos, sym in regs))
    m_words = []
    for j in range(len(m_contigs)):
        regs = sorted(m_regions.get(j, []))
        if not regs:
            regs = [(0, next_sym)]
            next_sym += 1
        m_words.append(tuple(sym for _pos, sym in regs))
    return CSRInstance.build(h_words, m_words, scorer), selected
