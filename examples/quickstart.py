#!/usr/bin/env python
"""Quickstart: the paper's running example, solved four ways.

Builds the instance of Fig. 2 (contigs h1=⟨a,b,c⟩, h2=⟨d⟩, m1=⟨s,t⟩,
m2=⟨u,v⟩), runs the exact solver, the (3+ε)-approximation CSR_Improve,
the factor-4 baseline and the greedy foil, and prints the optimal
layout (Fig. 4) plus its match set (Fig. 5).  Then the alignment
engine: the same batch of sequence pairs scored through the ``naive``
per-cell Python backend and the ``numpy`` vectorized one via the
``score_many`` batch API.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from fragalign.core import (
    AlignmentEngine,
    available_backends,
    baseline4,
    certified_ratio,
    csr_improve,
    derive_matches,
    exact_csr,
    format_word,
    greedy_csr,
    paper_example,
    realize,
    render_alignment,
)
from fragalign.genome.dna import random_dna


def main() -> None:
    instance = paper_example()
    print("Instance (paper Fig. 2):")
    print(instance.describe())
    print()

    exact = exact_csr(instance)
    print(f"Exact optimum: {exact.score:g}   (paper: 11)")

    solutions = [
        csr_improve(instance),
        baseline4(instance),
        greedy_csr(instance),
    ]
    print("\nAlgorithms:")
    for sol in solutions:
        print(f"  {sol.summary()}")

    best = solutions[0]
    print("\nOptimal layout (paper Fig. 4):")
    h_word = realize(instance, best.arr_h)
    m_word = realize(instance, best.arr_m)
    print(f"  H conjecture: {format_word(h_word, instance.region_names)}")
    print(f"  M conjecture: {format_word(m_word, instance.region_names)}")
    print()
    print(render_alignment(instance, best.arr_h, best.arr_m))
    print(f"\nCertificate: within {certified_ratio(best):.3f}× of optimal"
          " (occurrence-matching bound)")

    print("\nDerived match set (paper Fig. 5):")
    for match in derive_matches(instance, best.arr_h, best.arr_m):
        print(f"  {match}")

    # ------------------------------------------------------------------
    # The alignment engine: one facade, swappable execution backends.
    # Each distinct sequence is encoded once (memoized preparation) and
    # batches are bucketed by shape, so the numpy backend sweeps whole
    # batches per DP row.  New backends plug in via register_backend().
    # ------------------------------------------------------------------
    print(f"\nAlignment engine (backends: {', '.join(available_backends())}):")
    gen = np.random.default_rng(0)
    batch = [(random_dna(120, gen), random_dna(120, gen)) for _ in range(16)]
    for backend in ("naive", "numpy"):
        with AlignmentEngine(backend=backend) as engine:
            scores = engine.score_many(batch)
            print(
                f"  {backend:<8} score_many on {len(batch)} pairs -> "
                f"mean score {float(np.mean(scores)):.2f}"
            )


if __name__ == "__main__":
    main()
