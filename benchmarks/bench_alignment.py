"""B-DP — the DP substrate: vectorized vs scalar throughput.

The guides' core claim for hpc-parallel Python: the prefix-max
vectorization turns the per-cell Python DP into a per-row NumPy DP,
and the engine's batch kernels amortize even the per-row Python loop
across a whole batch of pairs.  Measured here as cells/second for the
chain DP, Needleman–Wunsch, and the engine's ``align_many``.

Runs two ways:

* under pytest-benchmark (``pytest benchmarks/ --benchmark-only``);
* as a script: ``python benchmarks/bench_alignment.py [--quick]``
  times the engine backends on a batch workload and writes the result
  table to ``BENCH_engine.json`` (the committed reference run).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from fragalign.align import (
    all_interval_chain_scores,
    chain_score,
    chain_score_reference,
    global_score,
    global_score_reference,
    local_score,
)
from fragalign.engine import AlignmentEngine, JobSpec
from fragalign.genome.dna import random_dna
from fragalign.util.timing import time_call


@pytest.fixture(scope="module")
def seqs():
    gen = np.random.default_rng(42)
    return random_dna(600, gen), random_dna(600, gen)


def test_chain_vectorized(benchmark, rng):
    W = rng.normal(size=(300, 300))
    result = benchmark(chain_score, W)
    assert result >= 0


def test_chain_reference(benchmark, rng):
    W = rng.normal(size=(60, 60))
    result = benchmark(chain_score_reference, W)
    assert result == pytest.approx(chain_score(W))


def test_nw_vectorized(benchmark, seqs):
    a, b = seqs
    benchmark(global_score, a, b)


def test_nw_reference(benchmark, seqs):
    a, b = seqs
    benchmark(global_score_reference, a[:150], b[:150])


def test_sw_vectorized(benchmark, seqs):
    a, b = seqs
    score = benchmark(local_score, a, b)
    assert score >= 0


def test_all_intervals_engine(benchmark, rng):
    W = rng.normal(size=(12, 60))
    benchmark(all_interval_chain_scores, W)


@pytest.fixture(scope="module")
def batch_pairs():
    gen = np.random.default_rng(7)
    return [(random_dna(128, gen), random_dna(128, gen)) for _ in range(48)]


def test_engine_numpy_align_many(benchmark, batch_pairs):
    with AlignmentEngine(backend="numpy") as eng:
        alns = benchmark(eng.align_many, batch_pairs)
    assert len(alns) == len(batch_pairs)


def test_engine_numpy_score_many(benchmark, batch_pairs):
    with AlignmentEngine(backend="numpy") as eng:
        scores = benchmark(eng.score_many, batch_pairs)
    assert len(scores) == len(batch_pairs)


def test_engine_naive_loop(benchmark, batch_pairs):
    # The per-pair pure-Python foil, on a slice so the suite stays fast.
    with AlignmentEngine(backend="naive") as eng:
        scores = benchmark(eng.score_many, batch_pairs[:4])
    assert len(scores) == 4


# ---------------------------------------------------------------------------
# Script mode: the committed engine-throughput reference run.
# ---------------------------------------------------------------------------


def run_engine_bench(n_pairs: int = 200, length: int = 256, seed: int = 2026) -> dict:
    """Time every backend and mode on one batch; return the report.

    The headline rows: ``numpy`` ``align_many`` must beat a per-pair
    loop over the ``naive`` backend by >= 5x, and the batched affine
    (Gotoh) ``align_many`` must beat the per-pair naive Gotoh loop by
    >= 10x (both beat it by orders of magnitude — the naive loops are
    the transparent per-cell foils; the Gotoh loop is timed on a slice
    and compared by throughput).  ``traceback_share`` is the fraction
    of ``align_many`` wall clock that is *not* the score sweep — i.e.
    what direction-code emission plus the per-pair code walks cost on
    top of score-only.  The long-pair rows compare the direction
    -tensor traceback against the linear-memory Hirschberg walker on
    one pair, including each strategy's peak allocation
    (``peak_mb``, via tracemalloc — NumPy reports its buffers there —
    in a pass of its own, apart from the timed ones).  Every row but
    ``numpy_ragged_mixed_many`` and ``numpy_ragged_affine_many`` sweeps
    pairs of ``length`` on each side; those sweep the served ragged shape,
    with linear and with -3/-1 affine gaps.
    """
    gen = np.random.default_rng(seed)
    pairs = [(random_dna(length, gen), random_dna(length, gen)) for _ in range(n_pairs)]
    cells = n_pairs * length * length
    band = max(8, length // 8)
    results: dict[str, dict] = {}

    def record(name: str, seconds: float, mcells: int = cells, peak_mb=None) -> None:
        results[name] = {
            "seconds": round(seconds, 4),
            "mcells_per_s": round(mcells / max(seconds, 1e-9) / 1e6, 2),
        }
        if peak_mb is not None:
            results[name]["peak_mb"] = round(peak_mb, 1)

    # Best-of-3 for the sub-second paths (noise there swings the ratio);
    # the naive loop is seconds long and stable, one run is enough.
    with AlignmentEngine(backend="naive") as eng:
        t, naive_alns = time_call(
            lambda: [eng.align(a, b) for a, b in pairs], repeat=1
        )
        record("naive_align_loop", t)
    with AlignmentEngine(backend="numpy") as eng:
        t_align, vec_alns = time_call(eng.align_many, pairs, repeat=3)
        record("numpy_align_many", t_align)
        t_score, vec_scores = time_call(eng.score_many, pairs, repeat=3)
        record("numpy_score_many", t_score)
        # The new first-class modes, score kernels (banded sweeps
        # O(n * band) cells, so its rate is reported over that count).
        t, overlap_scores = time_call(
            eng.score_many, pairs, mode="overlap", repeat=3
        )
        record("numpy_overlap_score_many", t)
        banded_cells = n_pairs * length * (2 * band + 1)
        t, banded_scores = time_call(
            eng.score_many, pairs, mode="banded", band=band, repeat=3
        )
        record(f"numpy_banded_score_many_band{band}", t, banded_cells)
        # One dispatch group in three modes, cycling global/local/overlap
        # over the pairs: one engine call, its chunks swept mixed.
        specs = [JobSpec(("global", "local", "overlap")[k % 3]) for k in range(n_pairs)]
        t, mixed_scores = time_call(eng.run, "score", pairs, specs, repeat=3)
        record("numpy_mixed_mode_score_many", t)
        by_mode = {
            "global": vec_scores, "overlap": overlap_scores,
            "local": eng.score_many(pairs, mode="local"),
        }
        assert list(mixed_scores) == [by_mode[s.mode][k] for k, s in enumerate(specs)]
        # The served shape: each side's length uniform in [length/8,
        # 3·length/2), the modes cycling, run as closed-loop dispatch
        # groups, score then align, every answer checked against its
        # pair alone.  Its rate counts each verb's pass over the pairs'
        # own cells.
        rag_gen = np.random.default_rng(seed + 1)
        rag_lens = rag_gen.integers(length // 8, 3 * length // 2, (n_pairs, 2))
        ragged = [(random_dna(int(n), rag_gen), random_dna(int(m), rag_gen)) for n, m in rag_lens]
        rag_cells = 2 * int(np.prod(rag_lens, axis=1).sum())

        def served(specs: list, size: int) -> float:
            groups = [(ragged[k : k + size], specs[k : k + size]) for k in range(0, n_pairs, size)]
            t, outs = time_call(
                lambda: [(eng.run("score", p, s), eng.run("align", p, s)) for p, s in groups],
                repeat=3,
            )
            for (group, group_specs), (scores, alns) in zip(groups, outs):
                for pair, spec, score, aln in zip(group, group_specs, scores, alns):
                    assert eng.run("score", [pair], [spec])[0] == score
                    assert eng.run("align", [pair], [spec])[0] == aln
            return t

        # Linear gaps in groups of 24; the affine requests' groups hold
        # ~6 pairs of a fragments-align batch.
        record("numpy_ragged_mixed_many", served(specs, 24), rag_cells)
        affine = [JobSpec(s.mode, gap_open=-3.0, gap_extend=-1.0) for s in specs]
        record("numpy_ragged_affine_many", served(affine, 6), rag_cells)

    # Native-backend rows, A/B-interleaved.  Methodology: contenders
    # alternate in round-robin over AB_ROUNDS rounds on the SAME
    # workload, each round takes a best-of-3, and the row reports the
    # CPU-minimum across rounds — interleaving keeps frequency/thermal
    # drift from aliasing into whichever contender ran last.  The
    # numpy baseline re-runs inside the rotation (`*_ab` rows) so the
    # headline speedups compare drift-matched minima, not a fresh
    # number against a stale one.
    from fragalign._native import HAVE_NATIVE
    from fragalign.align.bitparallel import bitparallel_scores_batch

    AB_ROUNDS = 4
    with AlignmentEngine(backend="native") as nat_eng, AlignmentEngine(
        backend="numpy"
    ) as np_eng:
        contenders: list[tuple[str, object]] = [
            ("numpy_score_many_ab", lambda: np_eng.score_many(pairs)),
            ("native_score_many", lambda: nat_eng.score_many(pairs)),
            (
                "bitparallel_numpy_score_many",
                lambda: bitparallel_scores_batch(pairs, mode="global"),
            ),
        ]
        if HAVE_NATIVE:
            contenders += [
                (
                    "numpy_local_score_many_ab",
                    lambda: np_eng.score_many(pairs, mode="local"),
                ),
                (
                    "native_local_score_many",
                    lambda: nat_eng.score_many(pairs, mode="local"),
                ),
            ]
        ab_best = {name: float("inf") for name, _ in contenders}
        for _ in range(AB_ROUNDS):
            for name, fn in contenders:
                t, _ = time_call(fn, repeat=3)
                ab_best[name] = min(ab_best[name], t)
        for name, t in ab_best.items():
            record(name, t)
        # Parity on the exact bench workload: the accelerated rows must
        # reproduce the numpy scores bit for bit.
        nat_scores = nat_eng.score_many(pairs)
        assert np.array_equal(nat_scores, vec_scores)
        assert np.array_equal(bitparallel_scores_batch(pairs, mode="global"), vec_scores)
        if HAVE_NATIVE:
            assert np.array_equal(
                nat_eng.score_many(pairs, mode="local"), np_eng.score_many(pairs, mode="local")
            )
    native_speedup = results["native_score_many"]["mcells_per_s"] / max(
        results["numpy_score_many_ab"]["mcells_per_s"], 1e-9
    )
    bitparallel_speedup = results["bitparallel_numpy_score_many"][
        "mcells_per_s"
    ] / max(results["numpy_score_many_ab"]["mcells_per_s"], 1e-9)

    # Affine (Gotoh) rows: the batched three-frontier kernels vs a
    # per-pair loop over the per-cell Gotoh oracle.  The oracle is
    # timed on a slice (it is minutes-slow on the full batch) and the
    # headline compares throughput, not raw seconds.
    from fragalign.align.affine import affine_align_reference

    with AlignmentEngine(backend="numpy") as eng:
        t_aff_align, aff_alns = time_call(
            eng.align_many, pairs, mode="global", gap_open=-4.0, gap_extend=-1.0, repeat=3
        )
        record("numpy_affine_align_many", t_aff_align)
        t, aff_scores = time_call(
            eng.score_many, pairs, mode="global", gap_open=-4.0, gap_extend=-1.0, repeat=3
        )
        record("numpy_affine_score_many", t)
    n_oracle = max(2, min(12, n_pairs // 16))
    t_oracle, oracle_alns = time_call(
        lambda: [
            affine_align_reference(a, b, None, -4.0, -1.0) for a, b in pairs[:n_oracle]
        ],
        repeat=1,
    )
    record("naive_affine_align_loop", t_oracle, n_oracle * length * length)
    assert oracle_alns == aff_alns[:n_oracle]
    assert np.array_equal(aff_scores, [x.score for x in aff_alns])

    # Long-pair traceback: direction tensor vs the linear-memory
    # Hirschberg walker — identical alignments, very different peaks.
    import tracemalloc

    from fragalign.align.hirschberg import linear_align
    from fragalign.align.pairwise import global_align

    hl = min(4096, max(1024, length * 16))
    ha, hb = random_dna(hl, gen), random_dna(hl, gen)
    hcells = hl * hl

    def peak_call(fn, *args):
        """Best-of-3 untraced time, the result, and the peak MB of one
        more pass under tracemalloc (its allocation hook slows the
        kernels several-fold, so it times nothing)."""
        t, result = time_call(fn, *args, repeat=3)
        tracemalloc.start()
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return t, result, peak / 1e6

    t_tensor, aln_tensor, peak_tensor = peak_call(global_align, ha, hb)
    record(f"align_single_{hl}x{hl}_tensor", t_tensor, hcells, peak_mb=peak_tensor)
    t_linear, aln_linear, peak_linear = peak_call(linear_align, ha, hb)
    record(f"align_single_{hl}x{hl}_linear", t_linear, hcells, peak_mb=peak_linear)
    assert aln_linear == aln_tensor

    # Banded: one long pair at band 32 through the batch banded sweep
    # at B = 1, which sweeps 1-D row views, against the per-cell dict DP
    # it replaced; then the same sweep over two pairs, per pair.
    from fragalign.align.pairwise import (
        banded_global_score,
        banded_global_score_reference,
        banded_scores_batch,
    )

    bl = min(2048, max(512, length * 8))
    ba, bb = random_dna(bl, gen), random_dna(bl, gen)
    t_vec_banded, s_vec = time_call(banded_global_score, ba, bb, 32, repeat=3)
    record("banded_single_pair_band32", t_vec_banded, bl * 65)
    # Two pairs share each row's NumPy calls, but on (2, 65) row views,
    # which cost about twice the 1-D ones a lone pair sweeps: per pair,
    # this row reads about what banded_single_pair_band32 does.
    t_b2, _ = time_call(banded_scores_batch, [(ba, bb), (bb, ba)], 32, repeat=3)
    record("banded_batch_kernel_per_pair_band32", t_b2 / 2, bl * 65)
    t_ref_banded, s_ref = time_call(
        banded_global_score_reference, ba, bb, 32, repeat=1
    )
    assert s_vec == s_ref

    assert [x.score for x in naive_alns] == [x.score for x in vec_alns]
    assert np.array_equal(vec_scores, [x.score for x in vec_alns])
    # Cross-mode sanity on the same workload: overlap is at least the
    # global score (it relaxes end gaps); a full-width band is exact;
    # affine with open < extend never beats linear unit gaps... (it
    # *can* differ either way, so no blanket inequality is asserted).
    assert np.all(overlap_scores >= vec_scores)
    assert np.all(banded_scores <= vec_scores + 1e-9)
    speedup = results["naive_align_loop"]["seconds"] / max(
        results["numpy_align_many"]["seconds"], 1e-9
    )
    affine_speedup = results["numpy_affine_align_many"]["mcells_per_s"] / max(
        results["naive_affine_align_loop"]["mcells_per_s"], 1e-9
    )
    return {
        "experiment": "B-ENGINE batch alignment throughput",
        "config": {"n_pairs": n_pairs, "length": length, "band": band},
        "ab_methodology": (
            f"native rows: {AB_ROUNDS} interleaved A/B rounds per contender "
            "(round-robin, best-of-3 each round, CPU-minimum across rounds); "
            "*_ab rows are the drift-matched numpy baselines from the same "
            "rotation; C extension "
            + (
                "loaded"
                if HAVE_NATIVE
                else "ABSENT (numpy-uint64 fallback timed under the native rows)"
            )
        ),
        "results": results,
        "speedup_native_score_many_vs_numpy_ab": round(native_speedup, 1),
        "speedup_bitparallel_numpy_vs_numpy_ab": round(bitparallel_speedup, 1),
        "speedup_numpy_align_many_vs_naive_loop": round(speedup, 1),
        "speedup_numpy_affine_align_many_vs_naive_gotoh_loop": round(affine_speedup, 1),
        "traceback_share_of_align_many": round(
            max(0.0, 1.0 - t_score / max(t_align, 1e-9)), 3
        ),
        "banded_vectorized_speedup_vs_dict_band32": round(
            t_ref_banded / max(t_vec_banded, 1e-9), 1
        ),
        "linear_memory_peak_ratio_vs_tensor": round(
            peak_tensor / max(peak_linear, 1e-9), 1
        ),
    }


QUICK_ROUNDS = 5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--length", type=int, default=256)
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: repo-root "
        "BENCH_engine.json; quick runs don't write unless --out is given)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.pairs, args.length = 16, 64
    report = run_engine_bench(args.pairs, args.length)
    if args.quick:
        # A quick row times ~2 ms of work, and on a shared host the same
        # kernel reads 40 or 58 Mcells/s depending on when it ran, so a
        # single pass can move one row 30% against the peers
        # check_regression.py normalizes it by.  Each row keeps its best
        # of QUICK_ROUNDS passes, taken about a second apart.
        for _ in range(QUICK_ROUNDS - 1):
            again = run_engine_bench(args.pairs, args.length)["results"]
            for name, row in report["results"].items():
                if again[name]["mcells_per_s"] > row["mcells_per_s"]:
                    report["results"][name] = again[name]
        report["quick_rounds"] = QUICK_ROUNDS
    print(json.dumps(report, indent=2))
    out = args.out
    if out is None and not args.quick:
        out = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    speedup = report["speedup_numpy_align_many_vs_naive_loop"]
    if speedup < 5.0 and not args.quick:
        print(f"FAIL: speedup {speedup} < 5x", file=sys.stderr)
        return 1
    affine_speedup = report["speedup_numpy_affine_align_many_vs_naive_gotoh_loop"]
    if affine_speedup < 10.0 and not args.quick:
        print(f"FAIL: affine speedup {affine_speedup} < 10x", file=sys.stderr)
        return 1
    # The bit-parallel tentpole: with the C extension the native rows
    # must clear 5x the drift-matched numpy score_many baseline; the
    # numpy-uint64 fallback alone must still clear 2x.
    from fragalign._native import HAVE_NATIVE

    native_floor = 5.0 if HAVE_NATIVE else 2.0
    native_speedup = report["speedup_native_score_many_vs_numpy_ab"]
    if native_speedup < native_floor and not args.quick:
        print(
            f"FAIL: native speedup {native_speedup} < {native_floor}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
