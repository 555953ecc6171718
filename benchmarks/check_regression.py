"""Bench-regression gate: fresh ``--quick`` run vs the committed reference.

``bench_alignment.py --quick`` runs tiny sizes, so its absolute Mcells/s
are far below the committed full-size ``BENCH_engine.json`` numbers —
a raw comparison would always "fail".  What a quick run *does* preserve
is the relative shape of the kernel table: numpy beats naive by ~25x,
affine costs ~2x plain, banded trades peak throughput for cell count.
A real kernel regression (a de-vectorized inner loop, an accidental
dtype promotion) moves one row against its peers.

So the gate compares *normalized* ratios: for every row present in
both runs, ``ratio = fresh_mcells / committed_mcells``; the median
ratio is the global quick-vs-full scale factor, and any row whose
ratio falls below ``tolerance`` (default 0.70 — a >=30% regression)
times that median fails the gate.

Usage (CI wires exactly this)::

    python benchmarks/bench_alignment.py --quick --out /tmp/quick.json
    python benchmarks/check_regression.py /tmp/quick.json

Exit codes: 0 clean, 1 regression detected, 2 usage/data error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

# Rows the gate insists on: the load-bearing kernels whose regression
# would show up in production throughput.  Extra rows in either file
# are compared opportunistically; missing *these* is itself a failure
# (a renamed row silently dropping out of the gate is how regressions
# hide).
KEY_ROWS = (
    "naive_align_loop",
    "numpy_align_many",
    "numpy_score_many",
    "numpy_overlap_score_many",
    "numpy_mixed_mode_score_many",
    "numpy_ragged_mixed_many",
    "numpy_affine_align_many",
    "numpy_affine_score_many",
    "bitparallel_numpy_score_many",
    "native_score_many",
)

# Rows whose quick-vs-full ratio is structurally depressed, not just
# scaled: at quick sizes (16 pairs x 64) a fixed per-pair or per-call
# cost dominates, so their normalized ratio sits far below the
# vectorized peers even on a healthy build.  These get an absolute
# floor instead of the peer-normalized tolerance — still gated, but at
# catastrophic-only level.
ROW_FLOORS = {
    # Affine align pairs a vectorized Gotoh sweep (scales with size)
    # with a per-pair three-matrix Python traceback (fixed per-cell
    # cost), so at quick sizes the traceback fraction balloons and the
    # row sits ~30% under the score-row peers that set the median.
    "numpy_affine_align_many": 0.45,
    # Same traceback-fraction skew as the affine row above: the plain
    # align path couples a vectorized sweep with a per-pair Python
    # traceback, so quick sizes depress it against score-only peers.
    "numpy_align_many": 0.45,
    # A mixed-mode sweep runs the local clamp and best tracking on a
    # third of its rows.  At full size that costs a third of their cells;
    # at quick sizes every row pays the local ops' fixed NumPy calls, so
    # the row runs at the local row's quick speed and read 0.68-0.75 on
    # a healthy build (5 quick runs, 2-vCPU host).  0.50 still fails a
    # 30% regression from there.
    "numpy_mixed_mode_score_many": 0.50,
    # The committed native_score_many number is the C bit-parallel
    # kernel; a fresh quick run on a box with no compiler falls back to
    # the numpy-uint64 kernel, ~30x slower.  The row must still exist
    # (the backend silently vanishing is the regression we gate), but
    # only a catastrophic collapse — the fallback itself breaking —
    # should fail, hence the near-zero floor (measured ~0.013 on a
    # compiler-less box).
    "native_score_many": 0.005,
    # 64-cell word packing amortizes poorly at quick sizes (16 pairs
    # x 64 chars fills exactly one word per pair), so the bit-parallel
    # numpy row sits far under the vectorized peers that set the
    # median even on a healthy build (measured ~0.14-0.18 across
    # loaded/unloaded boxes).
    "bitparallel_numpy_score_many": 0.08,
}


def load_rows(path: Path) -> dict[str, float]:
    """``{row_name: mcells_per_s}`` for every throughput row."""
    report = json.loads(path.read_text())
    rows = {}
    for name, row in report.get("results", {}).items():
        value = row.get("mcells_per_s") if isinstance(row, dict) else None
        if isinstance(value, (int, float)) and value > 0:
            rows[name] = float(value)
    return rows


def check(
    fresh: dict[str, float],
    committed: dict[str, float],
    tolerance: float = 0.70,
) -> tuple[list[str], list[str]]:
    """Returns ``(failures, report_lines)``."""
    failures: list[str] = []
    lines: list[str] = []
    for key in KEY_ROWS:
        if key not in committed:
            failures.append(f"committed reference is missing key row {key!r}")
        if key not in fresh:
            failures.append(f"fresh run is missing key row {key!r}")
    shared = sorted(set(fresh) & set(committed))
    if len(shared) < 3:
        failures.append(
            f"only {len(shared)} shared rows between runs — nothing to gate"
        )
        return failures, lines
    ratios = {k: fresh[k] / committed[k] for k in shared}
    scale = statistics.median(ratios.values())
    if scale <= 0:
        failures.append(f"degenerate scale factor {scale}")
        return failures, lines
    lines.append(
        f"{len(shared)} shared rows, quick-vs-full scale factor "
        f"{scale:.3f} (median ratio)"
    )
    header = f"{'ROW':<40} {'COMMITTED':>10} {'FRESH':>10} {'NORM':>6}  status"
    lines.append(header)
    lines.append("-" * len(header))
    for key in shared:
        norm = ratios[key] / scale
        floor = ROW_FLOORS.get(key, tolerance)
        ok = norm >= floor
        status = "ok" if ok else f"REGRESSED ({(1 - norm) * 100:.0f}% below peers)"
        if key in ROW_FLOORS:
            status += f" [floor {floor:.2f}]" if not ok else " [own floor]"
        lines.append(
            f"{key:<40} {committed[key]:>10.1f} {fresh[key]:>10.1f} "
            f"{norm:>6.2f}  {status}"
        )
        if not ok and key in KEY_ROWS:
            failures.append(
                f"{key}: normalized throughput {norm:.2f} < {floor:.2f} "
                f"({committed[key]:.1f} → {fresh[key]:.1f} Mcells/s, "
                f"scale {scale:.3f})"
            )
    return failures, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="JSON from bench_alignment.py --quick --out")
    parser.add_argument(
        "--committed",
        default=None,
        help="reference report (default: the repo's BENCH_engine.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.70,
        help="fail a key row below this fraction of the peer-normalized "
        "reference (0.70 = a 30%% regression fails)",
    )
    args = parser.parse_args(argv)
    committed_path = (
        Path(args.committed)
        if args.committed
        else Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    )
    try:
        fresh = load_rows(Path(args.fresh))
        committed = load_rows(committed_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures, lines = check(fresh, committed, tolerance=args.tolerance)
    for line in lines:
        print(line)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench-regression gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
