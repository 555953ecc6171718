"""Bench-regression gate: a fresh ``--quick`` run vs the committed quick reference.

``BENCH_engine_quick.json`` holds each row of ``bench_alignment.py
--quick`` as its median over several quick runs of the committed code
(at least 5, one after another on one host).  A fresh quick run on
another host, or at another moment on the same one, runs every row
faster or slower by about one factor.  A real kernel regression (a
de-vectorized inner loop, an accidental dtype promotion) moves one row
against its peers.

So the gate compares *normalized* ratios: for every row present in
both runs, ``ratio = fresh_mcells / committed_mcells``; the median
ratio is the host's speed factor, and any key row whose ratio falls
below ``tolerance`` (default 0.70 — a >=30% regression) times that
median fails the gate.  Both sides time the same quick sizes, so a row
whose speed-up grows with size reads level with its peers; against the
full-size ``BENCH_engine.json`` such rows read 0.7 or less on healthy
builds.  The reference is a per-row median because one quick run can
be an outlier: of five single-run references, four put the lowest key
row of 19 healthy quick runs at 0.85-0.99, and the fifth at 0.50-0.94,
failing 18 of them (2-vCPU host).

Rebuild the reference when a kernel's speed changes on purpose: run
``bench_alignment.py --quick --out qN.json`` five times or more and
write each row's median ``seconds`` and ``mcells_per_s`` into
``BENCH_engine_quick.json`` (keep its ``reference`` note current).

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
    # The only row that times a banded sweep at B = 1, where its 1-D
    # row views carry its speed.
    "banded_single_pair_band32",
)

# Rows gated at an absolute floor instead of the peer-normalized
# tolerance: still gated, but at catastrophic-only level.
ROW_FLOORS = {
    # The reference's native_score_many is the C bit-parallel kernel;
    # CI builds no C extension, so its quick run times the numpy-uint64
    # fallback, which read 0.10 of the reference on a 2-vCPU host.  The
    # row must still exist (the backend silently vanishing is the
    # regression we gate), but only a collapse of the fallback itself
    # should fail.
    "native_score_many": 0.005,
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
        f"{len(shared)} shared rows, host speed factor "
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
        help="reference report (default: the repo's BENCH_engine_quick.json)",
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
        else Path(__file__).resolve().parent.parent / "BENCH_engine_quick.json"
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
