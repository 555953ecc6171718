"""One benchmark run of one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload cluster-repeat --seed 1 --seconds 30 --trace 0

The run builds the optional C extension first (``python3 setup.py
build_ext --inplace``, skipped when the built module is newer than its
source; never timed), records the host, boots the workload's servers
and drives them from this one process:

* ``--trace 0`` sets up three times (``setup_s`` is the median), then
  alternates four times a closed-loop phase at concurrency 64 and an
  open-loop phase at the workload's fixed rate (40 % and 60 % of
  ``--seconds`` in all), and prints the end-to-end metrics
  (:data:`END_TO_END`).
* ``--trace 1`` sets up once, runs the closed-loop phase traced between
  two untraced halves, then a traced open-loop phase, and prints the
  per-layer ledger (:mod:`perfbench.ledger`).

:mod:`perfbench.measure` holds both kinds of run.

Outside the timing, every answer is checked against a local numpy
engine (:mod:`perfbench.oracle`).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run exits non-zero,
printing no result, when the fragalign sources are missing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> unit of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "cpu_ms_per_req": "ms",
    "rss_mb": "MB",
}


def build_native(root: Path) -> str:
    """Build the C extension in place unless an up-to-date build exists."""
    native = root / "src" / "fragalign" / "_native"
    source = native / "_kernels.c"
    built = list(native.glob("_kernels*.so"))
    if built and all(so.stat().st_mtime >= source.stat().st_mtime for so in built):
        return "up to date"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=600,
    )
    if proc.returncode != 0:
        tail = proc.stdout.decode(errors="replace").strip().splitlines()[-3:]
        return f"failed ({' | '.join(tail)})"
    return f"built in {time.perf_counter() - start:.1f} s"


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT)]
    from perfbench.workloads import WORKLOADS, RequestSource

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fragalign" / "__init__.py").is_file():
        print(f"perfbench: no fragalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"native build: {build_native(ROOT)}", flush=True)
    sys.path.insert(1, str(ROOT / "src"))

    from perfbench.ledger import LEDGER, format_ledger
    from perfbench.measure import Tally, host_record, measure_end_to_end, measure_layers
    from perfbench.oracle import Oracle

    print("host: " + json.dumps(host_record()), flush=True)
    source = RequestSource(args.workload, args.seed)
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}", flush=True)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tally = Tally(Oracle(workdir))
        if args.trace:
            values = asyncio.run(measure_layers(source, args.seconds, workdir, tally))
            print(format_ledger(values), flush=True)
            units = {row.name: row.unit for row in LEDGER}
        else:
            values = asyncio.run(measure_end_to_end(source, args.seconds, workdir, tally))
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
