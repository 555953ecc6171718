"""The benchmark's own tests.

Run from the repository root (the file name keeps it out of the main
suite's collection, since the end-to-end cases boot real servers)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.ledger import LEDGER
from perfbench.run import END_TO_END
from perfbench.workloads import WORKLOADS, RequestSource

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _requests(source: RequestSource, n: int) -> list:
    """A run's worth of requests: every set-up's warm-up, then phases."""
    reqs = [r for boot in range(3) for r in source.warmup(boot)]
    for phase in ("closed", "open", "traced-closed", "traced-open"):
        reqs += source.take(phase, n)
    return reqs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_request_stream(workload):
    first, second = _requests(RequestSource(workload, 11), 300), _requests(RequestSource(workload, 11), 300)
    assert first == second
    assert first != _requests(RequestSource(workload, 12), 300)


@pytest.mark.parametrize("workload", ["reads-score", "fragments-align"])
def test_distinct_workloads_never_repeat_a_pair(workload):
    reqs = _requests(RequestSource(workload, 3), 2000)
    assert len({(r.a, r.b) for r in reqs}) == len(reqs)


def test_cluster_repeat_share_is_one_half():
    source = RequestSource("cluster-repeat", 5)
    seen = {(r.a, r.b) for r in source.warmup(0)}
    reqs = source.take("closed", 10000)
    repeats = 0
    for r in reqs:
        repeats += (r.a, r.b) in seen
        seen.add((r.a, r.b))
    assert abs(repeats / len(reqs) - 0.5) <= 0.02


def test_workload_knob_mix():
    reads = RequestSource("reads-score", 1).take("closed", 100)
    assert {r.op for r in reads} == {"score"}
    assert [r.mode for r in reads[:2]] == ["global", "overlap"]
    assert min(min(len(r.a), len(r.b)) for r in reads) >= 16
    frags = RequestSource("fragments-align", 1).take("closed", 300)
    assert sum(r.op == "align" for r in frags) == 150
    assert sum(r.gap_open is not None for r in frags) == 60
    assert all(32 <= len(s) < 384 for r in frags for s in (r.a, r.b))


def test_spec_lists_the_code_tables():
    assert [w["name"] for w in SPEC["workloads"]] == ["fragments-align", "cluster-repeat"]
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (row.name, row.unit, row.better) for row in LEDGER
    ]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_no_failures(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "reads-score", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
