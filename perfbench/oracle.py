"""Answer checking against a local ``AlignmentEngine(backend="numpy")``.

After each timed phase (never inside it) every answer is compared
with the numpy engine's: the score for ``score`` requests, score and
alignment for ``align`` requests.  Expected answers are memoised per
distinct request, so cluster-repeat's hot pairs are computed once.
The numpy engine runs in worker processes, one per CPU, each started
as ``python3 -m perfbench.oracle <in> <out>`` on files in the run's
work directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from fragalign.engine.facade import AlignmentEngine
from fragalign.service.protocol import alignment_to_dict

__all__ = ["Oracle"]

_ROOT = Path(__file__).resolve().parents[1]
_BATCH = 1024
_WORKERS = min(2, os.cpu_count() or 1)


class Oracle:
    """Memoised numpy-engine answers for one run."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.expected: dict = {}  # Request -> score float or alignment dict
        self._batches = 0

    def check(self, records) -> tuple[int, int, list[str]]:
        """Compare every record with the numpy engine; return
        ``(succeeded, failed, first few failure descriptions)``."""
        self.compute({r.req for r in records})
        succeeded, failed, notes = 0, 0, []
        for r in records:
            if r.error is None:
                want = self.expected[r.req]
                got = float(r.value) if r.req.op == "score" else alignment_to_dict(r.value)
                if got == want:
                    succeeded += 1
                    continue
                problem = f"wrong answer {got!r} != {want!r}"
            else:
                problem = r.error
            failed += 1
            if len(notes) < 5:
                notes.append(f"{r.req.op}/{r.req.mode} {len(r.req.a)}x{len(r.req.b)}: {problem}")
        return succeeded, failed, notes

    def compute(self, requests) -> None:
        """Fill :attr:`expected` for every request not yet known."""
        todo = sorted(
            (r for r in requests if r not in self.expected),
            key=lambda r: (r.op, r.mode, r.gap_open or 0.0, len(r.a), len(r.b)),
        )
        if not todo:
            return
        self._batches += 1
        shares = [todo[k::_WORKERS] for k in range(_WORKERS)]
        jobs = []
        for k, share in enumerate(shares):
            if not share:
                continue
            src = self.workdir / f"oracle-{self._batches}-{k}.in.json"
            dst = self.workdir / f"oracle-{self._batches}-{k}.out.json"
            src.write_text(json.dumps([list(r) for r in share]))
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.oracle", str(src), str(dst)],
                cwd=_ROOT, env=_worker_env(),
            )
            jobs.append((share, proc, src, dst))
        codes = [proc.wait() for _, proc, _, _ in jobs]
        if any(codes):
            raise RuntimeError(f"answer-checking workers exited with {codes}")
        for share, _, src, dst in jobs:
            for req, answer in zip(share, json.loads(dst.read_text())):
                self.expected[req] = answer
            src.unlink()
            dst.unlink()


def _worker_env() -> dict:
    env = dict(os.environ)
    paths = (str(_ROOT), str(_ROOT / "src"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return env


def _answer(rows: list[list]) -> list:
    """Numpy-engine answers for ``[op, a, b, mode, gap_open, gap_extend]``
    rows, in order; requests sharing op and knobs go in one batch call."""
    groups: dict[tuple, list[int]] = defaultdict(list)
    for k, (op, _a, _b, mode, gap_open, gap_extend) in enumerate(rows):
        groups[(op, mode, gap_open, gap_extend)].append(k)
    out: list = [None] * len(rows)
    with AlignmentEngine(backend="numpy") as engine:
        for (op, mode, gap_open, gap_extend), idxs in groups.items():
            for lo in range(0, len(idxs), _BATCH):
                part = idxs[lo:lo + _BATCH]
                pairs = [(rows[k][1], rows[k][2]) for k in part]
                knobs = {"mode": mode, "gap_open": gap_open, "gap_extend": gap_extend}
                if op == "score":
                    values = [float(v) for v in engine.score_many(pairs, **knobs)]
                else:
                    values = [alignment_to_dict(x) for x in engine.align_many(pairs, **knobs)]
                for k, value in zip(part, values):
                    out[k] = value
    return out


if __name__ == "__main__":
    src, dst = sys.argv[1], sys.argv[2]
    rows = json.loads(Path(src).read_text())
    Path(dst).write_text(json.dumps(_answer(rows)))
