"""Multiprocessing backend: NumPy batch kernels fanned over a pool.

Uniform-shape batches are split into contiguous chunks, one task per
chunk, executed by worker processes running the same vectorized
kernels as the ``numpy`` backend — so results are bit-identical, only
the schedule changes.  The pool is created lazily and kept alive for
the backend's lifetime (``close()`` releases it), and single very long
linear-gap global scores are routed through the blocked-wavefront DP
on the same pool instead of being computed serially.  All four engine
modes (``global``/``local``/``overlap``/``banded``), affine gaps and
the ``memory`` traceback knob fan out the same way.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
import os

import numpy as np

from fragalign.align.pairwise import Alignment
from fragalign.align.scoring_matrices import SubstitutionModel
from fragalign.align.wavefront import nw_score_wavefront
from fragalign.engine.backends import AlignmentBackend, NumpyBackend, PreparedPair
from fragalign.job import JobSpec

__all__ = ["ParallelBackend"]

_KERNELS = NumpyBackend()


def _run_chunk(args):
    codes, model, spec, chunk, kind = args
    return _KERNELS._run(codes, model, spec, chunk, kind)


class ParallelBackend(AlignmentBackend):
    """Process-pool execution of the NumPy kernels.

    ``workers`` defaults to the host's CPU count (capped at 8 — DP is
    memory-bandwidth-bound well before that on most hosts);
    ``min_batch`` is the batch size below which fan-out overhead beats
    the win and work runs in-process; ``wavefront_min`` is the single
    -pair length above which a linear-gap global score uses the
    blocked wavefront DP across the pool.
    """

    name = "parallel"

    def __init__(
        self,
        workers: int | None = None,
        chunk: int = 64,
        min_batch: int = 16,
        wavefront_min: int = 4096,
    ) -> None:
        self.workers = workers or min(8, os.cpu_count() or 2)
        self.chunk = chunk
        self.min_batch = min_batch
        self.wavefront_min = wavefront_min
        self._local = NumpyBackend(chunk=chunk)
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _chunks(self, count: int) -> list[tuple[int, int]]:
        per = max(1, -(-count // self.workers))
        return [(lo, min(lo + per, count)) for lo in range(0, count, per)]

    def score(self, p: PreparedPair, model: SubstitutionModel, spec: JobSpec) -> float:
        n, m = p.shape
        if spec.mode == "global" and spec.gap_open is None and min(n, m) >= self.wavefront_min:
            block = max(256, n // self.workers)
            return nw_score_wavefront(
                p.a, p.b, model, block=block, pool=self._ensure_pool()
            )
        return self._local.score(p, model, spec)

    def align(self, p: PreparedPair, model: SubstitutionModel, spec: JobSpec) -> Alignment:
        return self._local.align(p, model, spec)

    def _fan_out(self, batch, model, spec, kind: str) -> list:
        if len(batch) < self.min_batch:
            run = self._local.score_many if kind == "score" else self._local.align_many
            return [run(batch, model, spec)]
        codes = [(p.a_codes, p.b_codes) for p in batch]
        tasks = [
            (codes[lo:hi], model, spec, self.chunk, kind)
            for lo, hi in self._chunks(len(batch))
        ]
        return list(self._ensure_pool().map(_run_chunk, tasks))

    def score_many(self, batch, model, spec) -> np.ndarray:
        return np.concatenate(self._fan_out(batch, model, spec, "score"))

    def align_many(self, batch, model, spec) -> list[Alignment]:
        return [aln for part in self._fan_out(batch, model, spec, "align") for aln in part]
