"""Cost-aware admission control for the alignment server.

A plain inflight-request *count* limit is useless for this workload:
one 32k x 32k alignment costs as much as a million 32 x 32 scores, so a
count limit either rejects harmless small traffic or lets a handful of
giants wedge the compute thread for minutes.  Admission is therefore
accounted in **estimated DP cells** — the unit the engine's own
benchmarks use — with an optional job-count bound on top.

When the cell load crosses ``degrade_watermark`` the controller reports
*degraded mode* (with hysteresis: it disengages only at or below
``recover_watermark``, 2/3 of the degrade watermark — 0.5 at the
default 0.75); the server maps that to its configured
degradation policy (answer ``align`` with ``score``).  Rejections
raise :class:`~fragalign.util.errors.Overloaded` — retryable, because
a different replica may have capacity.
"""

from __future__ import annotations

from fragalign.job import JobSpec
from fragalign.util.errors import Overloaded

__all__ = ["estimate_cost", "AdmissionController"]


def estimate_cost(op: str, a: str, b: str, spec: JobSpec | None = None) -> int:
    """Estimated DP cells for one pair op (the admission currency).

    A banded ``spec`` touches about ``(2*band + 1) * max(n, m)`` cells;
    every other job fills the full ``n * m`` table.  ``align`` costs
    twice a ``score`` (the traceback pass re-walks the table).
    """
    n, m = len(a), len(b)
    if spec is not None and spec.mode == "banded" and spec.band is not None:
        cells = min(n * m, (2 * spec.band + 1) * max(n, m))
    else:
        cells = n * m
    if op == "align":
        cells *= 2
    return max(int(cells), 1)


class AdmissionController:
    """Bounded inflight compute with cost accounting and degrade state.

    ``max_cells == 0`` and ``max_jobs == 0`` disable the respective
    bound (the defaults — admission is opt-in).  A job larger than
    ``max_cells`` is still admitted when nothing else is inflight, so a
    legitimate oversized request can always make progress somewhere
    instead of being shed by every replica forever.
    """

    def __init__(self, max_cells: int = 0, max_jobs: int = 0,
                 degrade_watermark: float = 0.75) -> None:
        if max_cells < 0 or max_jobs < 0:
            raise ValueError("admission bounds must be >= 0 (0 disables)")
        if not degrade_watermark > 0:
            raise ValueError(f"degrade_watermark must be > 0, got {degrade_watermark!r}")
        self.max_cells = int(max_cells)
        self.max_jobs = int(max_jobs)
        self.degrade_watermark = float(degrade_watermark)
        self.recover_watermark = self.degrade_watermark * 2 / 3
        self.inflight_cells = 0
        self.inflight_jobs = 0
        self.admitted_total = 0
        self.shed_total = 0
        self._degraded = False

    @property
    def enabled(self) -> bool:
        return self.max_cells > 0 or self.max_jobs > 0

    @property
    def degraded(self) -> bool:
        """Whether load is past the watermark (with hysteresis)."""
        return self._degraded

    def load(self) -> float:
        """Cell load as a fraction of capacity (0.0 when unbounded)."""
        if self.max_cells <= 0:
            return 0.0
        return self.inflight_cells / self.max_cells

    def try_admit(self, cells: int) -> None:
        """Account one job in, or raise :class:`Overloaded` (a shed)."""
        cells = max(int(cells), 1)
        if self.max_jobs and self.inflight_jobs >= self.max_jobs:
            self.shed_total += 1
            raise Overloaded(
                f"server at job capacity ({self.inflight_jobs}/{self.max_jobs} inflight)"
            )
        if (
            self.max_cells
            and self.inflight_jobs > 0  # always admit one job: progress guarantee
            and self.inflight_cells + cells > self.max_cells
        ):
            self.shed_total += 1
            raise Overloaded(
                f"server at compute capacity ({self.inflight_cells} cells inflight, "
                f"job of {cells} would exceed {self.max_cells})"
            )
        self.inflight_cells += cells
        self.inflight_jobs += 1
        self.admitted_total += 1
        self._update_degraded()

    def release(self, cells: int) -> None:
        """Account one previously admitted job out."""
        self.inflight_cells = max(0, self.inflight_cells - max(int(cells), 1))
        self.inflight_jobs = max(0, self.inflight_jobs - 1)
        self._update_degraded()

    def _update_degraded(self) -> None:
        if self.max_cells <= 0:
            self._degraded = False
            return
        load = self.load()
        if self._degraded:
            if load <= self.recover_watermark:
                self._degraded = False
        elif load >= self.degrade_watermark:
            self._degraded = True

    def snapshot(self) -> dict:
        """Additive stats block (see ``ServiceStats.snapshot``)."""
        return {
            "enabled": self.enabled,
            "max_cells": self.max_cells,
            "max_jobs": self.max_jobs,
            "inflight_cells": self.inflight_cells,
            "inflight_jobs": self.inflight_jobs,
            "admitted": self.admitted_total,
            "shed": self.shed_total,
            "load": round(self.load(), 4),
            "degraded": self._degraded,
        }
