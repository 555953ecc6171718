"""Deadline arithmetic shared by the server, batcher, and router.

A deadline travels on the wire as ``deadline_ms`` — the *remaining*
budget in milliseconds, gRPC-style.  Relative budgets survive
cross-process hops without synchronized clocks: each tier converts the
budget to an absolute ``time.monotonic()`` instant on receipt, spends
from it locally, and forwards whatever is left.  The cost is that
transit time between tiers is invisible to the receiver — the sender's
own timeout (the router's per-attempt ``wait_for``) covers that gap.

Deadlines are **non-semantic**: ``deadline_ms`` is registered in
:mod:`fragalign.job` with every participation flag off, so
the knob-propagation analyzer proves it can never split a batch or
enter a cache/ring key.
"""

from __future__ import annotations

import time

__all__ = ["deadline_from_budget_ms", "remaining_ms", "expired"]


def deadline_from_budget_ms(budget_ms: float | None, now: float | None = None) -> float | None:
    """Absolute ``time.monotonic()`` deadline for a remaining budget."""
    if budget_ms is None:
        return None
    if now is None:
        now = time.monotonic()
    return now + budget_ms / 1000.0


def remaining_ms(deadline: float | None, now: float | None = None) -> float | None:
    """Milliseconds left until an absolute deadline (negative if past)."""
    if deadline is None:
        return None
    if now is None:
        now = time.monotonic()
    return (deadline - now) * 1000.0


def expired(deadline: float | None, now: float | None = None) -> bool:
    """Whether an absolute deadline has passed (``None`` never expires)."""
    if deadline is None:
        return False
    if now is None:
        now = time.monotonic()
    return now >= deadline
