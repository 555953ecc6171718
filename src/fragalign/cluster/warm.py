"""Cluster cache warming: replay a keyset file into the owning shards.

A *keyset* is the serving tier's notion of "traffic worth being hot
for": one JSON object per line, each naming a request —

    {"op": "score", "a": "ACGT...", "b": "AGGT...", "mode": "global"}

Replaying the keyset **through the router** sends every entry to the
shard that owns its key on the consistent ring, so each shard's LRU
result cache fills with exactly (and only) its partition — after a
warm pass, live traffic over the keyset hits N disjoint caches whose
aggregate capacity is N times one instance's.  Entries that fail
(e.g. a shard briefly down) are counted, not fatal: warming is an
optimization, never a correctness gate.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

import asyncio

from fragalign.job import JobSpec, pair_job

__all__ = [
    "load_keyset",
    "dump_keyset",
    "generate_keyset",
    "warm_router",
]


def _normalize(entry: dict) -> dict:
    # The knobs validate as one JobSpec: a keyset written today
    # round-trips every knob the serving stack understands, per-op.
    op, a, b, spec = pair_job({"op": "score", **entry})
    return {"op": op, "a": a, "b": b, **spec.wire()}


def load_keyset(path: str | Path) -> list[dict]:
    """Read a JSON-lines keyset file (blank lines ignored)."""
    entries = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entries.append(_normalize(json.loads(line)))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: bad keyset entry: {exc}") from exc
    return entries


def dump_keyset(path: str | Path, entries: Iterable[dict]) -> int:
    """Write entries as JSON lines; return how many were written."""
    normalized = [_normalize(e) for e in entries]
    with open(path, "w") as fh:
        for entry in normalized:
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
    return len(normalized)


def generate_keyset(
    n: int, length: int = 128, seed: int = 2026, op: str = "score", **knobs
) -> list[dict]:
    """A synthetic keyset of ``n`` random DNA pairs (benchmarks, CI),
    each an ``op`` request carrying the job knobs given as keywords
    (validated as :meth:`JobSpec.of <fragalign.job.JobSpec.of>`)."""
    import numpy as np

    from fragalign.genome.dna import random_dna

    gen = np.random.default_rng(seed)
    fields = JobSpec.of(op, **knobs).wire()
    return [
        {"op": op, "a": random_dna(length, gen), "b": random_dna(length, gen), **fields}
        for _ in range(n)
    ]


async def warm_router(router, entries: Sequence[dict], concurrency: int = 32) -> dict:
    """Replay ``entries`` through ``router``; return the warm report.

    The report counts entries warmed per owning shard plus failures:
    ``{"warmed": int, "errors": int, "per_shard": {shard: n},
    "error_samples": [str, ...]}``.  An entry the wire would refuse
    fails the whole warm before any entry is sent.
    """
    jobs = [pair_job(entry) for entry in entries]
    semaphore = asyncio.Semaphore(max(1, concurrency))
    per_shard: Counter[str] = Counter()
    errors = 0
    samples: list[str] = []

    async def one(op: str, a: str, b: str, spec: JobSpec) -> None:
        nonlocal errors
        async with semaphore:
            try:
                await router.request(op, a, b, spec)
            except Exception as exc:
                errors += 1
                if len(samples) < 5:
                    samples.append(f"{type(exc).__name__}: {exc}")
                return
        per_shard[router.ring.node_for(spec.ring_key(op, a, b))] += 1

    await asyncio.gather(*(one(*job) for job in jobs))
    return {
        "entries": len(entries),
        "warmed": int(sum(per_shard.values())),
        "errors": errors,
        "per_shard": dict(per_shard),
        "error_samples": samples,
    }
