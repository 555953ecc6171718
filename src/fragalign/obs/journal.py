"""Workload flight recorder: journal real traffic, replay it later.

The journal is an opt-in (``--journal PATH``) JSON-lines file the
server appends one sanitized record per pair request to.  Sanitized
means **no sequence content by default**: a record carries the knobs
from the shared field registry (:data:`fragalign.job.KEYSET_FIELDS` —
the journal schema extends automatically when a knob is registered),
the sequences' lengths and short content hashes, the
outcome, the disposition (cache hit / coalesced / computed /
degraded), and timings.  ``--journal-sequences`` opts the raw
sequences in for trusted environments.

Hashes are enough to *replay* the workload faithfully: replay
synthesizes a deterministic sequence from each content hash (same hash
-> same synthetic sequence), so the dedup/cache structure of the
recorded traffic — which requests repeat, which coalesce, which
collide in the LRU — survives even though the letters differ.  That
structure is what capacity questions ("would a bigger cache have
helped?", "does the new build hold the recorded p99?") actually
depend on.

The file is bounded by segment rotation: when the active segment
exceeds ``max_bytes`` it shifts to ``PATH.1`` (existing ``PATH.1`` to
``PATH.2`` and so on), and the oldest segment beyond ``segments``
falls off.  :func:`read_journal` reads segments oldest-first so
replay sees the original arrival order.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time

from fragalign.job import KEYSET_FIELDS

__all__ = [
    "JournalWriter",
    "build_record",
    "read_journal",
    "synth_sequence",
    "replay_journal",
    "diff_report",
    "format_diff_report",
]

_HASH_LEN = 12  # hex chars; collisions across one journal are ~impossible
_ALPHABET = "ACGT"


def _content_hash(seq: str) -> str:
    return hashlib.sha1(seq.encode()).hexdigest()[:_HASH_LEN]


def build_record(
    op: str,
    a: str,
    b: str,
    knobs: dict,
    *,
    ok: bool,
    code: str | None = None,
    cached: bool | None = None,
    disposition: str | None = None,
    degraded: bool | None = None,
    duration_s: float = 0.0,
    deadline_ms: float | None = None,
    include_sequences: bool = False,
    ts: float | None = None,
) -> dict:
    """One journal record.  ``knobs`` maps registry keyset fields;
    ``None`` values (engine defaults) are elided to keep lines short."""
    record = {
        "ts": time.time() if ts is None else ts,
        "op": op,
        "a_len": len(a),
        "b_len": len(b),
        "a_sha": _content_hash(a),
        "b_sha": _content_hash(b),
        "ok": ok,
        "duration_ms": round(duration_s * 1e3, 3),
    }
    for name in KEYSET_FIELDS:
        value = knobs.get(name)
        if value is not None:
            record[name] = value
    if code is not None:
        record["code"] = code
    if cached is not None:
        record["cached"] = cached
    if disposition is not None:
        record["disposition"] = disposition
    if degraded:
        record["degraded"] = True
    if deadline_ms is not None:
        record["deadline_ms"] = deadline_ms
    if include_sequences:
        record["a"] = a
        record["b"] = b
    return record


class JournalWriter:
    """Append-only, segment-rotated JSON-lines journal.

    Thread-safe; ``write`` never raises on a full/failed disk — the
    flight recorder must not take down the flight.  Write failures
    flip ``self.failed`` and subsequent writes no-op.
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = 64 * 1024 * 1024,
        segments: int = 4,
    ) -> None:
        if segments < 1:
            raise ValueError("segments must be >= 1")
        self.path = path
        self.max_bytes = max_bytes
        self.segments = segments
        self.failed = False
        self.written = 0
        self._lock = threading.Lock()
        self._fh = None

    def write(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            if self.failed:
                return
            try:
                if self._fh is None:
                    self._fh = open(self.path, "a", encoding="utf-8")
                if self._fh.tell() + len(line) > self.max_bytes:
                    self._rotate()
                self._fh.write(line)
                self._fh.flush()
                self.written += 1
            except OSError:
                self.failed = True

    def _rotate(self) -> None:
        # Caller holds the lock.  Shift PATH.(n-1) -> PATH.n downward,
        # then PATH -> PATH.1; the segment past the cap falls off.
        self._fh.close()
        self._fh = None
        oldest = f"{self.path}.{self.segments - 1}"
        if self.segments > 1 and os.path.exists(oldest):
            os.remove(oldest)
        for n in range(self.segments - 1, 1, -1):
            src = f"{self.path}.{n - 1}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{n}")
        if self.segments > 1:
            os.replace(self.path, f"{self.path}.1")
        else:
            os.remove(self.path)
        self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def read_journal(path: str) -> list[dict]:
    """All records across rotation segments, oldest first.  Torn final
    lines (a crash mid-write) are skipped, not fatal."""
    paths = []
    n = 1
    while os.path.exists(f"{path}.{n}"):
        paths.append(f"{path}.{n}")
        n += 1
    paths.reverse()  # highest suffix = oldest
    if os.path.exists(path):
        paths.append(path)
    records = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue
    return records


def synth_sequence(sha: str, length: int) -> str:
    """A deterministic sequence for a recorded content hash.

    Same (hash, length) -> same letters, so replayed traffic repeats
    and dedups exactly where the recorded traffic did; different
    hashes diverge immediately.  Entropy here is *derived from the
    record*, not fresh — replay is reproducible run to run.
    """
    rng = random.Random(int(sha, 16) ^ length)
    return "".join(rng.choice(_ALPHABET) for _ in range(length))


def _record_pair(record: dict) -> tuple[str, str]:
    if "a" in record and "b" in record:
        return record["a"], record["b"]
    return (
        synth_sequence(record["a_sha"], record["a_len"]),
        synth_sequence(record["b_sha"], record["b_len"]),
    )


def replay_journal(
    records: list[dict],
    send,
    speed: float = 1.0,
    max_gap_s: float = 1.0,
) -> list[dict]:
    """Re-drive a journal through ``send`` and measure each request.

    ``send(op, a, b, knobs)`` runs one request against whatever target
    the caller wired (live server client or local engine) and returns
    ``(ok, cached)``.  Inter-arrival gaps from the recorded ``ts``
    stream are preserved scaled by ``1/speed`` and capped at
    ``max_gap_s`` (``speed=0`` disables pacing entirely — "as fast as
    possible" compression).  Returns one result dict per record with
    the replayed ``ok``/``cached``/``duration_ms``.
    """
    results = []
    prev_ts = None
    for record in records:
        if record.get("op") not in ("score", "align"):
            continue
        ts = record.get("ts")
        if speed > 0 and prev_ts is not None and ts is not None:
            gap = (ts - prev_ts) / speed
            if gap > 0:
                time.sleep(min(gap, max_gap_s))
        prev_ts = ts
        a, b = _record_pair(record)
        knobs = {name: record[name] for name in KEYSET_FIELDS if name in record}
        start = time.perf_counter()
        try:
            ok, cached = send(record["op"], a, b, knobs)
        except Exception as exc:
            ok, cached = False, None
            results.append(
                {
                    "op": record["op"],
                    "ok": False,
                    "cached": None,
                    "duration_ms": (time.perf_counter() - start) * 1e3,
                    "error": str(exc),
                }
            )
            continue
        results.append(
            {
                "op": record["op"],
                "ok": bool(ok),
                "cached": cached,
                "duration_ms": (time.perf_counter() - start) * 1e3,
            }
        )
    return results


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _run_stats(rows: list[dict]) -> dict:
    pair_rows = [r for r in rows if r.get("op") in ("score", "align")]
    n = len(pair_rows)
    ok = sum(1 for r in pair_rows if r.get("ok"))
    with_cache = [r for r in pair_rows if r.get("cached") is not None]
    # Answered without compute: a hit, or a twin that joined its job.
    hits = sum(1 for r in with_cache if r.get("cached") or r.get("disposition") == "coalesced")
    lat = sorted(r.get("duration_ms", 0.0) for r in pair_rows)
    return {
        "requests": n,
        "ok": ok,
        "ok_rate": (ok / n) if n else 0.0,
        "hit_rate": (hits / len(with_cache)) if with_cache else 0.0,
        "cache_known": len(with_cache),
        "p50_ms": _quantile(lat, 0.50),
        "p95_ms": _quantile(lat, 0.95),
        "p99_ms": _quantile(lat, 0.99),
    }


def diff_report(recorded: list[dict], replayed: list[dict]) -> dict:
    """Recorded-vs-replayed workload comparison (the acceptance check:
    hit-rate within a few points, latency deltas surfaced)."""
    rec = _run_stats(recorded)
    rep = _run_stats(replayed)
    return {
        "recorded": rec,
        "replayed": rep,
        "hit_rate_delta": rep["hit_rate"] - rec["hit_rate"],
        "ok_rate_delta": rep["ok_rate"] - rec["ok_rate"],
        "p50_delta_ms": rep["p50_ms"] - rec["p50_ms"],
        "p99_delta_ms": rep["p99_ms"] - rec["p99_ms"],
    }


def format_diff_report(diff: dict) -> str:
    rec, rep = diff["recorded"], diff["replayed"]
    rows = [
        ("requests", f"{rec['requests']}", f"{rep['requests']}", ""),
        (
            "ok rate",
            f"{100 * rec['ok_rate']:.1f}%",
            f"{100 * rep['ok_rate']:.1f}%",
            f"{100 * diff['ok_rate_delta']:+.1f}pt",
        ),
        (
            "cache hit rate",
            f"{100 * rec['hit_rate']:.1f}%",
            f"{100 * rep['hit_rate']:.1f}%",
            f"{100 * diff['hit_rate_delta']:+.1f}pt",
        ),
        (
            "p50 latency",
            f"{rec['p50_ms']:.2f}ms",
            f"{rep['p50_ms']:.2f}ms",
            f"{diff['p50_delta_ms']:+.2f}ms",
        ),
        (
            "p95 latency",
            f"{rec['p95_ms']:.2f}ms",
            f"{rep['p95_ms']:.2f}ms",
            "",
        ),
        (
            "p99 latency",
            f"{rec['p99_ms']:.2f}ms",
            f"{rep['p99_ms']:.2f}ms",
            f"{diff['p99_delta_ms']:+.2f}ms",
        ),
    ]
    header = f"{'metric':<16} {'recorded':>10} {'replayed':>10} {'delta':>10}"
    lines = [header, "-" * len(header)]
    for name, a, b, d in rows:
        lines.append(f"{name:<16} {a:>10} {b:>10} {d:>10}")
    return "\n".join(lines) + "\n"
