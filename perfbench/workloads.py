"""The benchmark's workloads and their deterministic request streams.

Every request a run sends comes from :class:`RequestSource`, built
from the workload name and the ``--seed``; the program under test only
ever receives the generated requests.  Each phase of a run draws from
its own named stream, so the same seed gives the same requests in
every phase however many requests an earlier phase consumed.

``reads-score``
    The pyrosequencing shape (*Multiple Sequence Alignment System for
    Pyrosequencing Reads*): ``score`` only, ``global``/``overlap``
    alternating, both lengths ~N(128, 28) clipped at 16.  Every pair is
    distinct, so the result cache and the encode memo stay cold.
``fragments-align``
    The torn-paper shape (*Improved Torn Paper Coding via Local
    Alignment*): half ``align``, half ``score``; modes ``global``/
    ``local``/``overlap`` round-robin; one request in five affine
    (-3/-1); each length uniform in [32, 384); all distinct.
``cluster-repeat``
    ``score`` only on uniform 128-bp pairs; half the requests are
    Zipf(1.2) draws from a 4000-pair hot pool, half fresh pairs.  Set-up
    replays the hot pool once, so every hot draw is a repeat.

``BENCHMARK.json`` gates fragments-align and cluster-repeat only: on a
shared 2-vCPU host, reads-score's open-loop p99 spread over ten seeds
(0.3-0.8 of its median) stayed above the largest bound a metric may
have.  It still runs, traced or not, for manual comparisons.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "Request",
    "Workload",
    "WORKLOADS",
    "RequestSource",
    "HOT_POOL",
    "random_pairs",
    "read_lengths",
]

_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)
_CHUNK = 512  # requests generated per vectorised step
HOT_POOL = 4000  # cluster-repeat's hot pool size
_ZIPF_S = 1.2
_AFFINE = (-3.0, -1.0)  # gap_open, gap_extend of fragments-align's affine share


class Request(NamedTuple):
    """One pair request as the client sends it (hashable: it is also
    the answer checker's memo key)."""

    op: str
    a: str
    b: str
    mode: str
    gap_open: float | None = None
    gap_extend: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cluster: bool  # 2-shard ClusterSupervisor + ShardRouter, else one `serve`
    backend: str  # engine backend of the server(s)
    # open-loop rate in req/s: 35-45 % of the closed-loop capacity on a 2-CPU host
    open_rate: float
    warmup: int  # requests sent during each set-up, after the server is ready
    closed_guess: float  # rough closed-loop req/s; sizes the pre-generated feed only


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "reads-score",
            "pyrosequencing-read shape: distinct ~128 bp score pairs, so wire, "
            "server bookkeeping, batcher and encode dominate the native kernel",
            cluster=False, backend="native", open_rate=600.0, warmup=512,
            closed_guess=1600.0,
        ),
        Workload(
            "fragments-align",
            "torn-paper fragment shape: distinct 32-384 bp align/score pairs in "
            "three modes, so kernels, traceback and shape bucketing dominate",
            cluster=False, backend="numpy", open_rate=60.0, warmup=64,
            closed_guess=140.0,
        ),
        Workload(
            "cluster-repeat",
            "2-shard cluster behind the router; half Zipf repeats from a hot pool, "
            "so result cache and warm encode memo are used",
            cluster=True, backend="native", open_rate=1500.0, warmup=HOT_POOL,
            closed_guess=4600.0,
        ),
    )
}


def _rng(seed: int, *names: str) -> np.random.Generator:
    return np.random.default_rng([seed, *(zlib.crc32(n.encode()) for n in names)])


def _sequences(rng: np.random.Generator, lengths: np.ndarray) -> list[str]:
    """Uniform random ACGT strings of the given lengths."""
    text = _BASES[rng.integers(0, 4, int(lengths.sum()))].tobytes().decode("ascii")
    out, pos = [], 0
    for n in lengths.tolist():
        out.append(text[pos:pos + n])
        pos += n
    return out


def read_lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` read lengths ~N(128, 28), rounded, clipped at 16."""
    return np.maximum(np.rint(rng.normal(128, 28, n)), 16).astype(np.int64)


def random_pairs(rng: np.random.Generator, lengths: np.ndarray) -> list[tuple[str, str]]:
    """Pairs of random sequences; ``lengths`` holds 2 entries per pair."""
    seqs = _sequences(rng, lengths)
    return list(zip(seqs[0::2], seqs[1::2]))


def _zipf_weights(n: int, s: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=float) ** -s
    return w / w.sum()


class RequestSource:
    """Every request stream of one run of one workload, made from its seed.

    Streams are infinite; :meth:`take` and :meth:`feed` cut them.  The
    distinct workloads filter out any pair already issued by this
    source in *any* phase, so no pair repeats within a run.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self._seen: set[tuple[str, str]] = set()
        self.hot_pool: list[tuple[str, str]] = []
        if self.workload.name == "cluster-repeat":
            rng = _rng(seed, workload, "hot-pool")
            self.hot_pool = random_pairs(rng, np.full(2 * HOT_POOL, 128))
            self._zipf = _zipf_weights(HOT_POOL, _ZIPF_S)

    def warmup(self, boot: int) -> list[Request]:
        """The requests set-up number ``boot`` sends once the server is
        ready: one replay of the hot pool for cluster-repeat, else fresh
        pairs."""
        if self.workload.name == "cluster-repeat":
            return [Request("score", a, b, "global") for a, b in self.hot_pool]
        return self.take(f"warmup-{boot}", self.workload.warmup)

    def stream(self, phase: str) -> Iterator[Request]:
        rng = _rng(self.seed, self.workload.name, phase)
        chunk = {
            "reads-score": self._read_pairs,
            "fragments-align": self._fragment_pairs,
            "cluster-repeat": self._repeat_pairs,
        }[self.workload.name]
        distinct = self.workload.name != "cluster-repeat"
        index = 0
        while True:
            for a, b in chunk(rng):
                if distinct:
                    if (a, b) in self._seen:
                        continue
                    self._seen.add((a, b))
                yield self._request(index, a, b)
                index += 1

    def take(self, phase: str, n: int) -> list[Request]:
        return list(islice(self.stream(phase), n))

    def feed(self, phase: str, prefetch: int) -> Iterator[Request]:
        """A phase stream whose first ``prefetch`` requests are generated
        up front, so generating them costs nothing inside the timing."""
        stream = self.stream(phase)
        return chain(list(islice(stream, prefetch)), stream)

    # -- per-workload traffic ---------------------------------------------

    def _request(self, i: int, a: str, b: str) -> Request:
        """The op and knobs a workload gives the i-th pair of a stream."""
        name = self.workload.name
        if name == "reads-score":
            return Request("score", a, b, _READS_MODES[i % 2])
        if name == "fragments-align":
            gaps = _AFFINE if i % 5 == 4 else (None, None)
            return Request(_FRAGMENT_OPS[i % 2], a, b, _FRAGMENT_MODES[i % 3], *gaps)
        return Request("score", a, b, "global")

    def _read_pairs(self, rng: np.random.Generator) -> list[tuple[str, str]]:
        return random_pairs(rng, read_lengths(rng, 2 * _CHUNK))

    def _fragment_pairs(self, rng: np.random.Generator) -> list[tuple[str, str]]:
        return random_pairs(rng, rng.integers(32, 384, 2 * _CHUNK))

    def _repeat_pairs(self, rng: np.random.Generator) -> list[tuple[str, str]]:
        hot = rng.random(_CHUNK) < 0.5
        picks = rng.choice(HOT_POOL, size=_CHUNK, p=self._zipf)
        fresh = random_pairs(rng, np.full(2 * _CHUNK, 128))
        return [self.hot_pool[picks[k]] if hot[k] else fresh[k] for k in range(_CHUNK)]


_READS_MODES = ("global", "overlap")
_FRAGMENT_OPS = ("align", "score")
_FRAGMENT_MODES = ("global", "local", "overlap")
