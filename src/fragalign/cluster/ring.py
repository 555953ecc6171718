"""Consistent-hash ring with virtual nodes.

The cluster tier partitions the request keyspace over N shards so
that (a) the same request always lands on the same shard — which is
what makes the per-shard LRU result caches *disjoint* and lets their
aggregate hit rate scale with N instead of N caches duplicating each
other — and (b) adding or removing one shard remaps only ~1/N of the
keyspace instead of reshuffling everything (the classic consistent
hashing property; each shard contributes ``vnodes`` points on the
ring so the slices it owns are many and small, keeping the partition
balanced).

The ring is deliberately dumb about *what* keys are: it maps strings
to node names.  :class:`~fragalign.cluster.router.ShardRouter` keys
each request with :meth:`fragalign.job.JobSpec.ring_key`, built from
the same registry fields the service result cache keys on, so routing
and per-shard caching always agree.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter
from typing import Iterable, Sequence

from fragalign.job import ring_key

__all__ = ["HashRing", "ring_key"]


def _hash64(data: str) -> int:
    """Stable 64-bit hash (first 8 bytes of SHA-1): identical across
    processes and Python runs, unlike builtin ``hash``."""
    return int.from_bytes(hashlib.sha1(data.encode()).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring mapping string keys to node names.

    Each node owns ``vnodes`` pseudo-random points on a 64-bit ring; a
    key belongs to the node owning the first point at or clockwise
    after the key's hash.  Determinism: the mapping is a pure function
    of (node names, ``vnodes``) — two processes that build rings from
    the same membership agree on every key.
    """

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 96) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        self._points: list[tuple[int, str]] = []  # sorted (hash, node)
        self._nodes: set[str] = set()
        for node in nodes:
            self.add_node(node)

    # -- membership ---------------------------------------------------

    def add_node(self, node: str) -> None:
        """Insert ``node``'s virtual points (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for v in range(self.vnodes):
            bisect.insort(self._points, (_hash64(f"{node}#{v}"), node))

    def remove_node(self, node: str) -> None:
        """Drop ``node`` from the ring (idempotent).  Keys it owned
        fall to their clockwise successors; everything else is
        untouched — the ≤ ~1/N remap guarantee."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [p for p in self._points if p[1] != node]

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # -- lookup -------------------------------------------------------

    def _first_index(self, key: str) -> int:
        if not self._points:
            raise LookupError("hash ring is empty (no live nodes)")
        idx = bisect.bisect_right(self._points, (_hash64(key), "￿"))
        return idx % len(self._points)

    def node_for(self, key: str) -> str:
        """The owning node for ``key``."""
        return self._points[self._first_index(key)][1]

    def nodes_for(self, key: str, count: int) -> list[str]:
        """Up to ``count`` distinct nodes in clockwise ring order from
        ``key`` — the owner first, then the failover replicas a router
        should try next."""
        if count <= 0:
            return []
        start = self._first_index(key)
        found: list[str] = []
        seen: set[str] = set()
        n_points = len(self._points)
        for step in range(n_points):
            node = self._points[(start + step) % n_points][1]
            if node not in seen:
                seen.add(node)
                found.append(node)
                if len(found) >= min(count, len(self._nodes)):
                    break
        return found

    # -- observability ------------------------------------------------

    def spread(self, keys: Sequence[str]) -> Counter:
        """How ``keys`` distribute over nodes (balance diagnostics)."""
        return Counter(self.node_for(k) for k in keys)
