"""A small bounded LRU mapping with hit/miss/eviction counters.

This is *the* cache primitive of the system: the engine facade's
sequence-encode memo, the service layer's result cache, and the
cluster tier's warmers are all instances of :class:`LRUCache`, so
every bounded cache evicts the same way (least-recently-used) and
reports the same stats shape.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Bounded least-recently-used mapping with observability counters.

    ``get`` promotes the entry to most-recently-used and counts a hit
    or a miss; ``put`` inserts (or refreshes) and evicts the least
    recently used entry once ``maxsize`` is exceeded.  ``maxsize <= 0``
    disables storage entirely — every lookup misses, every ``put`` is
    a no-op — so callers can switch caching off without branching.

    Thread-safe: every operation (lookup, insert, eviction, counter
    update) holds one internal lock, because the same instance is now
    shared across threads — the engine's encode memo is touched from
    the batcher worker thread (and from the event loop for the bounded
    groups the batcher runs there), the service result cache from the
    event loop, and cluster cache warmers replay keysets from their own
    threads.  The lock is held only for O(1) OrderedDict work, never
    while computing values.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = int(maxsize)
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- mapping operations ------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        # Peek: neither promotes nor counts as a hit/miss.
        with self._lock:
            return key in self._data

    def keys(self) -> list:
        """Current keys in eviction order (least → most recently used)."""
        with self._lock:
            return list(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    # -- observability -----------------------------------------------

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
            }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LRUCache(size={len(self._data)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )
