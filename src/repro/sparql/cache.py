"""The one epoch-checked LRU under ``endpoint.PlanCache``,
``endpoint.ResultCache`` and ``plan.QueryPlan``."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

__all__ = ["EpochLRU"]


class EpochLRU:
    """An LRU whose entries are only as good as the epoch they were stored at.

    A lookup at any other epoch first asks the optional ``revalidate`` hook,
    ``revalidate(value, stored_epoch, epoch)``: when it vouches that nothing
    the value depends on changed since, the entry is re-stamped and the
    lookup counts as a hit (and as ``revalidated``).  Otherwise it counts as
    an *invalidation*: a ``restamp`` cache keeps the entry and re-stamps it
    (what is left is still worth having), any other drops it.  Size is
    bounded by entry count and, when ``max_bytes`` is given, by the sum of
    the sizes passed to :meth:`put`.  One lock covers the LRU order and
    every counter: lookups and stores from serving threads interleave, and
    ``move_to_end`` and ``hits += 1`` are read-modify-write.
    """

    def __init__(self, maxsize: int, max_bytes: Optional[int] = None,
                 restamp: bool = False,
                 revalidate: Optional[Callable[[object, object, object], bool]] = None
                 ) -> None:
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self.restamp = restamp
        self.revalidate = revalidate
        self._entries: "OrderedDict[Tuple, list]" = OrderedDict()
        self._lock = threading.RLock()
        self.total_bytes = 0
        self.reset_counters()

    def get(self, key: Tuple, epoch) -> Tuple[object, bool]:
        """``(value, fresh)``; the value is None on a miss or a dropped entry."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None, False
            if entry[0] == epoch:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[1], True
            if self.revalidate is not None and self.revalidate(
                    entry[1], entry[0], epoch):
                self._entries.move_to_end(key)
                entry[0] = epoch
                self.hits += 1
                self.revalidated += 1
                return entry[1], True
            self.invalidations += 1
            if self.restamp:
                self._entries.move_to_end(key)
                entry[0] = epoch
                return entry[1], False
            del self._entries[key]
            self.total_bytes -= entry[2]
            return None, False

    def peek(self, key: Tuple) -> object:
        """The value stored under ``key`` at any epoch, or None — without
        counting a lookup or touching the LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry[1]

    def put(self, key: Tuple, epoch, value, size: int = 0) -> None:
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.total_bytes -= previous[2]
            self._entries[key] = [epoch, value, size]
            self.total_bytes += size
            while (len(self._entries) > self.maxsize
                   or (self.max_bytes is not None
                       and self.total_bytes > self.max_bytes)):
                _, evicted = self._entries.popitem(last=False)
                self.total_bytes -= evicted[2]
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.total_bytes = 0

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = self.misses = self.invalidations = 0
            self.evictions = self.revalidated = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            total = self.hits + self.misses + self.invalidations
            stats = {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hit_rate": round(self.hits / total, 6) if total else 0.0,
            }
            if self.max_bytes is not None:
                stats["total_bytes"] = self.total_bytes
            if self.revalidate is not None:
                stats["revalidated"] = self.revalidated
            return stats
