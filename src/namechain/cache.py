"""Per-resource cache of name to resolution mappings.

Entries expire with the validity period of the cached mapping: a stored
resolution is served only while the clock is strictly before its expiry
instant.  When the cache is full, the entry closest to expiring is
evicted first, since long-lived mappings are the ones worth keeping.
The eviction order lives in a binary heap beside the entries, so a put
costs O(log n) in the number of entries, not a scan over all of them.

Keys are the canonical serialization of the name exactly as the consumer
wrote it.  Name-valued attributes make that text context-dependent, so a
cache must stay private to one resource; embedded that way, identical
lookups can be answered without repeating slow resolution work.
"""

from __future__ import annotations

import heapq
import threading
from typing import Optional

from .names import Name, serialize_name
from .resolver import Resolution, ResolveContext, resolve


class NameCache:
    """Bounded name -> Resolution map with validity-driven expiry.

    Operations are atomic with respect to each other, so one cache may
    serve concurrent resolve calls within a resource.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: dict[str, Resolution] = {}
        # One (expires_at, key) record per put.  A record whose key has
        # since been re-put, expired or cleared no longer matches its entry
        # and is skipped when popped; the heap is rebuilt from the entries
        # once stale records take it past twice the capacity.
        self._heap: list[tuple[int, str]] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, name: Name, now: int) -> Optional[Resolution]:
        """Stored resolution, or None on miss; expired entries are dropped."""
        key = serialize_name(name)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if now >= entry.validity.expires_at:
                del self._entries[key]
                return None
            return entry

    def put(self, name: Name, resolution: Resolution, now: int) -> None:
        """Store a resolution; already-expired ones are silently ignored."""
        expires_at = resolution.validity.expires_at
        if now >= expires_at:
            return
        key = serialize_name(name)
        with self._lock:
            entries, heap = self._entries, self._heap
            if key not in entries and len(entries) >= self.capacity:
                # Earliest-expiring live entry goes first; key breaks ties
                # so eviction stays deterministic.
                while True:
                    victim_expiry, victim = heapq.heappop(heap)
                    entry = entries.get(victim)
                    if entry is not None and entry.validity.expires_at == victim_expiry:
                        del entries[victim]
                        break
            entries[key] = resolution
            heapq.heappush(heap, (expires_at, key))
            if len(heap) > 2 * self.capacity:
                heap[:] = [(e.validity.expires_at, k) for k, e in entries.items()]
                heapq.heapify(heap)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._heap.clear()


def cached_resolve(ctx: ResolveContext, cache: NameCache, name: Name) -> Resolution:
    """Resolve through a cache: serve a live entry or resolve and store."""
    hit = cache.get(name, ctx.clock())
    if hit is not None:
        return hit
    resolution = resolve(ctx, name)
    cache.put(name, resolution, ctx.clock())
    return resolution
