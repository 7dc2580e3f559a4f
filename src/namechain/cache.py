"""Per-resource cache of name to resolution mappings.

Eviction is segmented LRU.  A new entry starts on probation; a hit there
promotes it to the protected segment, which holds about four fifths of
the capacity and hands its least-recent entry back to probation when it
overflows.  A full cache evicts probation's least-recent entry.  So a
name looked up once is the first to go, and a flood of such names (a
scan) cannot push out the names asked for again and again, which is
where a cache saves resolution work when lookups are skewed toward a
few popular names.  Each type sets one TTL, so the entries of one type
expire in the order they were stored: evicting the entry closest to
expiry would be FIFO, and would keep a popular name no longer than one
asked for once.

Expiry does not depend on the policy: a stored resolution is served only
while the clock is strictly before its expiry instant, an expired entry
is dropped when it is asked for, and an already-expired resolution is
never stored.  Nothing scans for expired entries; one that nobody asks
for again leaves once it drifts to the least-recent end.

Keys are the canonical serialization of the name exactly as the consumer
wrote it.  Name-valued attributes make that text context-dependent, so a
cache must stay private to one resource; embedded that way, identical
lookups can be answered without repeating slow resolution work.  A key
costs no pass over the local names of a name without attributes parsed
from canonical text, which keeps that text (see names.serialize_name);
any other name is serialized for each lookup.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
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
        # Each segment runs from least to most recently used.  The protected
        # share is at most capacity - 1, so a full cache always has an entry
        # on probation to evict.
        self._probation: OrderedDict[str, Resolution] = OrderedDict()
        self._protected: OrderedDict[str, Resolution] = OrderedDict()
        self._protected_capacity = capacity * 4 // 5
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._probation) + len(self._protected)

    def get(self, name: Name, now: int) -> Optional[Resolution]:
        """Stored resolution, or None on miss; expired entries are dropped."""
        key = serialize_name(name)
        with self._lock:
            protected = self._protected
            entry = protected.get(key)
            if entry is not None:
                if now < entry.validity.expires_at:
                    protected.move_to_end(key)
                    return entry
                del protected[key]
                return None
            entry = self._probation.pop(key, None)
            if entry is None or now >= entry.validity.expires_at:
                return None
            protected[key] = entry
            if len(protected) > self._protected_capacity:
                demoted, resolution = protected.popitem(last=False)
                self._probation[demoted] = resolution
            return entry

    def put(self, name: Name, resolution: Resolution, now: int) -> None:
        """Store a resolution; already-expired ones are silently ignored."""
        if now >= resolution.validity.expires_at:
            return
        key = serialize_name(name)
        with self._lock:
            probation, protected = self._probation, self._protected
            if key in protected:
                protected[key] = resolution
                return
            if key not in probation and len(probation) + len(protected) >= self.capacity:
                probation.popitem(last=False)
            probation[key] = resolution

    def clear(self) -> None:
        with self._lock:
            self._probation.clear()
            self._protected.clear()


def cached_resolve(ctx: ResolveContext, cache: NameCache, name: Name) -> Resolution:
    """Resolve through a cache: serve a live entry or resolve and store."""
    hit = cache.get(name, ctx.clock())
    if hit is not None:
        return hit
    resolution = resolve(ctx, name)
    cache.put(name, resolution, ctx.clock())
    return resolution
