"""Bounded LRU cache of the query service's decoded patches.

Every entry is one decoded, read-only ``ndarray`` keyed by ``("patch",
file, step, level, field, patch, verify)`` and charged at its ``nbytes``:
this is what makes a warm repeat query touch **zero** payload bytes. (A
step's parsed catalog and group headers are not entries: the
:class:`~repro.serve.source.StepSource` keeps them for its life.)

Eviction is strict LRU: whenever the charged total exceeds ``max_bytes``,
least-recently-used entries are dropped until it fits. A single value
larger than the whole budget is never stored (it would evict everything
and still not fit); the put is counted under ``rejected``.

A query looks each step's selection up in one walk,
:meth:`ServeCache.collect`, which leaves the values, counters and recency
order that one :meth:`ServeCache.get` per patch would.

The cache is not thread-safe by itself — the service only touches it from
its event loop, which is the synchronization. :attr:`stats` exposes
``hits`` / ``misses`` / ``evictions`` / ``puts`` / ``rejected`` /
``current_bytes`` / ``max_bytes``, the counters the cache-correctness
tests reconcile against observed backend request counts.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from repro.errors import ServeError

__all__ = ["ServeCache"]

#: Sentinel distinguishing "not cached" from a cached falsy value.
_MISS = object()


class ServeCache:
    """Byte-budgeted LRU over ``(kind, *key)`` tuples."""

    def __init__(self, max_bytes: int):
        if max_bytes < 1:
            raise ServeError(f"cache max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0
        self.rejected = 0

    # kept: operator need: the number of cached entries
    def __len__(self) -> int:
        return len(self._entries)

    # kept: operator need: whether a key is cached
    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    # kept: operator need: look one key up (what collect is defined against)
    def get(self, key: Hashable):
        """The cached value (refreshing its recency), or ``None`` on miss.

        ``None`` is never a stored value — entries are arrays — so the
        sentinel collapses to ``None`` for callers.
        """
        entry = self._entries.get(key, _MISS)
        if entry is _MISS:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry[0]

    def collect(self, picked: list[int], pkeys: list, keys: list, into: dict) -> list[int]:
        """Look up ``pkeys[i]`` for each position ``i`` of ``picked``, in
        order: a hit is refreshed and stored as ``into[keys[i]]``, a miss's
        position is returned. The values, ``hits`` / ``misses`` and recency
        order are what ``len(picked)`` :meth:`get` calls would leave."""
        find, refresh = self._entries.get, self._entries.move_to_end
        missed = []
        for i in picked:
            pkey = pkeys[i]
            entry = find(pkey, _MISS)
            if entry is _MISS:
                missed.append(i)
            else:
                refresh(pkey)
                into[keys[i]] = entry[0]
        self.misses += len(missed)
        self.hits += len(picked) - len(missed)
        return missed

    def put(self, key: Hashable, value: Any, nbytes: int) -> bool:
        """Store ``value`` charged at ``nbytes``; returns False when the
        value alone exceeds the budget (not stored, counted rejected)."""
        if nbytes < 0:
            raise ServeError(f"cache charge must be >= 0, got {nbytes}")
        if nbytes > self.max_bytes:
            self.rejected += 1
            return False
        old = self._entries.pop(key, _MISS)
        if old is not _MISS:
            self.current_bytes -= old[1]
        self._entries[key] = (value, int(nbytes))
        self.current_bytes += int(nbytes)
        self.puts += 1
        self._evict()
        return True

    def _evict(self) -> None:
        while self.current_bytes > self.max_bytes and self._entries:
            _, (_, nbytes) = self._entries.popitem(last=False)
            self.current_bytes -= nbytes
            self.evictions += 1

    @property
    def stats(self) -> dict:
        """Counter snapshot (plain ints; safe to serialize)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "rejected": self.rejected,
            "entries": len(self._entries),
            "current_bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
        }
