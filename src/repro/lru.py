"""One bounded LRU for the warm state kept between requests.

Extraction is priced in black-box solves, and three kinds of state save
them when kept warm: the service's engines
(:class:`~repro.service.scheduler.ExtractorPool`), the solvers' direct
factors (:class:`~repro.substrate.factor_cache.FactorCache`) and solved
``G`` columns (:class:`~repro.service.result_store.ResultStore`).  All
three keep it under the one rule of :class:`BoundedLRU`:

* Entries are held in recency order under a budget measured by
  ``size_of(value)``: bytes for factors and columns, 1 per engine.  Once
  the budget is exceeded the least recently used entries go, oldest first.
* An entry larger than the whole budget is returned to its caller but
  never stored, and counted in ``oversized``.
* Occupancy is kept per group (``group_of(key)``: a factor's kind, a
  column's fingerprint) on every admit, eviction and clear, so reading it
  walks no entry.  A ``clear`` counts the entries it drops as evictions.
* With a ``tier`` attached (anything with ``load(key)``, returning the
  value or ``None``, and ``save(key, value)``), a RAM miss reads through
  to the tier and a put writes through to it, both outside the lock.  A
  tier call that raises is counted in ``tier_errors`` with one
  ``RuntimeWarning``: a sick disk costs durability, never the answer.

Budgets from the environment are read by :func:`env_bytes`.
"""

from __future__ import annotations

import os
import threading
import warnings
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = ["BoundedLRU", "env_bytes"]

#: ``get``'s marker for "not found": a stored value may be falsy
_MISSING = object()


def env_bytes(name: str, default: int) -> int:
    """Byte budget from the environment variable ``name``, else ``default``.

    A malformed or negative value is rejected with a warning (falling back
    to the default) instead of being silently ignored: a typo'd budget must
    not masquerade as a deliberate one.
    """
    env = os.environ.get(name)
    if env:
        try:
            value = int(env)
            if value < 0:
                raise ValueError("budget must be >= 0")
            return value
        except ValueError as exc:
            warnings.warn(
                f"ignoring invalid {name}={env!r} ({exc}); "
                f"using the default of {default} bytes",
                RuntimeWarning,
                stacklevel=3,
            )
    return default


class BoundedLRU:
    """Thread-safe LRU under a budget, with an optional read/write-through tier.

    Parameters
    ----------
    budget:
        Total of ``size_of`` over the stored entries.
    size_of:
        Size of one value in budget units (default: 1 per entry).
    group_of:
        The group a key's occupancy is counted under (default: one group).
    tier:
        The slower store behind the RAM entries, or ``None``; the ``tier``
        attribute may be swapped at any time.
    """

    def __init__(
        self,
        budget: int,
        size_of: Callable[[Any], int] = lambda value: 1,
        group_of: Callable[[Any], Hashable] = lambda key: None,
        tier: Any = None,
    ) -> None:
        self.size_of = size_of
        self.group_of = group_of
        self.tier = tier
        self._lock = threading.RLock()
        self.budget = int(budget)  # reprolint: guarded-by(_lock)
        # reprolint: guarded-by(_lock)
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = OrderedDict()
        self._size = 0  # reprolint: guarded-by(_lock)
        #: ``[entries, size]`` per group; a group leaves with its last entry
        self._groups: dict[Hashable, list[int]] = {}  # reprolint: guarded-by(_lock)
        self.hits = 0  # reprolint: guarded-by(_lock)
        self.misses = 0  # reprolint: guarded-by(_lock)
        self.evictions = 0  # reprolint: guarded-by(_lock)
        self.oversized = 0  # reprolint: guarded-by(_lock)
        self.tier_hits = 0  # reprolint: guarded-by(_lock)
        self.tier_misses = 0  # reprolint: guarded-by(_lock)
        self.tier_errors = 0  # reprolint: guarded-by(_lock)

    # ------------------------------------------------------------------ access
    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value under ``key`` (refreshing its recency), else ``default``.

        Counts one hit or miss.  On a RAM miss with a tier attached the tier
        is asked; a value it holds is admitted and counts as a hit (no
        rebuild is needed) and a ``tier_hits``, else a ``tier_misses``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._count(key, hit=True)
                return entry[0]
        tier = self.tier
        value = None if tier is None else self._call_tier(tier, "load", key)
        with self._lock:
            if tier is not None and value is None:
                self.tier_misses += 1
            elif tier is not None:
                self.tier_hits += 1
                self._admit(key, value)
            self._count(key, hit=value is not None)
        return default if value is None else value

    def put(self, key: Hashable, value: Any) -> Any:
        """Store ``value`` under ``key`` (replacing any old entry); return it.

        The value is also written through to the tier, if one is attached,
        oversized or not.
        """
        with self._lock:
            self._admit(key, value)
        tier = self.tier
        if tier is not None:
            self._call_tier(tier, "save", key, value)
        return value

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """One counted :meth:`get`; on a miss ``build()`` runs outside the
        lock and its value goes through :meth:`put` (and is returned even
        when refused as oversized)."""
        value = self.get(key, _MISSING)
        return self.put(key, build()) if value is _MISSING else value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """The value under ``key``: no counters, no recency, no tier."""
        with self._lock:
            entry = self._entries.get(key)
        return default if entry is None else entry[0]

    def contains(self, key: Hashable) -> bool:
        """RAM membership: no counters, no recency, no tier."""
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------- maintenance
    def set_budget(self, budget: int) -> None:
        """Change the budget and evict down to it immediately."""
        with self._lock:
            self.budget = int(budget)
            self._evict_to_budget()

    def clear(self, group: Hashable = None) -> int:
        """Drop every entry, or one group's; returns how many (counted as
        evictions).  The tier is left alone."""
        with self._lock:
            victims = [
                key for key in self._entries if group is None or self.group_of(key) == group
            ]
            for key in victims:
                _, size = self._entries.pop(key)
                self._account(key, -1, -size)
            self.evictions += len(victims)
            return len(victims)

    def info(self) -> dict:
        """Counters and occupancy, per group as ``{"entries", "size"}``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "size": self._size,
                "budget": self.budget,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "oversized": self.oversized,
                "tier_hits": self.tier_hits,
                "tier_misses": self.tier_misses,
                "tier_errors": self.tier_errors,
                "groups": {
                    group: {"entries": n, "size": size}
                    for group, (n, size) in self._groups.items()
                },
            }

    # ---------------------------------------------------------------- internal
    # reprolint: holds(_lock)
    def _count(self, key: Hashable, hit: bool) -> None:
        """Count one lookup of ``key``; subclasses may count more."""
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    # reprolint: holds(_lock)
    def _admit(self, key: Hashable, value: Any) -> None:
        size = self.size_of(value)
        if size > self.budget:
            self.oversized += 1
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._account(key, -1, -old[1])
        self._entries[key] = (value, size)
        self._account(key, 1, size)
        self._evict_to_budget()

    # reprolint: holds(_lock)
    def _evict_to_budget(self) -> None:
        while self._size > self.budget and self._entries:
            key, (_, size) = self._entries.popitem(last=False)
            self._account(key, -1, -size)
            self.evictions += 1

    # reprolint: holds(_lock)
    def _account(self, key: Hashable, entries: int, size: int) -> None:
        self._size += size
        group = self.group_of(key)
        slot = self._groups.setdefault(group, [0, 0])
        slot[0] += entries
        slot[1] += size
        if slot[0] == 0:
            del self._groups[group]

    def _call_tier(self, tier: Any, op: str, *args: Any) -> Any:
        """``tier.<op>(*args)``, or ``None`` after a counted, warned failure."""
        try:
            return getattr(tier, op)(*args)
        except Exception as exc:  # noqa: BLE001 - degrade to RAM, don't fail the caller
            with self._lock:
                self.tier_errors += 1
            warnings.warn(
                f"warm-state backend {op} failed ({type(exc).__name__}: {exc}); "
                "serving from RAM only",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
