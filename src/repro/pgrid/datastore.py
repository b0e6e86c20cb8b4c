"""Per-peer local storage.

Each P-Grid peer owns a :class:`DataStore`: a versioned key/value multi-map
with a sorted key index for range scans.  Entries are identified by
``(key, item_id)`` — inserting a newer version of the same identity replaces
the old one (this is what the update protocol of paper ref. [4] relies on),
while distinct items may share a key (many triples can hash to one key).

Keys are binary key strings (see :mod:`repro.pgrid.keys`); values are opaque
to this layer (the triple layer stores index postings here).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Iterator

from repro.pgrid.keys import KeyRange, canonical


@dataclass(frozen=True)
class Entry:
    """One stored item: identity ``(key, item_id)``, payload ``value``, ``version``."""

    key: str
    item_id: str
    value: Any
    version: int = 0


class DataStore:
    """Sorted, versioned local store of one peer."""

    def __init__(self) -> None:
        self._by_key: dict[str, dict[str, Entry]] = {}
        self._sorted_keys: list[str] = []

    def __len__(self) -> int:
        return sum(len(items) for items in self._by_key.values())

    def __iter__(self) -> Iterator[Entry]:
        for key in self._sorted_keys:
            yield from self._by_key[key].values()

    def put(self, entry: Entry) -> bool:
        """Insert or upgrade an entry.

        Returns True when the store changed (new identity, or strictly newer
        version of an existing identity).  Older or equal versions of an
        existing identity are ignored — this makes replica synchronisation
        idempotent and order-insensitive.
        """
        items = self._by_key.get(entry.key)
        if items is None:
            bisect.insort(self._sorted_keys, entry.key)
            self._by_key[entry.key] = {entry.item_id: entry}
            return True
        existing = items.get(entry.item_id)
        if existing is not None and existing.version >= entry.version:
            return False
        items[entry.item_id] = entry
        return True

    def delete(self, key: str, item_id: str) -> bool:
        """Remove one identity; returns True when it existed."""
        items = self._by_key.get(key)
        if not items or item_id not in items:
            return False
        del items[item_id]
        if not items:
            del self._by_key[key]
            index = bisect.bisect_left(self._sorted_keys, key)
            del self._sorted_keys[index]
        return True

    def get(self, key: str) -> list[Entry]:
        """All entries stored exactly under ``key``."""
        items = self._by_key.get(key)
        return list(items.values()) if items else []

    def get_entry(self, key: str, item_id: str) -> Entry | None:
        items = self._by_key.get(key)
        return items.get(item_id) if items else None

    def scan(self, key_range: KeyRange) -> list[Entry]:
        """All entries whose key lies in the half-open ``key_range``.

        Runs in ``O(log n + k)`` over the sorted key index.  Plain string
        order of the stored keys agrees with their binary-fraction order
        (zero-padded variants of one point sort next to each other), so a
        binary search for the canonical lower bound finds the first key in
        range and the walk stops at the first key past the upper bound.
        """
        keys = self._sorted_keys
        result: list[Entry] = []
        for index in range(bisect.bisect_left(keys, key_range.lo_canonical), len(keys)):
            key = keys[index]
            if canonical(key) >= key_range.hi_canonical:
                break
            result.extend(self._by_key[key].values())
        return result

    def partition(self, prefix_zero: str) -> tuple[list[Entry], list[Entry]]:
        """Split all entries into (covered by ``prefix_zero``, the rest).

        Used when a replica group splits its path: the '0'-side keeps the
        first list, the '1'-side the second.
        """
        keep: list[Entry] = []
        give: list[Entry] = []
        zero_range = KeyRange.subtree(prefix_zero)
        for entry in self:
            (keep if zero_range.contains(entry.key) else give).append(entry)
        return keep, give

    def keys(self) -> list[str]:
        """Sorted list of distinct keys (copy)."""
        return list(self._sorted_keys)

    def clear(self) -> None:
        self._by_key.clear()
        self._sorted_keys.clear()

    def retain(self, predicate) -> int:
        """Keep only entries for which ``predicate(entry)`` is true; return #removed."""
        removed = 0
        for key in list(self._sorted_keys):
            items = self._by_key[key]
            for item_id in [i for i, e in items.items() if not predicate(e)]:
                del items[item_id]
                removed += 1
            if not items:
                del self._by_key[key]
                index = bisect.bisect_left(self._sorted_keys, key)
                del self._sorted_keys[index]
        return removed
