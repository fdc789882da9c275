"""Sorted-multiset oracle for an exact priority queue.

Holds the live keys as one large sorted array consumed from the front
plus a small sorted side array for recent inserts, merged into the
large one when it grows past ``flush``.  ``pop(count)`` returns the
``count`` smallest live keys, which an exact queue's ``deletemin`` must
return.  Every step is a NumPy call, so checking a whole run costs a
small fraction of running it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SortedOracle"]


class SortedOracle:
    def __init__(self, keys, flush: int = 8192):
        self._big = np.sort(np.asarray(keys, dtype=np.int64))
        self._lo = 0
        self._side = np.empty(0, dtype=np.int64)
        self._flush = flush

    def __len__(self) -> int:
        return self._big.size - self._lo + self._side.size

    def insert(self, keys) -> None:
        self._side = np.sort(np.concatenate([self._side, keys]))
        if self._side.size > self._flush:
            self._big = np.sort(np.concatenate([self._big[self._lo :], self._side]))
            self._lo = 0
            self._side = self._side[:0]

    def pop(self, count: int) -> np.ndarray:
        a = self._big[self._lo : self._lo + count]
        b = self._side[:count]
        out = np.sort(np.concatenate([a, b]))[:count]
        if not out.size:
            return out
        # remove `out` from the two arrays; among keys equal to the
        # largest one taken, which array gives them up does not matter
        top = out[-1]
        na = int(np.searchsorted(a, top, "left"))
        nb = int(np.searchsorted(b, top, "left"))
        na += min(out.size - na - nb, int(np.searchsorted(a, top, "right")) - na)
        self._lo += na
        self._side = self._side[out.size - na :]
        return out
