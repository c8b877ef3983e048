"""Index-set algebra and magnitude ordering for sparse vectors.

Signal vectors are plain 1-D numpy arrays of length ``m``.  Support sets are
immutable sorted index sets that carry their ambient dimension so that set
algebra between mismatched spaces fails loudly.

Magnitude ties are broken by the smaller index everywhere, which keeps every
ordering deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator

import numpy as np


class AmbientDimensionMismatch(ValueError):
    """Set algebra attempted between supports of different ambient dimension."""


class SupportSet:
    """Immutable sorted set of indices in ``[0, m)``."""

    __slots__ = ("_indices", "_m")

    def __init__(self, indices: Iterable[int], m: int):
        idx = tuple(sorted({int(i) for i in indices}))
        if m < 0:
            raise ValueError("ambient dimension must be nonnegative")
        if idx and (idx[0] < 0 or idx[-1] >= m):
            raise ValueError(f"indices must lie in [0, {m})")
        self._indices = idx
        self._m = int(m)

    @classmethod
    def empty(cls, m: int) -> "SupportSet":
        return cls((), m)

    @property
    def indices(self) -> tuple[int, ...]:
        return self._indices

    @property
    def m(self) -> int:
        return self._m

    def to_array(self) -> np.ndarray:
        return np.asarray(self._indices, dtype=np.intp)

    def complement(self) -> "SupportSet":
        mask = np.ones(self._m, dtype=bool)
        mask[list(self._indices)] = False
        return SupportSet(np.nonzero(mask)[0], self._m)

    def _check(self, other: "SupportSet") -> None:
        if not isinstance(other, SupportSet):
            raise TypeError("expected a SupportSet")
        if self._m != other._m:
            raise AmbientDimensionMismatch(
                f"ambient dimensions differ: {self._m} != {other._m}"
            )

    def union(self, other: "SupportSet") -> "SupportSet":
        self._check(other)
        return SupportSet(set(self._indices) | set(other._indices), self._m)

    def difference(self, other: "SupportSet") -> "SupportSet":
        self._check(other)
        return SupportSet(set(self._indices) - set(other._indices), self._m)

    __or__ = union
    __sub__ = difference

    def __len__(self) -> int:
        return len(self._indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self._indices)

    def __contains__(self, i: object) -> bool:
        j = bisect_left(self._indices, i)
        return j < len(self._indices) and self._indices[j] == i

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SupportSet):
            return NotImplemented
        return self._m == other._m and self._indices == other._indices

    def __hash__(self) -> int:
        return hash((self._indices, self._m))

    def __repr__(self) -> str:
        return f"SupportSet({list(self._indices)}, m={self._m})"


def support_of(v: np.ndarray, tol: float = 0.0) -> SupportSet:
    """Support of a signal vector: indices with ``|v_i| > tol``."""
    v = np.asarray(v, dtype=float)
    return SupportSet(np.nonzero(np.abs(v) > tol)[0], v.shape[0])


def magnitude_order(v: np.ndarray, support: SupportSet | None = None) -> np.ndarray:
    """Indices sorted by decreasing magnitude, ties broken by smaller index."""
    v = np.asarray(v, dtype=float)
    idx = np.arange(v.shape[0]) if support is None else support.to_array()
    # stable sort on -|v| keeps the original (increasing index) order on ties
    order = np.argsort(-np.abs(v[idx]), kind="stable")
    return idx[order]
