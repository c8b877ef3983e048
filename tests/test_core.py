import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lscs
from lscs.core import (
    AmbientDimensionMismatch,
    SupportSet,
    magnitude_order,
    support_of,
)


class TestSupportSet:
    def test_set_algebra(self):
        a = SupportSet([1, 2, 3], 16)
        b = SupportSet([2], 16)
        assert (a - b).indices == (1, 3)
        assert (SupportSet([1, 2], 16) | SupportSet([], 16)).indices == (1, 2)

    def test_delta_delta_e_definitions(self):
        true_support = SupportSet([0, 5, 9], 16)
        known = SupportSet([5, 9, 12], 16)
        assert (true_support - known).indices == (0,)     # misses
        assert (known - true_support).indices == (12,)    # extras

    def test_size_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_idx = SupportSet(rng.choice(30, size=8, replace=False), 30)
            t_idx = SupportSet(rng.choice(30, size=6, replace=False), 30)
            delta = n_idx - t_idx
            delta_e = t_idx - n_idx
            assert len(n_idx) == len(t_idx) + len(delta) - len(delta_e)

    def test_dimension_mismatch(self):
        with pytest.raises(AmbientDimensionMismatch):
            SupportSet([1], 4) | SupportSet([1], 5)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            SupportSet([4], 4)
        with pytest.raises(ValueError):
            SupportSet([-1], 4)

    def test_complement(self):
        s = SupportSet([0, 2], 4)
        assert s.complement().indices == (1, 3)

    def test_dedup_and_sort(self):
        assert SupportSet([3, 1, 3], 5).indices == (1, 3)


@st.composite
def support_triples(draw):
    """Three supports in one ambient dimension, with their raw index lists."""
    m = draw(st.integers(0, 24))
    raw = [draw(st.lists(st.integers(0, m - 1), max_size=2 * m)) if m else [] for _ in range(3)]
    return m, raw, [SupportSet(r, m) for r in raw]


def meet(a: SupportSet, b: SupportSet) -> SupportSet:
    """The intersection, through the difference that ``SupportSet`` has."""
    return a - (a - b)


class TestSupportSetProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(support_triples())
    def test_algebra_identities(self, triple):
        m, raw, (a, b, c) = triple
        empty = SupportSet.empty(m)
        assert a | b == b | a and meet(a, b) == meet(b, a)
        assert (a | b) | c == a | (b | c) and meet(meet(a, b), c) == meet(a, meet(b, c))
        assert meet(a, b | c) == meet(a, b) | meet(a, c)
        assert a - b == meet(a, b.complement())
        assert (a - b) | meet(a, b) == a
        assert meet(a - b, b) == empty
        assert (a | b).complement() == meet(a.complement(), b.complement())
        assert a.complement().complement() == a
        assert len(a | b) == len(a) + len(b) - len(meet(a, b))
        assert len(a) + len(a.complement()) == m

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(support_triples())
    def test_len_and_to_array_agree(self, triple):
        m, raw, sets = triple
        for r, s in zip(raw, sets):
            arr = s.to_array()
            assert arr.dtype == np.intp
            assert arr.tolist() == sorted(set(r)) == list(s)
            assert len(s) == arr.size == len(set(r))
            assert all(i in s for i in r) and all(np.intp(i) in s for i in r)
            assert [i in s for i in range(-1, m + 1)] == [i in set(r) for i in range(-1, m + 1)]


def test_magnitude_order_tie_rule():
    assert list(magnitude_order(np.array([2.0, -2.0]))) == [0, 1]


def test_package_exports_resolve():
    for name in lscs.__all__:
        assert hasattr(lscs, name), name


def test_support_of():
    assert support_of(np.array([0.0, 1.0, 0.0, -2.0])).indices == (1, 3)
