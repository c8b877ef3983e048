import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lscs.core import (
    AmbientDimensionMismatch,
    SupportSet,
    kth_largest_magnitude,
    magnitude_order,
    smallest_k_subvector,
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


class TestSupportSetProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(support_triples())
    def test_algebra_identities(self, triple):
        m, raw, (a, b, c) = triple
        empty = SupportSet.empty(m)
        assert a | b == b | a and a & b == b & a
        assert (a | b) | c == a | (b | c) and (a & b) & c == a & (b & c)
        assert a & (b | c) == (a & b) | (a & c)
        assert a - b == a & b.complement()
        assert (a - b) | (a & b) == a
        assert (a - b) & b == empty
        assert (a | b).complement() == a.complement() & b.complement()
        assert a.complement().complement() == a
        assert len(a | b) == len(a) + len(b) - len(a & b)
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
            assert all(i in s for i in r)


class TestOrderStatistics:
    def test_kth_largest_basic(self):
        assert kth_largest_magnitude(np.array([3.0, -5.0, 1.0]), 1) == 5.0

    def test_kth_largest_tie_rule(self):
        v = np.array([2.0, -2.0])
        order = magnitude_order(v)
        assert list(order) == [0, 1]
        assert kth_largest_magnitude(v, 2) == 2.0

    def test_kth_largest_third_example(self):
        assert kth_largest_magnitude(np.array([0.5, 0.25, 1.0, 0.0]), 2) == 0.5

    def test_kth_out_of_range(self):
        with pytest.raises(ValueError):
            kth_largest_magnitude(np.array([1.0]), 2)

    def test_kth_non_increasing(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(20)
        mags = [kth_largest_magnitude(v, k) for k in range(1, 21)]
        assert all(a >= b for a, b in zip(mags, mags[1:]))

    def test_energy_partition(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(15)
        total = sum(kth_largest_magnitude(v, k) ** 2 for k in range(1, 16))
        assert total == pytest.approx(float(v @ v), rel=1e-12)

    def test_smallest_k_basic(self):
        v = np.zeros(3)
        v[[0, 1, 2]] = [4.0, 1.0, 2.0]
        idx, sq = smallest_k_subvector(v, SupportSet([0, 1, 2], 3), 2)
        assert idx.indices == (1, 2)
        assert sq == pytest.approx(5.0)

    def test_smallest_zero(self):
        idx, sq = smallest_k_subvector(np.array([1.0, 2.0]), SupportSet([0, 1], 2), 0)
        assert len(idx) == 0 and sq == 0.0

    def test_smallest_tie_rule(self):
        idx, sq = smallest_k_subvector(np.array([-3.0, 3.0]), SupportSet([0, 1], 2), 1)
        assert idx.indices == (0,)
        assert sq == pytest.approx(9.0)

    def test_smallest_out_of_range(self):
        with pytest.raises(ValueError):
            smallest_k_subvector(np.array([1.0]), SupportSet([0], 1), 2)


def test_support_of():
    assert support_of(np.array([0.0, 1.0, 0.0, -2.0])).indices == (1, 3)
