import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lscs import measurement
from lscs.measurement import (
    EnumerationBudgetExceeded,
    InsufficientRipTable,
    MeasurementMatrix,
    RipEntry,
    RipTable,
    _block_specnorms,
    build_rip_table,
    delta_exhaustive,
    delta_sampled,
    gen_gaussian_matrix,
    gen_matrix,
    gen_perturbed_orthonormal_matrix,
    s_star_s_starstar,
    theta_exhaustive,
    theta_sampled,
)


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def reference_delta(A: MeasurementMatrix, S: int) -> float:
    """Every size-S subset in ``combinations`` order, evaluated 20000 at a
    time: the enumeration ``delta_exhaustive`` replaced."""
    gram = A.gram()
    subsets = list(combinations(range(A.m), S))
    worst = 0.0
    for lo in range(0, len(subsets), 20_000):
        idx = np.asarray(subsets[lo:lo + 20_000], dtype=np.intp)
        w = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
        worst = max(worst, float(np.max(np.maximum(1.0 - w[:, 0], w[:, -1] - 1.0))))
    return worst


def reference_theta(A: MeasurementMatrix, S: int, Sp: int) -> float:
    """Every disjoint pair in ``combinations`` order (each unordered pair once,
    smaller subset on the left, when S == Sp), spectral norms taken 20000
    pairs at a time: the enumeration ``theta_exhaustive`` replaced."""
    gram = A.gram()
    pairs = []
    for t1 in combinations(range(A.m), S):
        rest = [i for i in range(A.m) if i not in t1]
        pairs += [(t1, t2) for t2 in combinations(rest, Sp) if not (S == Sp and t2 < t1)]
    worst = 0.0
    for lo in range(0, len(pairs), 20_000):
        block = pairs[lo:lo + 20_000]
        lefts = np.asarray([p[0] for p in block], dtype=np.intp)
        rights = np.asarray([p[1] for p in block], dtype=np.intp)
        b = gram[lefts[:, :, None], rights[:, None, :]]
        w = np.linalg.eigvalsh(b @ np.swapaxes(b, 1, 2))
        worst = max(worst, float(np.sqrt(max(np.max(w[:, -1]), 0.0))))
    return worst


def size_pairs(m: int):
    return [(s, sp) for s in range(1, m) for sp in range(1, m - s + 1)]


def tied_matrix(seed: int) -> MeasurementMatrix:
    """Rank one: every column is one unit vector, scaled and sign-flipped
    before normalization, so columns agree only up to rounding.  Every Gram
    block is rank one, its spectral and Frobenius norms tie, and the computed
    values of different blocks differ in the last bits."""
    a = np.random.default_rng(seed).standard_normal(5)
    scales = [1.0, 3.0, 7.0, 0.1, 11.0, -2.0, -5.0, 13.0, 0.3, -17.0]
    return MeasurementMatrix.from_columns(np.outer(a, scales))


def two_column_matrix(phi: float) -> MeasurementMatrix:
    return MeasurementMatrix(np.array([[1.0, math.cos(phi)], [0.0, math.sin(phi)]]))


class TestMatrixGeneration:
    def test_unit_columns(self):
        A = gen_gaussian_matrix(4, 8, 7)
        assert np.allclose(np.linalg.norm(A.entries, axis=0), 1.0, atol=1e-12)

    def test_seed_determinism(self):
        a = gen_gaussian_matrix(6, 12, 3).entries
        b = gen_gaussian_matrix(6, 12, 3).entries
        assert np.array_equal(a, b)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            MeasurementMatrix(2.0 * np.eye(3))

    def test_induced_one_norm(self):
        A = MeasurementMatrix(np.eye(3))
        assert A.induced_one_norm == 1.0
        B = gen_gaussian_matrix(5, 9, 0)
        assert B.induced_one_norm == pytest.approx(
            np.abs(B.entries).sum(axis=0).max()
        )

    def test_identity_equality_and_hash(self):
        a = gen_gaussian_matrix(3, 4, 0)
        assert a == a
        assert a != gen_gaussian_matrix(3, 4, 0)
        assert hash(a) == hash(a)

    def test_gen_matrix_kinds(self):
        assert np.array_equal(
            gen_matrix("gaussian", 4, 8, 2).entries, gen_gaussian_matrix(4, 8, 2).entries
        )
        assert np.array_equal(
            gen_matrix("perturbed_orthonormal", 4, 8, 2, 0.1).entries,
            gen_perturbed_orthonormal_matrix(4, 8, 2, 0.1).entries,
        )
        with pytest.raises(ValueError):
            gen_matrix("nope", 4, 8, 2)


class TestExhaustiveConstants:
    def test_orthonormal_deltas_zero(self):
        I = MeasurementMatrix(np.eye(6))
        for s in range(1, 7):
            assert delta_exhaustive(I, s) == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_theta_zero(self):
        I = MeasurementMatrix(np.eye(6))
        assert theta_exhaustive(I, 2, 3) == pytest.approx(0.0, abs=1e-12)

    def test_two_column_closed_form(self):
        # Gram eigenvalues are 1 +- |cos(phi)|
        for phi in [0.3, 1.0, 2.4]:
            A = two_column_matrix(phi)
            assert delta_exhaustive(A, 2) == pytest.approx(abs(math.cos(phi)), abs=1e-12)
            assert theta_exhaustive(A, 1, 1) == pytest.approx(abs(math.cos(phi)), abs=1e-12)

    def test_delta_matches_rayleigh_oracle(self):
        # exhaustive value equals the worst Rayleigh-quotient deviation over a
        # dense sweep of unit vectors per 2-column subset
        A = gen_gaussian_matrix(6, 10, 21)
        exact = delta_exhaustive(A, 2)
        angles = np.linspace(0.0, np.pi, 200_000, endpoint=False)
        c = np.stack([np.cos(angles), np.sin(angles)])
        worst = 0.0
        from itertools import combinations
        gram = A.gram()
        for t in combinations(range(10), 2):
            block = gram[np.ix_(t, t)]
            q = np.einsum("ik,ij,jk->k", c, block, c)
            worst = max(worst, float(np.max(np.abs(q - 1.0))))
        assert worst <= exact + 1e-12
        assert exact == pytest.approx(worst, abs=1e-6)

    def test_theta_matches_bilinear_oracle(self):
        A = gen_gaussian_matrix(6, 10, 22)
        exact = theta_exhaustive(A, 1, 2)
        angles = np.linspace(0.0, 2 * np.pi, 200_000, endpoint=False)
        c2 = np.stack([np.cos(angles), np.sin(angles)])
        worst = 0.0
        gram = A.gram()
        for t1 in range(10):
            for t2a in range(10):
                for t2b in range(t2a + 1, 10):
                    if t1 in (t2a, t2b):
                        continue
                    row = gram[t1, [t2a, t2b]]
                    worst = max(worst, float(np.max(np.abs(row @ c2))))
        assert worst <= exact + 1e-12  # every sampled bilinear form under the max
        assert exact == pytest.approx(worst, abs=1e-6)

    def test_monotonicity(self):
        A = gen_gaussian_matrix(8, 12, 5)
        deltas = [delta_exhaustive(A, s) for s in range(1, 6)]
        assert all(a <= b + 1e-12 for a, b in zip(deltas, deltas[1:]))
        t12 = theta_exhaustive(A, 1, 2)
        t22 = theta_exhaustive(A, 2, 2)
        t13 = theta_exhaustive(A, 1, 3)
        assert t12 <= t22 + 1e-12
        assert t12 <= t13 + 1e-12

    def test_budget_gate(self):
        A = gen_gaussian_matrix(10, 40, 1)
        with pytest.raises(EnumerationBudgetExceeded):
            delta_exhaustive(A, 10, budget=1000)

    @pytest.mark.parametrize("m, S, Sp", [(9, 2, 3), (9, 3, 2), (10, 3, 3), (10, 1, 1), (12, 4, 4), (8, 1, 7)])
    def test_theta_budget_counts(self, m, S, Sp):
        A = gen_gaussian_matrix(4, m, 2)
        count = math.comb(m, S) * math.comb(m - S, Sp)
        if S == Sp:
            count //= 2
        assert theta_exhaustive(A, S, Sp, budget=count) == reference_theta(A, S, Sp)
        with pytest.raises(EnumerationBudgetExceeded, match=f"^{count} disjoint"):
            theta_exhaustive(A, S, Sp, budget=count - 1)

    @pytest.mark.parametrize("m, S", [(9, 1), (10, 4), (12, 6)])
    def test_delta_budget_counts(self, m, S):
        A = gen_gaussian_matrix(4, m, 2)
        assert delta_exhaustive(A, S, budget=math.comb(m, S)) == reference_delta(A, S)
        with pytest.raises(EnumerationBudgetExceeded):
            delta_exhaustive(A, S, budget=math.comb(m, S) - 1)

    def test_budget_raised_before_allocating(self):
        A = gen_gaussian_matrix(8, 60, 3)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationBudgetExceeded):
                theta_exhaustive(A, 20, 20)
            with pytest.raises(EnumerationBudgetExceeded):
                delta_exhaustive(A, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestExhaustiveMatchesReference:
    """The pruned enumeration returns the reference maximum bit for bit."""

    @pytest.mark.parametrize("kind, seed", [("gaussian", 1), ("perturbed_orthonormal", 5)])
    @pytest.mark.parametrize("m", [8, 10, 12])
    def test_every_size_pair(self, kind, seed, m):
        A = gen_matrix(kind, m // 2 + 1, m, seed)
        for S, Sp in size_pairs(m):
            assert theta_exhaustive(A, S, Sp) == reference_theta(A, S, Sp), (S, Sp)
        for S in range(1, m + 1):
            assert delta_exhaustive(A, S) == reference_delta(A, S), S

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_tied_blocks(self, seed):
        # without the rounding slack in the prune these seeds lose the max
        A = tied_matrix(seed)
        for S, Sp in size_pairs(A.m):
            assert theta_exhaustive(A, S, Sp) == reference_theta(A, S, Sp), (S, Sp)
        for S in range(1, A.m + 1):
            assert delta_exhaustive(A, S) == reference_delta(A, S), S

    @pytest.mark.parametrize("A, S, Sp", [
        (gen_perturbed_orthonormal_matrix(16, 16, 1, 0.2), 4, 8),
        (gen_gaussian_matrix(12, 24, 0), 3, 3),
    ], ids=["orthonormal-4-8", "gaussian-3-3"])
    def test_prune_skips_almost_every_pair(self, monkeypatch, A, S, Sp):
        # either bound term alone lets through far more than 2% of the pairs
        evaluated = []

        def counting(gram, lefts, rights):
            evaluated.append(len(rights))
            return _block_specnorms(gram, lefts, rights)

        monkeypatch.setattr(measurement, "_block_specnorms", counting)
        theta_exhaustive(A, S, Sp)
        pairs = math.comb(A.m, S) * math.comb(A.m - S, Sp) // (2 if S == Sp else 1)
        assert 0 < sum(evaluated) <= 0.02 * pairs

    @PROPERTY
    @given(st.data())
    def test_drawn_unit_column_matrices(self, data):
        m = data.draw(st.integers(2, 9), label="m")
        n = data.draw(st.integers(1, 5), label="n")
        entries = st.one_of(
            st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
            st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
        )
        raw = data.draw(arrays(np.float64, (n, m), elements=entries), label="raw")
        assume(np.all(np.linalg.norm(raw, axis=0) > 1e-3))
        A = MeasurementMatrix.from_columns(raw)
        S = data.draw(st.integers(1, m - 1), label="S")
        Sp = data.draw(st.integers(1, m - S), label="Sp")
        assert theta_exhaustive(A, S, Sp) == reference_theta(A, S, Sp)


class TestSampledConstants:
    def test_sampled_below_exact(self):
        A = gen_gaussian_matrix(8, 14, 9)
        for s in [2, 3]:
            assert delta_sampled(A, s, trials=200, seed=0) <= delta_exhaustive(A, s) + 1e-12
        assert theta_sampled(A, 1, 2, trials=200, seed=0) <= theta_exhaustive(A, 1, 2) + 1e-12

    def test_sampled_hits_exact_when_exhaustive_covered(self):
        # more random subsets than exist means the argmax subset is sampled
        A = gen_gaussian_matrix(5, 7, 2)
        exact = delta_exhaustive(A, 2)
        sampled = delta_sampled(A, 2, trials=3000, seed=4)
        assert sampled == pytest.approx(exact, abs=1e-12)

    def test_sampled_calibration(self):
        # on small instances sampling with many trials gets close to exact
        hits = 0
        for seed in range(50):
            A = gen_gaussian_matrix(8, 16, 100 + seed)
            exact = delta_exhaustive(A, 2)
            approx = delta_sampled(A, 2, trials=10_000, seed=seed)
            if approx >= 0.95 * exact:
                hits += 1
        assert hits >= 45

    def test_sampled_nested_across_sizes(self):
        # every entry maximises over the rows of one permutation block, and a
        # larger size only extends each row's subsets, so no entry can drop
        A = gen_gaussian_matrix(6, 10, 1)
        for seed in range(4):
            delta = [delta_sampled(A, s, trials=3, seed=seed) for s in range(11)]
            assert all(a <= b + 1e-12 for a, b in zip(delta, delta[1:])), seed
            theta = {(s, sp): theta_sampled(A, s, sp, trials=3, seed=seed)
                     for s in range(1, 10) for sp in range(1, 11 - s)}
            for (s, sp), value in theta.items():
                for larger in [(s + 1, sp), (s, sp + 1)]:
                    if larger in theta:
                        assert value <= theta[larger] + 1e-12, (seed, s, sp, larger)


class TestRipTable:
    def make_table(self):
        A = gen_gaussian_matrix(6, 10, 3)
        return A, build_rip_table(A, [1, 2, 3, 4], [(1, 2), (2, 4)], mode="exact")

    def test_roundtrip_json(self):
        _, table = self.make_table()
        doc = RipTable.from_json(table.to_json())
        assert doc.matrix_digest == table.matrix_digest
        for s in [1, 2, 3, 4]:
            assert doc.delta(s) == table.delta(s)
        assert doc.theta(2, 4) == table.theta(2, 4)

    def test_sampled_entry_ignores_other_sizes(self):
        # an entry depends only on the matrix, its sizes, trials and seed
        A = gen_gaussian_matrix(16, 16, 5)
        one = build_rip_table(A, [2, 4], [], mode="sampled", trials=50)
        two = build_rip_table(A, [2, 3, 4], [], mode="sampled", trials=50)
        assert one.delta(4) == two.delta(4)
        one = build_rip_table(A, [], [(2, 3)], mode="sampled", trials=50)
        two = build_rip_table(A, [], [(1, 1), (2, 3)], mode="sampled", trials=50)
        assert one.theta(2, 3) == two.theta(2, 3)

    def test_sampled_table_draws_one_block(self, monkeypatch):
        # the entries of one sampled table share one permutation draw
        A = gen_gaussian_matrix(16, 20, 6)
        measurement._permutations.cache_clear()
        draws = []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            draws.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(measurement.np.random, "default_rng", counting_rng)
        table = build_rip_table(A, [], [], mode="sampled", trials=40, seed=9)
        values = (table.delta(3).value, table.theta(2, 3).value)
        assert draws == [9]
        assert not measurement._permutations(20, 40, 9).flags.writeable
        measurement._permutations.cache_clear()
        assert (delta_sampled(A, 3, trials=40, seed=9), theta_sampled(A, 2, 3, trials=40, seed=9)) == values
        assert draws == [9, 9]

    def test_bound_table_computes_on_first_read(self, monkeypatch):
        A = gen_gaussian_matrix(6, 10, 3)
        table = build_rip_table(A, [2], [], mode="exact")
        calls = []

        def counted(A, S, Sp, budget):
            calls.append((S, Sp))
            return theta_exhaustive(A, S, Sp, budget=budget)

        monkeypatch.setattr(measurement, "theta_exhaustive", counted)
        assert table.has_delta(10) and table.has_theta(2, 8)
        assert not table.has_delta(11) and not table.has_theta(3, 8)
        assert calls == []
        assert table.theta(2, 3) == RipEntry(theta_exhaustive(A, 2, 3), True)
        assert table.theta(2, 3) == table.theta(2, 3)
        assert calls == [(2, 3)]
        with pytest.raises(InsufficientRipTable):
            table.theta(3, 8)
        # a table read back from JSON holds the stored entries only
        loaded = RipTable.from_json(table.to_json())
        assert loaded.delta(2) == table.delta(2) and loaded.theta(2, 3) == table.theta(2, 3)
        assert not loaded.has_delta(3)

    def test_zero_size_entries(self):
        table = RipTable("t")
        assert table.delta(0).value == 0.0
        assert table.theta(0, 3).value == 0.0
        assert table.theta(3, 0).value == 0.0

    def test_missing_entry_raises(self):
        table = RipTable("t")
        with pytest.raises(InsufficientRipTable):
            table.delta(2)
        with pytest.raises(InsufficientRipTable):
            table.theta(1, 2)

    def test_monotone_validation(self):
        _, table = self.make_table()
        table.validate_monotone()
        bad = RipTable("b")
        bad.set_delta(1, 0.9, True)
        bad.set_delta(2, 0.1, True)
        with pytest.raises(ValueError):
            bad.validate_monotone()

    def test_sampled_tables_are_monotone(self):
        A = gen_gaussian_matrix(10, 30, 8)
        table = build_rip_table(
            A, [1, 2, 3, 4, 5], [(1, 1), (1, 2), (2, 2), (2, 4)],
            mode="sampled", trials=100, seed=5,
        )
        table.validate_monotone()
        assert not table.delta(3).exact


class TestSupportThresholds:
    def test_orthonormal_hits_scan_limit(self):
        I = MeasurementMatrix(np.eye(12))
        table = build_rip_table(I, range(1, 13), [(s, 2 * s) for s in range(1, 5)], mode="exact")
        s_star, s_ss = s_star_s_starstar(table, scan_limit=4)
        assert (s_star, s_ss) == (4, 4)

    def test_first_condition_fails(self):
        table = RipTable("x")
        table.set_delta(1, 0.6, True)
        table.set_delta(2, 0.7, True)
        table.set_theta(1, 2, 0.1, True)
        assert s_star_s_starstar(table, scan_limit=1)[0] == 0

    def test_hand_scan(self):
        # delta_2=0.3, delta_4=0.8, theta_{1,2}=0.2, theta_{2,4}=0.5, delta_3 < 1/2
        table = RipTable("x")
        table.set_delta(1, 0.2, True)
        table.set_delta(2, 0.3, True)
        table.set_delta(3, 0.4, True)
        table.set_delta(4, 0.8, True)
        table.set_theta(1, 2, 0.2, True)
        table.set_theta(2, 4, 0.5, True)
        s_star, s_ss = s_star_s_starstar(table, scan_limit=3)
        assert s_star == 3      # delta_4 >= 1/2 would stop the scan at 3 anyway
        assert s_ss == 1        # 0.3+0.2 < 1 but 0.8+0.5 >= 1

    def test_insufficient_table(self):
        table = RipTable("x")
        table.set_delta(1, 0.1, True)
        with pytest.raises(InsufficientRipTable):
            s_star_s_starstar(table, scan_limit=3)
