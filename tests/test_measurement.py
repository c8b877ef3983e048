import json
import math
import tracemalloc
import warnings
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
    build_rip_table,
    delta_exhaustive,
    delta_sampled,
    gen_gaussian_matrix,
    gen_matrix,
    gen_perturbed_orthonormal_matrix,
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


def count_eigvalsh_blocks(monkeypatch) -> list[int]:
    """Record the number of blocks of each ``eigvalsh`` call the measurement
    module makes: the blocks it evaluates exactly."""
    counts = []
    eigvalsh = np.linalg.eigvalsh

    def counting(blocks):
        counts.append(len(blocks))
        return eigvalsh(blocks)

    monkeypatch.setattr(measurement.np.linalg, "eigvalsh", counting)
    return counts


def count_bounded_blocks(monkeypatch) -> list[int]:
    """Record the number of blocks of each ``_radius_bounds`` call: the
    blocks the measurement module bounds."""
    counts = []
    radius_bounds = measurement._radius_bounds

    def counting(X):
        counts.append(len(X))
        return radius_bounds(X)

    monkeypatch.setattr(measurement, "_radius_bounds", counting)
    return counts


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        raw = gen_gaussian_matrix(4, 6, 1).entries.copy()
        raw[0, 3] = bad
        with warnings.catch_warnings():
            # non-finite input is rejected before any arithmetic on it
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                MeasurementMatrix(raw)
            with pytest.raises(ValueError, match="finite"):
                MeasurementMatrix.from_columns(raw)

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
        expected = reference_theta(A, S, Sp)
        evaluated = count_eigvalsh_blocks(monkeypatch)
        assert theta_exhaustive(A, S, Sp) == expected
        pairs = math.comb(A.m, S) * math.comb(A.m - S, Sp) // (2 if S == Sp else 1)
        assert 0 < sum(evaluated) <= 0.02 * pairs

    def test_prune_skips_almost_every_subset(self, monkeypatch):
        # the prefix groups leave 2,990 of 8,008 (S = 6) and 4,032 of 12,870
        # (S = 8) blocks to bound; 2 of each get their eigenvalues computed
        A = gen_perturbed_orthonormal_matrix(16, 16, 1, 0.2)
        expected = {S: reference_delta(A, S) for S in (6, 8)}
        evaluated = count_eigvalsh_blocks(monkeypatch)
        bounded = count_bounded_blocks(monkeypatch)
        for S, most_bounded in [(6, 3_500), (8, 5_000)]:
            evaluated.clear()
            bounded.clear()
            assert delta_exhaustive(A, S) == expected[S]
            assert sum(bounded) <= most_bounded, S
            assert 0 < sum(evaluated) <= 0.001 * math.comb(16, S), S

    def test_unpruned_design_keeps_chunk_sized_calls(self, monkeypatch):
        # every group's cap beats delta = 0, so every block is evaluated; one
        # call takes the first group and the rest fill _CHUNK rows, against
        # ceil(12870 / _CHUNK) = 7 calls for a plain enumeration
        A = MeasurementMatrix(np.eye(16))
        expected = reference_delta(A, 8)
        calls = []
        delta_max = measurement._delta_max

        def counting(gram, shifted, subsets, worst):
            calls.append(len(subsets))
            return delta_max(gram, shifted, subsets, worst)

        monkeypatch.setattr(measurement, "_delta_max", counting)
        assert delta_exhaustive(A, 8) == expected
        assert sum(calls) == math.comb(16, 8)
        assert len(calls) <= 9

    @pytest.mark.parametrize("A, sizes", [
        (MeasurementMatrix(np.eye(16)), range(1, 17)),
        (MeasurementMatrix.from_columns(
            np.linalg.qr(np.random.default_rng(3).standard_normal((30, 30)))[0]), range(1, 5)),
        (gen_gaussian_matrix(20, 200, 0), [2]),
    ], ids=["identity-16", "orthonormal-30", "gaussian-20x200"])
    def test_designs_the_groups_cannot_prune(self, A, sizes):
        # delta below the slack prunes no group; at m = 30, S = 4 and at
        # m = 200 most groups are too wide to bound; small counts skip the
        # prefix level
        for S in sizes:
            assert delta_exhaustive(A, S) == reference_delta(A, S), S

    @pytest.mark.parametrize("A, S", [
        (MeasurementMatrix(np.eye(24)), 20),
        (gen_gaussian_matrix(12, 24, 2), 20),
        (gen_gaussian_matrix(12, 24, 2), 18),
    ], ids=["identity-24-S20", "gaussian-12x24-S20", "gaussian-12x24-S18"])
    def test_tables_stay_within_the_subset_count(self, A, S, monkeypatch):
        # at S > m / 2 there are more (S - p)-subsets of range(m) than
        # S-subsets, and at S = 18 3,003 prefixes share their last index;
        # the tables and the bounds' gathers must not outgrow the
        # enumeration the budget admits
        tables, entries = [], []
        subsets, radius_bounds = measurement._subsets, measurement._radius_bounds

        def recording_subsets(n, k, rows):
            for block in subsets(n, k, rows):
                tables.append(len(block))
                yield block

        def recording_bounds(X):
            entries.append(X.size)
            return radius_bounds(X)

        monkeypatch.setattr(measurement, "_subsets", recording_subsets)
        monkeypatch.setattr(measurement, "_radius_bounds", recording_bounds)
        assert delta_exhaustive(A, S) == reference_delta(A, S)
        assert 0 < max(tables) <= math.comb(A.m, S)
        assert max(entries) <= measurement._CHUNK * S * S

    @pytest.mark.parametrize("A", [
        gen_gaussian_matrix(8, 16, 1),
        MeasurementMatrix.from_columns(np.random.default_rng(4).choice([-1.0, 0.0, 1.0], (5, 16))),
    ], ids=["gaussian-8x16", "signs-5x16"])
    def test_prefix_groups_at_every_size(self, A):
        # above _CHUNK subsets the groups prune; sign designs tie many blocks
        for S in range(1, A.m + 1):
            assert delta_exhaustive(A, S) == reference_delta(A, S), S

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

    @PROPERTY
    @given(st.data())
    def test_drawn_delta_matrices(self, data):
        # sign designs tie many blocks; orthonormal columns make every
        # G_T - I zero or a rounding error, below the prune's slack
        m = data.draw(st.integers(2, 9), label="m")
        kind = data.draw(st.sampled_from(["signs", "floats", "orthonormal"]), label="kind")
        if kind == "orthonormal":
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            q = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))[0]
            A = MeasurementMatrix.from_columns(q if data.draw(st.booleans(), label="rotated") else np.eye(m))
        else:
            n = data.draw(st.integers(1, 5), label="n")
            entries = (st.sampled_from([-1.0, 0.0, 1.0]) if kind == "signs"
                       else st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False))
            raw = data.draw(arrays(np.float64, (n, m), elements=entries), label="raw")
            assume(np.all(np.linalg.norm(raw, axis=0) > 1e-3))
            A = MeasurementMatrix.from_columns(raw)
        S = data.draw(st.integers(1, m), label="S")
        assert delta_exhaustive(A, S) == reference_delta(A, S)


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

    @pytest.mark.parametrize("A", [
        gen_gaussian_matrix(8, 16, 3),
        gen_perturbed_orthonormal_matrix(16, 16, 2, 0.02),
        tied_matrix(1),
    ], ids=["gaussian", "orthonormal", "tied"])
    def test_pruned_sampled_equals_every_drawn_block(self, A):
        # 2,500 rows span two chunks, so the running max crosses a chunk edge
        trials, seed = 2_500, 7
        perms = measurement._permutations(A.m, trials, seed)
        gram = A.gram()
        for S in range(1, A.m + 1):
            idx = perms[:, :S]
            w = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
            expected = float(np.max(np.maximum(1.0 - w[:, 0], w[:, -1] - 1.0)))
            assert delta_sampled(A, S, trials, seed) == expected, S
        for S, Sp in size_pairs(A.m):
            b = gram[perms[:, :S, None], perms[:, None, A.m - Sp:]]
            w = np.linalg.eigvalsh(b @ np.swapaxes(b, 1, 2))[:, -1]
            expected = float(np.max(np.sqrt(np.maximum(w, 0.0))))
            assert theta_sampled(A, S, Sp, trials, seed) == expected, (S, Sp)

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
        table = build_rip_table(A, mode="exact")
        for s in [1, 2, 3, 4]:
            table.delta(s)
        table.theta(1, 2)
        table.theta(2, 4)
        return A, table

    def test_roundtrip_json(self):
        _, table = self.make_table()
        doc = RipTable.from_json_dict(json.loads(table.to_json()))
        assert doc.matrix_digest == table.matrix_digest
        for s in [1, 2, 3, 4]:
            assert doc.delta(s) == table.delta(s)
        assert doc.theta(2, 4) == table.theta(2, 4)

    def test_sampled_entry_ignores_other_sizes(self):
        # an entry depends only on the matrix, its sizes, trials and seed
        A = gen_gaussian_matrix(16, 16, 5)
        one = build_rip_table(A, mode="sampled", trials=50)
        two = build_rip_table(A, mode="sampled", trials=50)
        one.delta(2)
        two.delta(3)
        two.delta(2)
        assert one.delta(4) == two.delta(4)
        two.theta(1, 1)
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
        table = build_rip_table(A, mode="sampled", trials=40, seed=9)
        values = (table.delta(3).value, table.theta(2, 3).value)
        assert draws == [9]
        assert not measurement._permutations(20, 40, 9).flags.writeable
        measurement._permutations.cache_clear()
        assert (delta_sampled(A, 3, trials=40, seed=9), theta_sampled(A, 2, 3, trials=40, seed=9)) == values
        assert draws == [9, 9]

    def test_bound_table_computes_on_first_read(self, monkeypatch):
        A = gen_gaussian_matrix(6, 10, 3)
        table = build_rip_table(A, mode="exact")
        table.delta(2)
        calls = []

        def counted(A, S, Sp, budget):
            calls.append((S, Sp))
            return theta_exhaustive(A, S, Sp, budget=budget)

        monkeypatch.setattr(measurement, "theta_exhaustive", counted)
        # sizes past m raise without computing anything
        with pytest.raises(InsufficientRipTable):
            table.delta(11)
        with pytest.raises(InsufficientRipTable):
            table.theta(3, 8)
        assert calls == []
        assert table.theta(2, 3) == RipEntry(theta_exhaustive(A, 2, 3), True)
        assert table.theta(2, 3) == table.theta(2, 3)
        assert calls == [(2, 3)]
        # sizes up to m compute
        assert table.theta(2, 8).exact and table.delta(10).exact
        assert calls == [(2, 3), (2, 8)]
        # a table read back from JSON holds the stored entries only
        loaded = RipTable.from_json_dict(json.loads(table.to_json()))
        assert loaded.delta(2) == table.delta(2) and loaded.theta(2, 3) == table.theta(2, 3)
        with pytest.raises(InsufficientRipTable):
            loaded.delta(3)

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
        table = build_rip_table(A, mode="sampled", trials=100, seed=5)
        for s in [1, 2, 3, 4, 5]:
            table.delta(s)
        for pair in [(1, 1), (1, 2), (2, 2), (2, 4)]:
            table.theta(*pair)
        table.validate_monotone()
        assert not table.delta(3).exact
