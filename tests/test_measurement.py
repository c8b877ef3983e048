import math

import numpy as np
import pytest

from lscs.measurement import (
    EnumerationBudgetExceeded,
    InsufficientRipTable,
    MeasurementMatrix,
    RipTable,
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
