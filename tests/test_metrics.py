import math

import numpy as np
import pytest

from helpers import dcorr_oracle, pearson_oracle, rmse_oracle
from hiergru.errors import (
    DegenerateDistanceVarianceError,
    DegenerateVarianceError,
    EmptyInputError,
    LengthMismatchError,
    ZeroBaselineError,
)
from hiergru.metrics import (
    distance_correlation,
    pearson,
    relative_rmse,
    rmse,
)


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_three_four_five(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            math.sqrt(12.5), abs=1e-12
        )
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.53553, abs=1e-5)

    def test_single_pair(self):
        assert rmse([2.0], [5.5]) == pytest.approx(3.5)

    def test_symmetry_and_scaling(self):
        rng = np.random.default_rng(0)
        a, p = rng.normal(size=20), rng.normal(size=20)
        assert rmse(a, p) == pytest.approx(rmse(p, a), abs=1e-15)
        assert rmse(3 * a, 3 * p) == pytest.approx(3 * rmse(a, p), rel=1e-12)

    def test_errors(self):
        with pytest.raises(LengthMismatchError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(EmptyInputError):
            rmse([], [])


class TestPearson:
    def test_positive_affine_invariance(self):
        a = np.array([0.3, -1.2, 4.0, 2.2, -0.5])
        assert pearson(a, 2.0 * a + 1.0) == pytest.approx(1.0)

    def test_negation(self):
        a = np.array([0.3, -1.2, 4.0, 2.2])
        assert pearson(a, -a) == pytest.approx(-1.0)

    def test_matches_sum_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 50))
            a = rng.normal(size=n)
            p = rng.normal(size=n)
            assert pearson(a, p) == pytest.approx(
                pearson_oracle(list(a), list(p)), abs=1e-12
            )

    def test_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            pearson([1.0, 1.0, 1.0], [0.1, 0.2, 0.3])
        with pytest.raises(DegenerateVarianceError):
            pearson([1.0], [0.1])


class TestDistanceCorrelation:
    def test_identity(self):
        a = np.array([0.4, 1.3, -2.0, 0.9])
        assert distance_correlation(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_still_one(self):
        a = np.array([0.4, 1.3, -2.0, 0.9, 3.3])
        assert distance_correlation(a, -a) == pytest.approx(1.0, abs=1e-12)

    def test_matches_double_centering_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=20)
        p = 0.5 * a + rng.normal(size=20)
        assert distance_correlation(a, p) == pytest.approx(
            dcorr_oracle(list(a), list(p)), abs=1e-10
        )

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        a, p = rng.normal(size=15), rng.normal(size=15)
        assert distance_correlation(a + 7.0, p - 3.0) == pytest.approx(
            distance_correlation(a, p), abs=1e-12
        )

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            v = distance_correlation(rng.normal(size=n), rng.normal(size=n))
            assert 0.0 <= v <= 1.0

    def test_self_dcov_equals_dvar(self):
        # dCov^2(X, X) = dVar^2(X) makes the self correlation exactly 1
        rng = np.random.default_rng(5)
        a = rng.normal(size=12)
        assert distance_correlation(a, a) == pytest.approx(1.0, abs=1e-14)

    def test_degenerate(self):
        with pytest.raises(DegenerateDistanceVarianceError):
            distance_correlation([2.0, 2.0, 2.0], [0.1, 0.2, 0.3])


class TestRelativeRmse:
    def test_self_is_exactly_one(self):
        assert relative_rmse(0.37, 0.37) == 1.0

    def test_zero_model(self):
        assert relative_rmse(0.0, 2.0) == 0.0

    def test_half(self):
        assert relative_rmse(2.0, 4.0) == 0.5

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaselineError):
            relative_rmse(1.0, 0.0)


class TestCrossChecks:
    def test_rmse_against_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(1, 50))
            a = rng.normal(size=n)
            p = rng.normal(size=n)
            assert rmse(a, p) == pytest.approx(
                rmse_oracle(list(a), list(p)), abs=1e-12
            )
