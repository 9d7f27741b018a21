import warnings

import numpy as np
import pytest

from signspectra.core import pair_count
from signspectra.exterior import (
    MAX_COMPOUND_BASE,
    compound2,
    exterior_product,
    verify_eigenvalue_products,
    w_matrix,
)
from signspectra.spectral import Facts
from signspectra.wsets import WSet, canonical_m

from helpers import (
    EXAMPLE1,
    EXAMPLE1_COMPOUND,
    hungarian_close,
    random_wset,
)


class TestCompound2:
    def test_worked_example_bit_exact(self):
        assert np.array_equal(compound2(EXAMPLE1), EXAMPLE1_COMPOUND)

    def test_identity_maps_to_identity(self):
        for n in (2, 3, 5):
            assert np.array_equal(compound2(np.eye(n)), np.eye(pair_count(n)))

    def test_diagonal_two_by_two(self):
        assert np.array_equal(compound2([[2.0, 0.0], [0.0, 3.0]]), [[6.0]])

    def test_multiplicative(self):
        # Oracle: the minor grid of a product is the product of minor grids.
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, n))
            left = compound2(a @ b)
            right = compound2(a) @ compound2(b)
            assert np.allclose(left, right, rtol=1e-10, atol=1e-10)

    def test_scaling_is_quadratic(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        assert np.allclose(compound2(2.5 * a), 2.5**2 * compound2(a), rtol=1e-12)

    def test_rejects_one_by_one(self):
        with pytest.raises(ValueError, match="n >= 2"):
            compound2([[1.0]])

    def test_rejects_oversized_base(self):
        with pytest.raises(ValueError, match=str(MAX_COMPOUND_BASE)):
            compound2(np.zeros((MAX_COMPOUND_BASE + 1, MAX_COMPOUND_BASE + 1)))


class TestWMatrix:
    def test_natural_orientation_equals_compound(self):
        wm = w_matrix(EXAMPLE1, canonical_m(5))
        assert np.array_equal(wm.entries, EXAMPLE1_COMPOUND)
        assert wm.pair_order[0] == (1, 2)
        assert wm.base_n == 5

    def test_identity_for_any_orientation(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            w = random_wset(n, rng)
            assert np.array_equal(w_matrix(np.eye(n), w).entries, np.eye(pair_count(n)))

    def test_reversed_orientation_preserves_spectrum(self):
        # Fully reversed pair order: member (i, j) iff i >= j.
        n = 5
        w_rev = WSet(n, np.tril(np.ones((n, n), dtype=bool)))
        rng = np.random.default_rng(5)
        a = rng.normal(size=(n, n))
        ev_rev = np.linalg.eigvals(w_matrix(a, w_rev).entries)
        ev_nat = np.linalg.eigvals(compound2(a))
        assert hungarian_close(ev_rev, ev_nat, 1e-9 * max(1.0, np.abs(ev_nat).max()))

    def test_random_orientations_preserve_spectrum(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            w = random_wset(n, rng)
            ev_w = np.linalg.eigvals(w_matrix(a, w).entries)
            ev_c = np.linalg.eigvals(compound2(a))
            assert hungarian_close(ev_w, ev_c, 1e-9 * max(1.0, np.abs(ev_c).max()))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="n=3"):
            w_matrix(np.eye(3), canonical_m(4))


class TestExteriorProduct:
    def test_basis_vectors(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        # Natural order pairs: (1,2), (1,3), (2,3).
        assert exterior_product(x, y).tolist() == [1.0, 0.0, 0.0]
        assert exterior_product(y, x).tolist() == [-1.0, 0.0, 0.0]

    def test_self_product_vanishes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=6)
        assert np.allclose(exterior_product(x, x), 0.0, atol=0)

    def test_action_of_minor_grid(self):
        # The defining identity: the minor grid applied to a pair product
        # equals the pair product of the mapped vectors.
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            lhs = compound2(a) @ exterior_product(x, y)
            rhs = exterior_product(a @ x, a @ y)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_respects_orientation(self):
        rng = np.random.default_rng(29)
        n = 4
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        w = random_wset(n, rng)
        vals = exterior_product(x, y, w)
        for p, (i, j) in enumerate(w.pairs):
            assert vals[p] == pytest.approx(
                x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1], rel=1e-12, abs=1e-12
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            exterior_product([1.0, 2.0], [1.0, 2.0, 3.0])


class TestEigenvalueProducts:
    def test_diagonal_exact(self):
        check = verify_eigenvalue_products(np.diag([1.0, 2.0, 3.0]))
        assert check.ok
        assert sorted(check.products.real.tolist()) == [2.0, 3.0, 6.0]
        assert check.max_distance <= 1e-12

    def test_worked_example(self):
        check = verify_eigenvalue_products(EXAMPLE1)
        assert check.ok

    def test_random_matrices_any_orientation(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.integers(-5, 6, size=(n, n)).astype(float)
            w = random_wset(n, rng)
            assert verify_eigenvalue_products(a, w).ok

    def test_default_tolerance_scales_with_radius(self):
        a = 100.0 * np.eye(3)
        check = verify_eigenvalue_products(a)
        assert check.ok
        assert check.tol == pytest.approx(1e-6 * 100.0**2)

    @pytest.mark.parametrize(
        "a",
        [
            # Finite entries whose 2 x 2 minors overflow to inf - inf = NaN.
            np.array([[1e200, 2e200, 0.0], [3e200, 4e200, 1.0], [0.0, 1.0, 1.0]]),
            # A finite compound [[1e-40]], but rho^2 = 1e320 overflows.
            np.diag([1e160, 1e-200]),
        ],
    )
    def test_overflow_is_value_error(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError):
                verify_eigenvalue_products(a)

    def test_facts_in_place_of_the_matrix(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 5, 7):
            a = rng.integers(-5, 6, size=(n, n)).astype(float)
            for w in (None, random_wset(n, rng)):
                expected = verify_eigenvalue_products(a, w)
                got = verify_eigenvalue_products(Facts(a), w)
                assert (got.ok, got.tol, got.max_distance) == (
                    expected.ok, expected.tol, expected.max_distance
                )
                assert np.array_equal(got.products, expected.products)
                assert np.array_equal(got.w_eigenvalues, expected.w_eigenvalues)

    def test_one_by_one_has_no_products(self):
        check = verify_eigenvalue_products([[4.0]])
        assert check.ok
        assert check.products.size == 0
        assert check.max_distance == 0.0

    def test_detects_wrong_grid(self):
        # Sanity: the check must be able to fail.  An asymmetric tolerance
        # squeeze on a matrix with nonzero products cannot pass at tol 0.
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        check = verify_eigenvalue_products(a, tol=-1.0)
        assert not check.ok
