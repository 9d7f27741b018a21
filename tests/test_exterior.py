import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signspectra import exterior
from signspectra.core import _frobenius_norm, pair_count
from signspectra.exterior import (
    MAX_COMPOUND_BASE,
    compound2,
    exterior_product,
    verify_eigenvalue_products,
    w_matrix,
)
from signspectra.gen import cyclic_h, nonneg_irreducible, reducible_blocks, scrambled, tp2
from signspectra.spectral import Facts
from signspectra.wsets import WSet, canonical_m

from helpers import (
    EXAMPLE1,
    EXAMPLE1_COMPOUND,
    STABLE_ODD_CELLS,
    cycle_matrix,
    pairs_within,
    random_wset,
    reference_eigenvalue_products,
    reference_minor_grid,
    scramble_pairs,
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
        n = MAX_COMPOUND_BASE + 1
        message = f"^second compound: base dimension {n} exceeds {MAX_COMPOUND_BASE}; "
        with pytest.raises(ValueError, match=message):
            compound2(np.zeros((n, n)))
        with pytest.raises(ValueError, match=message):
            w_matrix(np.zeros((n, n)), canonical_m(n))


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
        assert pairs_within(ev_rev, ev_nat, 1e-9 * max(1.0, np.abs(ev_nat).max()))

    def test_random_orientations_preserve_spectrum(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            w = random_wset(n, rng)
            ev_w = np.linalg.eigvals(w_matrix(a, w).entries)
            ev_c = np.linalg.eigvals(compound2(a))
            assert pairs_within(ev_w, ev_c, 1e-9 * max(1.0, np.abs(ev_c).max()))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="n=3"):
            w_matrix(np.eye(3), canonical_m(4))


# Entries near 1e200 make some minors overflow to inf, and inf - inf to nan.
LARGE_ENTRIES = st.sampled_from([0.0, 1.0, -2.5, 0.3, 1e200, -3e200, 7e199])


def assert_grid_or_overflow(build, expected) -> None:
    """`build()` gives the reference grid `expected` bit for bit when that
    grid is finite, and raises the one overflow error otherwise."""
    if np.isfinite(expected).all():
        assert np.array_equal(build(), expected)
    else:
        with pytest.raises(ValueError, match="^second compound: matrix entries must be finite$"):
            build()


class TestMinorGridOracle:
    """compound2 and w_matrix gather their minors by rows; the definition,
    evaluated entry by entry, must give the same bits, and an inf or nan
    minor must be rejected rather than returned."""

    @given(st.integers(min_value=2, max_value=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_definition(self, n, data):
        a = np.array(data.draw(st.lists(LARGE_ENTRIES, min_size=n * n, max_size=n * n)))
        a = a.reshape(n, n)
        natural = list(itertools.combinations(range(1, n + 1), 2))
        assert_grid_or_overflow(lambda: compound2(a), reference_minor_grid(a, natural))
        w = random_wset(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        assert_grid_or_overflow(lambda: w_matrix(a, w).entries, reference_minor_grid(a, w.pairs))

    def test_overflowing_minors(self):
        a = np.array([[1e200, 1e200, 1.0], [1e200, 1e200, 1.0], [1.0, 2.0, 1e200]])
        expected = reference_minor_grid(a, [(1, 2), (1, 3), (2, 3)])
        assert np.isnan(expected).any() and np.isinf(expected).any()
        assert_grid_or_overflow(lambda: compound2(a), expected)
        w = WSet(3, np.tril(np.ones((3, 3), dtype=bool)))
        assert_grid_or_overflow(lambda: w_matrix(a, w).entries, reference_minor_grid(a, w.pairs))


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
        assert check.residual <= 1e-12

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
        # The documented bound 16 n u ||A||_F^2, which scales as s^2 under
        # A -> sA.
        a = 100.0 * np.eye(3)
        check = verify_eigenvalue_products(a)
        assert check.ok
        assert check.tol == pytest.approx(16 * 3 * 2.0**-53 * 3 * 100.0**2)
        a = np.random.default_rng(8).normal(size=(5, 5))
        for s in (1e-13, 7.0, 1e100):
            assert verify_eigenvalue_products(s * a).tol == pytest.approx(
                s * s * verify_eigenvalue_products(a).tol
            )

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

    def test_overflowing_minor_is_the_compound_error(self):
        a = np.array([[1e200, 2e200, 0.0], [3e200, 4e200, 1.0], [0.0, 1.0, 1.0]])
        for w in (None, canonical_m(3)):
            with pytest.raises(ValueError, match="^second compound: matrix entries must be finite$"):
                verify_eigenvalue_products(a, w)

    def test_facts_in_place_of_the_matrix(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 5, 7):
            a = rng.integers(-5, 6, size=(n, n)).astype(float)
            for w in (None, random_wset(n, rng)):
                expected = verify_eigenvalue_products(a, w)
                got = verify_eigenvalue_products(Facts(a), w)
                assert (got.ok, got.tol, got.residual) == (
                    expected.ok, expected.tol, expected.residual
                )
                assert np.array_equal(got.products, expected.products)

    def test_one_by_one_has_no_products(self):
        check = verify_eigenvalue_products([[4.0]])
        assert check.ok
        assert check.products.size == 0
        assert check.residual == 0.0


def acceptance_inputs():
    """(matrix, W set or None) for the inputs of criteria 04 and 07-11, the
    scrambled twins included, whose W matrix has at most 400 rows."""
    rng = np.random.default_rng(20260401)  # criterion 04
    for i in range(200):
        n = (3, 4, 5, 6)[i % 4]
        a = rng.integers(-5, 6, size=(n, n)).astype(float)
        for _ in range(3):
            yield a, random_wset(n, rng)
    for a in family_inputs():
        yield a, None
    rng = np.random.default_rng(20260419)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        yield rng.integers(-5, 6, size=(n, n)).astype(float), None


def family_inputs():
    """The matrices of criteria 07-11, the scrambled twins included, whose
    compound has at most 400 rows."""
    for n in range(1, 13):  # criterion 07
        for h in range(1, n + 1):
            yield cyclic_h(n, h, seed=10 * n + h)
    for i in range(1000):  # criterion 08
        n, h = STABLE_ODD_CELLS[i % len(STABLE_ODD_CELLS)]
        base = cyclic_h(n, h, seed=i)
        yield base
        yield scrambled(base, seed=i)
    for i in range(200):  # criterion 09
        base = tp2((3, 4, 5)[i % 3], seed=i)
        yield base
        yield scrambled(base, seed=i)
    rng = np.random.default_rng(20260404)  # criterion 10
    pool = [cycle_matrix(3), cycle_matrix(5), cycle_matrix(7), tp2(3, seed=9)]
    for _ in range(100):
        n_blocks = int(rng.integers(2, 5))
        picks = [int(rng.integers(0, len(pool))) for _ in range(n_blocks)]
        n_attain = int(rng.integers(2, n_blocks + 1))
        attaining = set(rng.permutation(n_blocks)[:n_attain].tolist())
        targets = [
            1.0 if t in attaining else float(rng.choice([0.4, 0.6, 0.7]))
            for t in range(n_blocks)
        ]
        a = reducible_blocks([pool[p] for p in picks], rho_targets=targets)
        if pair_count(a.shape[0]) <= 400:
            yield a
    for base, twin in scramble_pairs():  # criterion 11
        yield base
        yield twin


def edge_inputs():
    u = 0.37 * np.arange(1.0, 7.0)
    v = 1.3 * np.arange(2.0, 8.0)
    return {
        "zero": np.zeros((3, 3)),
        "jordan-4": 2.0 * np.eye(4) + np.eye(4, k=1),
        "jordan-6-zero": np.eye(6, k=1),
        "two-jordan": np.kron(np.eye(2), 3.0 * np.eye(3) + np.eye(3, k=1)),
        "shift-5": np.eye(5, k=1),
        "rank-one": np.outer(u, v),
        "cyclic-7-7-1e100": cyclic_h(7, 7) * 1e100,
        "cyclic-7-7-1e-13": cyclic_h(7, 7) * 1e-13,
    }


class TestCertificateAgainstDenseOracle:
    """The certificate and the dense eigvals-and-matching check give the same
    verdict wherever both apply."""

    def test_acceptance_families_and_random_integers(self):
        scattered = 0
        for a, w in acceptance_inputs():
            ok = verify_eigenvalue_products(a, w).ok
            if ok != reference_eigenvalue_products(a, w):
                # The dense check rejects 8 criterion-07 cycles, from
                # cyclic_h(9, 5) to cyclic_h(12, 9), whose defective zero
                # eigenvalue eigvals scatters beyond 1e-6 in C2; it agrees
                # once that cluster is compared by count, as criterion 07
                # itself does.
                cut = 1e-3 * max(1.0, float(np.abs(np.linalg.eigvals(a)).max()))
                assert ok and reference_eigenvalue_products(a, w, cut=cut), a.tolist()
                scattered += 1
        assert scattered == 8

    @pytest.mark.parametrize("name", sorted(edge_inputs()))
    def test_edge_cases(self, name):
        # Each certifies on the first Schur pass, the Jordan blocks included:
        # eig of a triangular matrix returns triangular eigenvectors.
        a = edge_inputs()[name]
        check, passes = check_and_passes(a)
        assert check.ok and reference_eigenvalue_products(a)
        assert check.residual <= check.tol
        assert passes == 1


def benchmark_inputs():
    """The cli-corpus inputs, at benchmark seeds 132 and 405, whose first
    Schur pass fails its gate, and the first criterion-07 cycle that does."""
    return [
        nonneg_irreducible(20, 0.1, seed=13206121),
        tp2(12, seed=40500061),
        scrambled(tp2(12, seed=40500061), j_set=[1]),
        cyclic_h(9, 5, seed=95),
    ]


def check_and_passes(a, w=None):
    """The product-law check of `a` and the number of passes, one eig call
    each, that its Schur form took."""
    calls = []
    eig = np.linalg.eig

    def counting(m):
        calls.append(m)
        return eig(m)

    with mock.patch.object(np.linalg, "eig", counting):
        return verify_eigenvalue_products(a, w), len(calls)


def oracle_check(a, w=None):
    """The product-law certificate on scipy's complex Schur form, the oracle."""
    import scipy.linalg

    def schur(m, norm):
        return scipy.linalg.schur(m, output="complex")

    with mock.patch.object(exterior, "_schur_form", schur):
        return verify_eigenvalue_products(a, w)


def eig_and_qr_check(a, w=None):
    """The certificate on the undeflated form T = triu(Q* A Q), V = QR for the
    eigenvectors V of A, and whether that form drops at most the gate."""
    within = []

    def eig_and_qr(m, norm):
        q = np.linalg.qr(np.linalg.eig(m)[1].astype(complex))[0]
        with np.errstate(over="ignore", invalid="ignore"):
            s = q.conj().T @ m @ q
        gate = exterior._SCHUR_GATE * m.shape[0] * 2.0**-53 * norm
        within.append(np.isfinite(s).all() and _frobenius_norm(np.tril(s, -1)) <= gate)
        return np.triu(s), q

    with mock.patch.object(exterior, "_schur_form", eig_and_qr):
        check = verify_eigenvalue_products(a, w)
    return check, all(within)


def conjugated_jordan(seed):
    """A seeded real matrix of size 3 to 24 similar to Jordan blocks of up to
    8, about half of them with eigenvalue 0, by an orthogonal or a Gaussian
    similarity."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    j = np.zeros((n, n))
    start = 0
    while start < n:
        size = min(n - start, int(rng.integers(1, 9)))
        value = 0.0 if rng.random() < 0.5 else float(rng.normal())
        j[start : start + size, start : start + size] = value * np.eye(size) + np.eye(size, k=1)
        start += size
    g = rng.normal(size=(n, n))
    if rng.random() < 0.5:
        q = np.linalg.qr(g)[0]
        return q @ j @ q.T
    return g @ j @ np.linalg.inv(g)


class TestSchurFallback:
    """The Schur form comes from numpy's eig and QR alone.  Its `ok` equals
    that of scipy's complex Schur form, and wherever eig's eigenvectors give
    a form within the gate, the certificate is exactly that form's."""

    def test_verdicts_match_the_scipy_only_certificate(self):
        cases = [
            *acceptance_inputs(),
            *((a, None) for a in edge_inputs().values()),
            *((a, None) for a in benchmark_inputs()),
        ]
        deflated = []
        for a, w in cases:
            facts = Facts(a)
            check, passes = check_and_passes(facts, w)
            assert check.ok == oracle_check(facts, w).ok, a.tolist()
            reference, within = eig_and_qr_check(facts, w)
            if within:
                assert passes <= 1
                fields = (check.ok, check.tol, check.residual)
                assert fields == (reference.ok, reference.tol, reference.residual)
                assert np.array_equal(check.products, reference.products)
            else:
                deflated.append(passes)
        # The five criterion-07 cycles from cyclic_h(9, 5) to cyclic_h(12, 7),
        # whose defective zero eigenvalue leaves eig's eigenvectors nearly
        # parallel, and the four benchmark specs.
        assert deflated == [2] * 9

    def test_gate_failure_falls_back(self):
        a = cyclic_h(9, 5, seed=95)
        assert not eig_and_qr_check(a)[1]
        check, passes = check_and_passes(a)
        assert check.ok and passes == 2
        assert check.tol == oracle_check(a).tol

    def test_eig_failure_falls_back(self):
        # np.linalg.LinAlgError is a ValueError, so verify-corpus reports it
        # as the error of its spec, in the first pass or in a later one.
        a = cyclic_h(9, 5, seed=95)
        first = np.linalg.eig(a)
        for effects in ([np.linalg.LinAlgError("eig failed")], [first, np.linalg.LinAlgError("eig failed")]):
            with mock.patch.object(np.linalg, "eig", side_effect=effects):
                with pytest.raises(ValueError, match="eig failed"):
                    verify_eigenvalue_products(a)

    def test_conjugated_jordan_blocks_match_scipy(self):
        # Ordering each later pass by eigenpair residual matters here: in
        # eig's order, a deflated block can keep a column whose eigenvector
        # is off, and the certificate then fails where scipy's passes.
        passes = []
        for seed in range(600):
            a = conjugated_jordan(seed)
            check, count = check_and_passes(a)
            assert check.ok == oracle_check(a).ok, seed
            passes.append(count)
        assert max(passes) <= 20 and sum(count > 1 for count in passes) >= 100

    @pytest.mark.parametrize("n, block", [(77, 40), (180, 90)])
    def test_deflation_at_the_top_of_the_range(self, n, block):
        # A nilpotent Jordan block on the leading coordinates, conjugated by
        # an orthogonal matrix: the backward error stays near the gate.
        rng = np.random.default_rng(n)
        j = np.diag(rng.normal(size=n))
        j[:block, :block] = np.eye(block, k=1)
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        a = q @ j @ q.T
        norm = _frobenius_norm(a)
        t, z = exterior._schur_form(a, norm)
        assert np.array_equal(t, np.triu(t))
        assert np.linalg.norm(z.conj().T @ z - np.eye(n)) <= 10 * n * 2.0**-53
        backward = np.linalg.norm(z @ t @ z.conj().T - a) / (n * 2.0**-53 * norm)
        assert backward <= 2 * exterior._SCHUR_GATE


class TestProductLawInvariance:
    """The product-law verdict depends only on the matrix: on the criterion
    07-11 families it is unchanged by an exact rescaling by 2^k and by a +-1
    diagonal scrambling DAD, on the first Schur pass and on deflated forms."""

    def test_power_of_two_scaling_and_scrambling(self):
        # The power cycles with the input's place, so every family, and the
        # five criterion-07 cycles whose Schur form deflates, meet several.
        powers = (-40, -1, 1, 40)
        for i, a in enumerate(family_inputs()):
            ok = verify_eigenvalue_products(a).ok
            k = powers[i % 4]
            assert verify_eigenvalue_products(np.ldexp(a, k)).ok == ok, (k, a.tolist())
            assert verify_eigenvalue_products(scrambled(a, seed=i)).ok == ok, a.tolist()


MUTATION_INPUTS = {
    "tp2-12": lambda: tp2(12),
    "tp2-20": lambda: tp2(20),
    "cyclic_h-9-9": lambda: cyclic_h(9, 9),
    "nonneg_irreducible-20-0.1": lambda: nonneg_irreducible(20, 0.1),
}


def mutated_check(a, entries):
    """The product-law check of `a` with `entries` in place of its C2."""
    facts = Facts(a)
    facts.compound = entries
    return verify_eigenvalue_products(facts)


def assert_rejected(a, entries, context) -> None:
    """The mutant `entries` fails the certificate."""
    assert not mutated_check(a, entries).ok, context


class TestCertificateMutations:
    """A wrong C2 fails the certificate, though the dense check, whose
    tolerance 1e-6 max(1, rho^2) is vacuous on wide spectra, misses most of
    these mutants."""

    @pytest.mark.parametrize("name", sorted(MUTATION_INPUTS))
    def test_one_entry_off(self, name):
        a = MUTATION_INPUTS[name]()
        c2 = compound2(a)
        assert mutated_check(a, c2).ok
        rng = np.random.default_rng(61)
        size = c2.shape[0]
        for r, c in [(0, 0), (0, size - 1), (size - 1, 0), *rng.integers(0, size, (5, 2))]:
            wrong = c2.copy()
            wrong[r, c] += 1e-8 * np.linalg.norm(c2)
            assert_rejected(a, wrong, (r, c))

    @pytest.mark.parametrize("name", sorted(MUTATION_INPUTS))
    def test_two_pair_rows_swapped(self, name):
        a = MUTATION_INPUTS[name]()
        c2 = compound2(a)
        rng = np.random.default_rng(67)
        size = c2.shape[0]
        swaps = [(0, 1), (size - 2, size - 1)]
        swaps += [tuple(rng.choice(size, 2, replace=False)) for _ in range(6)]
        tested = 0
        for r, s in swaps:
            wrong = c2.copy()
            wrong[[r, s]] = wrong[[s, r]]
            if np.linalg.norm(wrong - c2) > 1e-8 * np.linalg.norm(c2):
                tested += 1
                assert_rejected(a, wrong, (r, s))
        assert tested >= 4
