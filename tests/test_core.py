import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signspectra.core import (
    MAX_DIMENSION,
    Permutation,
    _pair_table,
    as_matrix,
    pair_count,
    pair_index,
    pair_unindex,
)
from signspectra.exterior import compound2, verify_eigenvalue_products
from signspectra.gen import cyclic_h
from signspectra.spectral import Facts, classify
from signspectra.wsets import _triangle_sides, build_w_hat, enumerate_w_candidates, find_transitive_w

from helpers import EXAMPLE1, STABLE_ODD_CELLS, reference_minor_grid


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_matrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="square"):
            as_matrix([1, 2, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="dimension"):
            as_matrix(np.zeros((0, 0)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[np.inf, 0], [0, 1]])

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="maximum"):
            as_matrix(np.zeros((MAX_DIMENSION + 1, MAX_DIMENSION + 1)))

    def test_max_dimension_is_allowed_in_principle(self):
        # Only the validation path; no heavy computation at this size.
        m = as_matrix(np.zeros((MAX_DIMENSION, MAX_DIMENSION)))
        assert m.shape == (MAX_DIMENSION, MAX_DIMENSION)


class TestPairIndexing:
    # Hand-checked positions for n = 5: the ten pairs in lexicographic
    # order are (1,2) (1,3) (1,4) (1,5) (2,3) (2,4) (2,5) (3,4) (3,5) (4,5).
    @pytest.mark.parametrize(
        "i,j,n,alpha",
        [
            (1, 2, 5, 1),
            (1, 5, 5, 4),
            (2, 3, 5, 5),
            (2, 4, 5, 6),
            (3, 5, 5, 9),
            (4, 5, 5, 10),
            (1, 2, 2, 1),
            (1, 3, 3, 2),
        ],
    )
    def test_known_positions(self, i, j, n, alpha):
        assert pair_index(i, j, n) == alpha
        assert pair_unindex(alpha, n) == (i, j)

    def test_matches_exhaustive_enumeration(self):
        # Oracle: generate the pairs with itertools and number them directly.
        for n in range(2, 9):
            for alpha, (i, j) in enumerate(
                itertools.combinations(range(1, n + 1), 2), start=1
            ):
                assert pair_index(i, j, n) == alpha
                assert pair_unindex(alpha, n) == (i, j)

    def test_pair_count(self):
        assert pair_count(1) == 0
        assert pair_count(2) == 1
        assert pair_count(5) == 10

    @pytest.mark.parametrize("bad", [(2, 2, 5), (3, 2, 5), (0, 1, 5), (1, 6, 5)])
    def test_rejects_bad_pairs(self, bad):
        with pytest.raises(ValueError):
            pair_index(*bad)

    def test_unindex_range_errors(self):
        with pytest.raises(ValueError):
            pair_unindex(0, 5)
        with pytest.raises(ValueError):
            pair_unindex(11, 5)

    @given(st.integers(min_value=2, max_value=60), st.data())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, n, data):
        alpha = data.draw(st.integers(min_value=1, max_value=pair_count(n)))
        i, j = pair_unindex(alpha, n)
        assert 1 <= i < j <= n
        assert pair_index(i, j, n) == alpha

    def test_indexer_pairs_table(self):
        # pair_index numbers the pairs in the order of the shared pair table,
        # which is how compound2 lays out its rows and columns.
        i0, j0 = _pair_table(5)
        assert pair_count(5) == len(i0) == 10
        for alpha, (i, j) in enumerate(zip(i0 + 1, j0 + 1), start=1):
            assert pair_index(int(i), int(j), 5) == alpha
            assert pair_unindex(alpha, 5) == (i, j)


class TestIndexTables:
    """The pair and triangle tables are built once per n and shared read-only,
    so a refactor cannot quietly go back to rebuilding them per call."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pair_table_is_triu_indices(self, n):
        i0, j0 = _pair_table(n)
        assert np.array_equal(i0, np.triu_indices(n, k=1)[0])
        assert np.array_equal(j0, np.triu_indices(n, k=1)[1])

    @staticmethod
    def run_pass(bases):
        # classify reaches compound2; find_transitive_w, which classify skips
        # on these zero-diagonal cycles, the listing, the product check and
        # build_w_hat are the other readers of the tables.
        for a in bases:
            facts = Facts(a)
            assert classify(facts).theorem == "T8.2"
            assert find_transitive_w(facts.graph_a, facts.graph_c) is None
            enumerate_w_candidates(a)
            verify_eigenvalue_products(a)
            build_w_hat((), (), len(a))

    def test_second_pass_builds_no_table(self, monkeypatch):
        bases = [cyclic_h(n, h, seed=i) for i, (n, h) in enumerate(STABLE_ODD_CELLS)]
        self.run_pass(bases)
        before = [_pair_table.cache_info(), _triangle_sides.cache_info()]
        # No call site may build its own pair table either.
        built = []
        triu_indices = np.triu_indices

        def counted(*args, **kwargs):
            built.append(args)
            return triu_indices(*args, **kwargs)

        monkeypatch.setattr(np, "triu_indices", counted)
        self.run_pass(bases)
        after = [_pair_table.cache_info(), _triangle_sides.cache_info()]
        for old, new in zip(before, after):
            assert new.misses == old.misses
            assert new.hits >= old.hits + len(bases)
        assert built == []

    def test_tables_are_read_only(self):
        i0, j0 = _pair_table(6)
        sides = _triangle_sides(6)
        for table, index in ((i0, 0), (j0, 0), (sides, (0, 0))):
            with pytest.raises(ValueError, match="read-only"):
                table[index] = 3

    def test_interleaved_sizes_give_fresh_compounds(self):
        rng = np.random.default_rng(8)
        a5, a12 = rng.normal(size=(5, 5)), rng.normal(size=(12, 12))
        _pair_table.cache_clear()
        fresh = compound2(a5)
        compound2(a12)
        assert np.array_equal(compound2(a5), fresh)
        pairs = list(itertools.combinations(range(1, 6), 2))
        assert np.array_equal(fresh, reference_minor_grid(a5, pairs))
        assert np.array_equal(
            compound2(a12), reference_minor_grid(a12, itertools.combinations(range(1, 13), 2))
        )


class TestMinor2:
    """2x2 minors as compound2 entries, located with pair_index."""

    @staticmethod
    def minor(a, i, j, k, l):
        n = np.shape(a)[0]
        return compound2(a)[pair_index(i, j, n) - 1, pair_index(k, l, n) - 1]

    def test_two_by_two_is_determinant(self):
        assert self.minor([[1, 2], [3, 4]], 1, 2, 1, 2) == -2.0

    def test_worked_example_entry(self):
        # Rows (1,5), columns (1,2): a11*a52 - a12*a51 = 0 - 1 = -1.
        assert self.minor(EXAMPLE1, 1, 5, 1, 2) == -1.0

    def test_another_worked_entry(self):
        # Rows (1,2), columns (2,3): a12*a23 - a13*a22 = 1.
        assert self.minor(EXAMPLE1, 1, 2, 2, 3) == 1.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_column_swap_negates(self, seed):
        # Swapping columns k and l of A negates the compound's column (k,l).
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        k, l = sorted(rng.choice(n, size=2, replace=False))
        swapped = a.copy()
        swapped[:, [k, l]] = a[:, [l, k]]
        col = pair_index(k + 1, l + 1, n) - 1
        assert np.array_equal(compound2(swapped)[:, col], -compound2(a)[:, col])


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert p.images == (1, 2, 3, 4)
        assert np.array_equal(p.matrix(), np.eye(4))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1, 2))
        with pytest.raises(ValueError):
            Permutation(())

    def test_inverse(self):
        p = Permutation((3, 1, 2))
        q = p.inverse()
        assert tuple(q(p(i)) for i in (1, 2, 3)) == (1, 2, 3)

    def test_matrix_is_orthogonal(self):
        p = Permutation((2, 4, 1, 3))
        m = p.matrix()
        assert np.array_equal(m @ m.T, np.eye(4))

    def test_conjugation_convention(self):
        # (P^T A P)[u, v] must equal A[images[u], images[v]].
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 5))
        images = tuple(int(v) for v in rng.permutation(5) + 1)
        p = Permutation(images)
        conj = p.matrix().T @ a @ p.matrix()
        direct = a[np.ix_([v - 1 for v in images], [v - 1 for v in images])]
        assert np.allclose(conj, direct, atol=0)
