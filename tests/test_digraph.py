import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from signspectra.digraph import (
    FrobeniusForm,
    ReducibleInputError,
    frobenius_form,
    imprimitivity_index,
    is_irreducible,
)
from signspectra.gen import cyclic_h, nonneg_irreducible, reducible_blocks, tp2
from signspectra.spectral import classify

from helpers import (
    EXAMPLE1,
    count_calls,
    cycle_matrix,
    kosaraju_components,
    pairs_within,
    reference_block_order,
    reference_frobenius_form,
)


def random_pattern(rng, n, density):
    a = (rng.random((n, n)) < density).astype(float)
    a *= rng.uniform(0.5, 1.5, size=(n, n))
    return a


def one_way_pattern(rng, n, sink):
    """A strongly connected pattern on n - 1 nodes plus one node joined to
    it by arcs in one direction only (into it for a sink, out of it for a
    source), under a random relabelling.  Node 0 then reaches every node
    but not every node reaches node 0, or the reverse."""
    a = np.zeros((n, n))
    order = rng.permutation(n - 1)
    a[order, np.roll(order, -1)] = 1.0
    a[: n - 1, : n - 1] += random_pattern(rng, n - 1, 0.2)
    linked = rng.random(n - 1) < 0.5
    linked[rng.integers(n - 1)] = True
    if sink:
        a[: n - 1, n - 1] = linked
    else:
        a[n - 1, : n - 1] = linked
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)]


def scipy_irreducible(a):
    n_comp, _ = connected_components(
        csr_matrix(a != 0), directed=True, connection="strong"
    )
    return n_comp == 1


def cycle_length_gcd(a):
    """gcd{k <= n : trace(P^k) > 0} by boolean matrix powers of the pattern."""
    p = (a != 0).astype(np.int64)
    power = np.eye(a.shape[0], dtype=np.int64)
    h = 0
    for k in range(1, a.shape[0] + 1):
        power = np.minimum(power @ p, 1)
        if np.trace(power) > 0:
            h = math.gcd(h, k)
    return h


class TestIrreducibility:
    def test_cycle_is_irreducible(self):
        assert is_irreducible(EXAMPLE1)

    def test_triangular_is_reducible(self):
        assert not is_irreducible(np.array([[1.0, 1.0], [0.0, 2.0]]))

    def test_one_by_one_convention(self):
        assert is_irreducible(np.zeros((1, 1)))
        assert is_irreducible(np.array([[5.0]]))

    def test_matches_boolean_closure(self):
        # Oracle: strongly connected iff (I + pattern)^(n-1) is all-positive.
        rng = np.random.default_rng(101)
        seen = {True: 0, False: 0}
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = random_pattern(rng, n, rng.choice([0.15, 0.3, 0.6]))
            closure = np.linalg.matrix_power(
                np.eye(n, dtype=np.int64) + (a != 0), n - 1
            )
            expected = bool((closure > 0).all())
            assert is_irreducible(a) == expected
            seen[expected] += 1
        assert seen[True] > 0 and seen[False] > 0


class TestSearchAgainstOracles:
    def test_random_and_one_way_patterns(self):
        rng = np.random.default_rng(211)
        seen = dict.fromkeys(
            ("irreducible", "reducible", "out_of_0_only", "into_0_only"), 0
        )
        for trial in range(600):
            n = int(rng.integers(2, 11))
            if trial % 3 == 2:
                a = random_pattern(rng, n, rng.choice([0.1, 0.2, 0.35, 0.6]))
            else:
                a = one_way_pattern(rng, n, sink=trial % 3 == 0)
            closure = np.linalg.matrix_power(
                np.eye(n, dtype=np.int64) + (a != 0), n - 1
            ) > 0
            irreducible = scipy_irreducible(a)
            assert is_irreducible(a) == irreducible
            if irreducible:
                seen["irreducible"] += 1
                res = imprimitivity_index(a)
                assert res.h == cycle_length_gcd(a)
                assert len(res.cyclic_classes) == res.h
                assert 1 in res.cyclic_classes[0]
                assert sorted(v for c in res.cyclic_classes for v in c) == list(
                    range(1, n + 1)
                )
                position = np.empty(n, dtype=np.int64)
                for c, members in enumerate(res.cyclic_classes):
                    position[np.asarray(members) - 1] = c
                rows, cols = np.nonzero(a)
                assert (position[cols] == (position[rows] + 1) % res.h).all()
            else:
                seen["reducible"] += 1
                seen["out_of_0_only"] += bool(closure[0].all())
                seen["into_0_only"] += bool(closure[:, 0].all())
                with pytest.raises(ReducibleInputError):
                    imprimitivity_index(a)
        assert min(seen.values()) >= 50, seen


class TestStrongComponentCalls:
    # classify reads irreducibility from the pattern index of each matrix:
    # one search along the arcs and one against them when the matrix is
    # irreducible, one when node 1 fails to reach every node.  Only
    # frobenius_form labels strong components.
    COMPONENTS = "_strong_components"
    NAMES = (COMPONENTS, "is_irreducible", "_pattern_index", "_bfs_levels")

    def test_t82_classify_labels_no_components(self, monkeypatch):
        calls = count_calls(monkeypatch, *self.NAMES)
        c = classify(cyclic_h(7, 7, seed=5))
        assert c.theorem == "T8.2" and c.verified
        assert calls == {
            self.COMPONENTS: 0, "is_irreducible": 0,
            "_pattern_index": 2, "_bfs_levels": 3,
        }

    def test_t91_classify_searches_each_matrix_both_ways(self, monkeypatch):
        calls = count_calls(monkeypatch, *self.NAMES)
        c = classify(tp2(6, seed=0))
        assert c.theorem == "T9.1" and c.verified
        assert calls == {
            self.COMPONENTS: 0, "is_irreducible": 0,
            "_pattern_index": 2, "_bfs_levels": 4,
        }

    def test_imprimitivity_index_does_not_test_irreducibility(self, monkeypatch):
        calls = count_calls(monkeypatch, self.COMPONENTS, "is_irreducible")
        assert imprimitivity_index(cyclic_h(9, 3, seed=1)).h == 3
        with pytest.raises(ReducibleInputError):
            imprimitivity_index(np.array([[1.0, 1.0], [0.0, 2.0]]))
        assert calls == {self.COMPONENTS: 0, "is_irreducible": 0}


class TestFrobeniusForm:
    def test_two_block_triangular(self):
        form = frobenius_form(np.array([[1.0, 1.0], [0.0, 2.0]]))
        assert form.block_indices == ((2,), (1,))
        assert form.block_sizes == (1, 1)
        assert form.perm.images == (2, 1)
        assert form.rho_per_block == (2.0, 1.0)
        assert form.rho == 2.0
        permuted = form.apply(np.array([[1.0, 1.0], [0.0, 2.0]]))
        assert np.array_equal(permuted, [[2.0, 0.0], [1.0, 1.0]])

    def test_irreducible_is_single_block(self):
        form = frobenius_form(EXAMPLE1)
        assert form.block_sizes == (5,)
        assert form.perm.images == (1, 2, 3, 4, 5)
        assert np.array_equal(form.blocks[0], EXAMPLE1)

    def test_blocks_are_the_strong_components(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 15))
            a = random_pattern(rng, n, rng.choice([0.1, 0.25, 0.5]))
            form = frobenius_form(a)
            got = {frozenset(idx) for idx in form.block_indices}
            assert got == set(kosaraju_components(a))
            assert form.block_indices == reference_block_order(a)

    @staticmethod
    def assert_equals_reference(a):
        form, expected = frobenius_form(a), reference_frobenius_form(a)
        for field in ("perm", "block_sizes", "block_indices", "rho_per_block", "rho"):
            assert getattr(form, field) == getattr(expected, field), field
        assert len(form.blocks) == len(expected.blocks)
        for got, want in zip(form.blocks, expected.blocks):
            assert np.array_equal(got, want)

    def test_equals_scipy_components_reference(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            n = int(rng.integers(1, 41))
            self.assert_equals_reference(random_pattern(rng, n, rng.choice([0.03, 0.08, 0.2, 0.5])))

    def test_dense_block_triangular_equals_reference(self):
        # 300 nodes in 12 dense blocks of random sizes, every arc between two
        # blocks pointing forward, under a random relabelling.
        rng = np.random.default_rng(41)
        n = 300
        block_of = np.sort(rng.integers(0, 12, n))
        a = (block_of[:, None] <= block_of[None, :]) * rng.uniform(0.5, 1.5, (n, n))
        perm = rng.permutation(n)
        self.assert_equals_reference(a[np.ix_(perm, perm)])

    def test_structure_and_spectrum(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            a = random_pattern(rng, n, rng.choice([0.1, 0.3, 0.6]))
            form = frobenius_form(a)
            permuted = form.apply(a)
            offsets = np.cumsum((0,) + form.block_sizes)
            for t, idx in enumerate(form.block_indices):
                lo, hi = offsets[t], offsets[t + 1]
                # Exact zeros above the block diagonal.
                assert (permuted[lo:hi, hi:] == 0).all()
                assert np.array_equal(permuted[lo:hi, lo:hi], form.blocks[t])
                assert is_irreducible(form.blocks[t])
            all_eigs = np.concatenate(
                [np.linalg.eigvals(b) for b in form.blocks]
            )
            assert pairs_within(np.linalg.eigvals(a), all_eigs, 1e-8 * max(1.0, form.rho))

    def test_deterministic_tie_break(self):
        # Diagonal matrix: no condensation arcs, so blocks come out in index order.
        form = frobenius_form(np.diag([3.0, 1.0, 2.0]))
        assert form.block_indices == ((1,), (2,), (3,))
        assert form.rho_per_block == (3.0, 1.0, 2.0)

    def test_composed_blocks_round_trip(self):
        a = reducible_blocks([cycle_matrix(3), cycle_matrix(4)])
        form = frobenius_form(a)
        assert sorted(form.block_sizes) == [3, 4]
        assert form.rho == pytest.approx(1.0)

    def test_apply_rejects_wrong_size(self):
        form = frobenius_form(np.eye(2))
        with pytest.raises(ValueError, match="dimension"):
            form.apply(np.eye(3))


class TestImprimitivity:
    def test_cycle_has_full_index(self):
        res = imprimitivity_index(EXAMPLE1)
        assert res.h == 5
        assert res.cyclic_classes == ((1,), (2,), (3,), (4,), (5,))

    def test_positive_matrix_is_primitive(self):
        res = imprimitivity_index(np.ones((3, 3)))
        assert res.h == 1
        assert res.cyclic_classes == ((1, 2, 3),)

    def test_classes_partition_and_arcs_advance(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            h = int(rng.integers(1, n + 1))
            a = cyclic_h(n, h, seed=int(rng.integers(0, 10**6)))
            res = imprimitivity_index(a)
            assert res.h == h
            assert sorted(v for c in res.cyclic_classes for v in c) == list(
                range(1, n + 1)
            )
            pos = {}
            for c, members in enumerate(res.cyclic_classes):
                for v in members:
                    pos[v] = c
            rows, cols = np.nonzero(a)
            for u, v in zip(rows + 1, cols + 1):
                assert pos[v] == (pos[u] + 1) % res.h

    def test_spectrum_rotates_by_hth_root(self):
        rng = np.random.default_rng(37)
        for n, h in [(6, 2), (6, 3), (8, 4), (9, 3), (10, 5)]:
            a = cyclic_h(n, h, seed=int(rng.integers(0, 10**6)))
            eigs = np.linalg.eigvals(a)
            rotated = eigs * np.exp(2j * np.pi / h)
            assert pairs_within(eigs, rotated, 1e-6 * max(1.0, np.abs(eigs).max()))

    def test_one_by_one_convention(self):
        res = imprimitivity_index(np.zeros((1, 1)))
        assert res.h == 1
        assert res.cyclic_classes == ((1,),)

    def test_requires_irreducible(self):
        with pytest.raises(ReducibleInputError):
            imprimitivity_index(np.array([[1.0, 1.0], [0.0, 2.0]]))

    def test_matches_wielandt_power_oracle(self):
        # Primitive iff pattern^((n-1)^2 + 1) has no zero entry.
        rng = np.random.default_rng(41)
        seen = {True: 0, False: 0}
        for _ in range(60):
            n = int(rng.integers(2, 8))
            if rng.random() < 0.5:
                h = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
                a = cyclic_h(n, h, seed=int(rng.integers(0, 10**6)))
            else:
                a = nonneg_irreducible(
                    n, density=0.3, seed=int(rng.integers(0, 10**6))
                )
            pattern = (a != 0).astype(object)
            power = np.linalg.matrix_power(pattern, (n - 1) ** 2 + 1)
            expected = bool((power > 0).all())
            assert (imprimitivity_index(a).h == 1) == expected
            seen[expected] += 1
        assert seen[True] > 0 and seen[False] > 0


class TestFrobeniusFormType:
    def test_fields_are_frozen(self):
        form = frobenius_form(np.eye(2))
        assert isinstance(form, FrobeniusForm)
        with pytest.raises(AttributeError):
            form.rho = 0.0
