import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from signspectra.core import PairIndexer, pair_count
from signspectra.exterior import compound2
from signspectra.gen import cyclic_h, nonneg_irreducible, reducible_blocks, scrambled, tp2
from signspectra.signsym import (
    NotSignSymmetricError,
    SignConstraintGraph,
    TooManyCertificatesError,
    enumerate_j_sets,
    sign_constraint_graph,
)
from signspectra.wsets import (
    WSet,
    build_w_hat,
    canonical_m,
    enumerate_w_candidates,
    find_transitive_w,
    is_transitive,
)

from helpers import EXAMPLE1, cycle_matrix, random_wset


class TestWSet:
    def test_canonical_orientation(self):
        w = canonical_m(4)
        assert w.contains(1, 1)
        assert w.contains(2, 3)
        assert not w.contains(3, 2)
        assert np.array_equal(w.pairs, [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])

    def test_pairs_count(self):
        for n in range(1, 7):
            assert len(canonical_m(n).pairs) == pair_count(n)

    def test_rejects_missing_pair(self):
        member = np.eye(3, dtype=bool)
        member[0, 1] = True
        with pytest.raises(ValueError, match="reverse"):
            WSet(3, member)

    def test_rejects_double_pair(self):
        member = np.triu(np.ones((3, 3), dtype=bool))
        member[1, 0] = True
        with pytest.raises(ValueError, match="both directions"):
            WSet(3, member)

    def test_rejects_missing_diagonal(self):
        member = np.triu(np.ones((3, 3), dtype=bool))
        member[0, 0] = False
        with pytest.raises(ValueError):
            WSet(3, member)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="grid"):
            WSet(3, np.eye(4, dtype=bool))

    def test_contains_range_check(self):
        w = canonical_m(2)
        with pytest.raises(ValueError, match="range"):
            w.contains(0, 1)


class TestTransitivity:
    def test_canonical_is_identity_order(self):
        for n in range(1, 6):
            check = is_transitive(canonical_m(n))
            assert check.transitive
            assert check.order is not None
            assert check.order.images == tuple(range(1, n + 1))

    def test_reversed_is_reversed_order(self):
        n = 5
        w = WSet(n, np.tril(np.ones((n, n), dtype=bool)))
        check = is_transitive(w)
        assert check.transitive
        assert check.order.images == (5, 4, 3, 2, 1)

    def test_three_cycle_witness(self):
        member = np.eye(3, dtype=bool)
        member[0, 1] = member[1, 2] = member[2, 0] = True
        check = is_transitive(WSet(3, member))
        assert not check.transitive
        assert check.order is None
        assert check.witness == (1, 2, 3)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_witness_or_order_is_valid(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        w = random_wset(n, rng)
        check = is_transitive(w)
        if check.transitive:
            sigma = np.asarray(check.order.images)
            assert np.array_equal(w.member, sigma[:, None] <= sigma[None, :])
        else:
            i, j, k = check.witness
            assert w.contains(i, j) and w.contains(j, k)
            assert not w.contains(i, k)


class TestBuildWHat:
    def test_empty_j_full_jt_is_canonical(self):
        n = 5
        full = range(1, pair_count(n) + 1)
        assert np.array_equal(build_w_hat([], full, n).member, canonical_m(n).member)

    def test_empty_j_empty_jt_is_reversed(self):
        n = 4
        w = build_w_hat([], [], n)
        assert np.array_equal(w.member, np.tril(np.ones((n, n), dtype=bool)))

    def test_singleton_j_orients_against_it(self):
        w = build_w_hat({1}, [], 3)
        assert w.contains(1, 2) and w.contains(1, 3)
        assert w.contains(3, 2)
        check = is_transitive(w)
        assert check.transitive
        assert check.order.images == (1, 3, 2)

    def test_complement_j_gives_same_w(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            j = frozenset(int(i) + 1 for i in range(n) if rng.random() < 0.5)
            mp = pair_count(n)
            jt = frozenset(int(p) + 1 for p in range(mp) if rng.random() < 0.5)
            a = build_w_hat(j, jt, n)
            b = build_w_hat(frozenset(range(1, n + 1)) - j, jt, n)
            assert np.array_equal(a.member, b.member)

    def test_complement_jt_reverses_w(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            j = frozenset(int(i) + 1 for i in range(n) if rng.random() < 0.5)
            mp = pair_count(n)
            jt = frozenset(int(p) + 1 for p in range(mp) if rng.random() < 0.5)
            a = build_w_hat(j, jt, n)
            b = build_w_hat(j, frozenset(range(1, mp + 1)) - jt, n)
            assert np.array_equal(a.member, b.member.T)

    def test_membership_rule_pointwise(self):
        n = 6
        idx = PairIndexer(n)
        j = frozenset({2, 3, 5})
        jt = frozenset({1, 4, 9, 12, 15})
        w = build_w_hat(j, jt, n)
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                same = (i in j) == (k in j)
                expected = same == (idx.index(i, k) in jt)
                assert w.contains(i, k) == expected
                assert w.contains(k, i) == (not expected)

    def test_n_one(self):
        w = build_w_hat([], [], 1)
        assert w.n == 1
        assert w.pairs.shape == (0, 2)
        assert is_transitive(w).transitive

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="J must"):
            build_w_hat({4}, [], 3)
        with pytest.raises(ValueError, match="Jt must"):
            build_w_hat({1}, {4}, 3)


class TestEnumerateCandidates:
    def test_worked_example_candidates(self):
        enum = enumerate_w_candidates(EXAMPLE1)
        assert enum.j_count == 2
        assert enum.jt_count == 4
        assert len(enum.candidates) == 4
        assert sum(len(c.generating_pairs) for c in enum.candidates) == 8
        assert not enum.exists_transitive
        for c in enum.candidates:
            assert not c.transitive
            assert c.witness is not None
            # Complementing J leaves the orientation unchanged, so every
            # candidate is generated at least twice.
            assert len(c.generating_pairs) == 2

    def test_unique_orientations(self):
        enum = enumerate_w_candidates(EXAMPLE1)
        keys = {c.w.member.tobytes() for c in enum.candidates}
        assert len(keys) == len(enum.candidates)

    def test_transitive_exists_for_doubly_positive(self):
        from signspectra.gen import tp2

        enum = enumerate_w_candidates(tp2(4, seed=3))
        assert enum.j_count == 2
        assert enum.jt_count == 2
        assert enum.exists_transitive
        orders = [c.order.images for c in enum.candidates if c.transitive]
        assert (1, 2, 3, 4) in orders

    def test_family_invariant_under_scrambling(self):
        # Scrambling shifts both certificate families in lockstep, so the set
        # of produced orientations cannot move.
        from signspectra.gen import nonneg_irreducible, tp2

        rng = np.random.default_rng(11)
        bases = [
            nonneg_irreducible(5, density=0.0, seed=2),
            tp2(4, seed=5),
            EXAMPLE1,
        ]
        for base in bases:
            ref = enumerate_w_candidates(base)
            fam_a = {c.w.member.tobytes() for c in ref.candidates}
            for _ in range(3):
                b = scrambled(base, seed=int(rng.integers(0, 10**6)))
                enum_b = enumerate_w_candidates(b)
                fam_b = {c.w.member.tobytes() for c in enum_b.candidates}
                assert fam_a == fam_b
                assert enum_b.exists_transitive == ref.exists_transitive

    def test_n_one_trivial(self):
        enum = enumerate_w_candidates(np.array([[2.0]]))
        assert enum.j_count == 2
        assert enum.jt_count == 1
        assert len(enum.candidates) == 1
        assert enum.exists_transitive

    def test_cap(self):
        with pytest.raises(TooManyCertificatesError):
            enumerate_w_candidates(np.zeros((6, 6)), cap=2**16)

    def test_compound_certificates_drive_jt(self):
        a = EXAMPLE1
        from signspectra.signsym import enumerate_j_sets

        enum = enumerate_w_candidates(a)
        assert enum.jt_count == len(enumerate_j_sets(compound2(a)))

    def test_fails_fast_on_too_many_combinations(self, monkeypatch):
        # The 33-cycle has 2 x 2^16 combinations: the count alone decides,
        # before any certificate set is listed.
        listed = []
        monkeypatch.setattr(SignConstraintGraph, "j_sets", lambda graph: listed.append(graph))
        with pytest.raises(TooManyCertificatesError, match="131072"):
            enumerate_w_candidates(cycle_matrix(33))
        assert listed == []


CYCLIC_CELLS = [(n, h) for n in range(2, 13) for h in range(1, n + 1)]


@st.composite
def oracle_inputs(draw):
    """Small matrices from every family, optionally scrambled: cyclic_h
    over every (n, h) with n <= 12, tp2, nonneg_irreducible with density,
    and block diagonal or sparse inputs whose sign-constraint graph has
    several components."""
    seed = draw(st.integers(min_value=1, max_value=10**6))
    kind = draw(st.sampled_from(["cyclic_h", "tp2", "nonneg_irreducible", "blocks", "sparse"]))
    if kind == "cyclic_h":
        n, h = draw(st.sampled_from(CYCLIC_CELLS))
        a = cyclic_h(n, h, seed=seed)
    elif kind == "tp2":
        a = tp2(draw(st.integers(min_value=2, max_value=8)), seed=seed)
    elif kind == "nonneg_irreducible":
        n = draw(st.integers(min_value=2, max_value=10))
        density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
        a = nonneg_irreducible(n, density=density, seed=seed)
    elif kind == "blocks":
        cells = draw(st.lists(st.sampled_from(CYCLIC_CELLS[:10]), min_size=2, max_size=3))
        a = reducible_blocks([cyclic_h(n, h, seed=seed + t) for t, (n, h) in enumerate(cells)])
    else:
        rng = np.random.default_rng(seed)
        n = draw(st.integers(min_value=3, max_value=7))
        a = np.where(rng.random((n, n)) < rng.uniform(0.1, 0.5), rng.uniform(0.5, 2.0, (n, n)), 0.0)
    if draw(st.booleans()):
        a = scrambled(a, seed=seed)
    return a


class TestFindTransitiveW:
    @given(oracle_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration(self, a):
        graph_a = sign_constraint_graph(a)
        graph_c = sign_constraint_graph(compound2(a))
        try:
            enum = enumerate_w_candidates(a, cap=2**12)
        except NotSignSymmetricError:
            with pytest.raises(NotSignSymmetricError):
                find_transitive_w(graph_a, graph_c)
            return
        except TooManyCertificatesError:
            assume(False)
        found = find_transitive_w(graph_a, graph_c)
        assert (found is not None) == enum.exists_transitive
        if found is not None:
            j_set, jt_set = found
            assert j_set in enumerate_j_sets(a)
            assert jt_set in enumerate_j_sets(compound2(a))
            assert is_transitive(build_w_hat(j_set, jt_set, a.shape[0])).transitive

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration_on_any_component_structure(self, seed):
        # Arbitrary partitions and colourings of {1..n} and of the pairs:
        # more shapes than matrices produce, each checked against every
        # certificate pair.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        graphs = []
        for size, most in ((n, 4), (pair_count(n), 8)):
            labels = rng.integers(0, int(rng.integers(1, most + 1)), size=size)
            components = tuple(
                tuple(int(v) + 1 for v in np.nonzero(labels == k)[0])
                for k in np.unique(labels)
            )
            colouring = tuple(int(v) for v in rng.integers(0, 2, size=size))
            graphs.append(SignConstraintGraph(size, True, components, colouring, None))
        exists = any(
            is_transitive(build_w_hat(j, jt, n)).transitive
            for j in graphs[0].j_sets()
            for jt in graphs[1].j_sets()
        )
        found = find_transitive_w(*graphs)
        assert (found is not None) == exists
        if found is not None:
            assert found[0] in graphs[0].j_sets()
            assert found[1] in graphs[1].j_sets()

    def test_worked_example_has_none(self):
        assert find_transitive_w(
            sign_constraint_graph(EXAMPLE1), sign_constraint_graph(compound2(EXAMPLE1))
        ) is None

    def test_large_odd_cycle_has_none(self):
        a = scrambled(cycle_matrix(41), seed=3)
        graphs = sign_constraint_graph(a), sign_constraint_graph(compound2(a))
        assert find_transitive_w(*graphs) is None

    def test_later_rounds_decode_equations_by_expression_id(self, monkeypatch):
        # Folding runs in rounds.  From the second round on, the highest
        # expression id occurs only in triangles folded in the first, and
        # the equations found must still name the right expressions.
        from signspectra import wsets

        graph_a = SignConstraintGraph(
            7, True, ((3, 5), (2, 4, 7), (1, 6)), (1, 1, 0, 0, 1, 0, 1), None
        )
        graph_c = SignConstraintGraph(
            21,
            True,
            ((5,), (1, 2), (13, 20, 21), (4, 6, 10, 17), (3, 8, 18, 19), (11, 12),
             (9, 14), (16,), (15,), (7,)),
            (1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1),
            None,
        )
        fold = wsets._fold_triangles
        rounds = []

        def recorded(lits, consts):
            folded = fold(lits, consts)
            rounds.append(len(folded[2]))
            return folded

        monkeypatch.setattr(wsets, "_fold_triangles", recorded)
        found = find_transitive_w(graph_a, graph_c)
        assert sum(1 for count in rounds if count) >= 2
        assert found is not None
        assert found[0] in graph_a.j_sets()
        assert found[1] in graph_c.j_sets()
        assert is_transitive(build_w_hat(*found, 7)).transitive

    def test_fold_returns_expression_ids(self):
        from signspectra.wsets import _fold_triangles

        # Expressions 5 and 2 coincide in the first triangle, so expression 0
        # must differ from them; the second holds whatever the values; the
        # third has three distinct expressions and stays.
        lits = np.array([[5, 5, 0], [2, 2, 0], [1, 2, 5]])
        consts = np.array([[0, 0, 1], [0, 1, 0], [0, 0, 0]])
        rest_lits, rest_consts, equations = _fold_triangles(lits, consts)
        assert equations.tolist() == [[0, 5, 0]]
        assert rest_lits.tolist() == [[1, 2, 5]]
        assert rest_consts.tolist() == [[0, 0, 0]]

    def test_rejects_mismatched_graphs(self):
        with pytest.raises(ValueError, match="compound"):
            find_transitive_w(sign_constraint_graph(EXAMPLE1), sign_constraint_graph(EXAMPLE1))

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_search_matches_exhaustive(self, seed):
        # Inputs from matrices rarely leave an unsatisfiable remainder after
        # folding, so the search is checked on its own, against trying
        # every assignment.
        from signspectra.wsets import _nae_search

        rng = np.random.default_rng(seed)
        nvars = int(rng.integers(1, 7))
        masks = [int(v) for v in rng.integers(0, 2**nvars, size=int(rng.integers(1, 8)))]
        lits = rng.integers(0, len(masks), size=(int(rng.integers(1, 14)), 3))
        consts = rng.integers(0, 2, size=lits.shape)

        def satisfied(x):
            values = [
                [(c + bin(masks[e] & x).count("1")) % 2 for e, c in zip(row, crow)]
                for row, crow in zip(lits.tolist(), consts.tolist())
            ]
            return all(len(set(v)) > 1 for v in values)

        found = _nae_search(masks, lits, consts)
        assert (found is not None) == any(satisfied(x) for x in range(2**nvars))
        if found is not None:
            assert satisfied(found)
