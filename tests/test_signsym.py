import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signspectra.exterior import compound2
from signspectra.gen import cyclic_h, nonneg_irreducible, reducible_blocks, scrambled, tp2
from signspectra.signsym import (
    JCertificate,
    NotSignSymmetric,
    NotSignSymmetricError,
    SignConstraintGraph,
    TooManyCertificatesError,
    detect,
    enumerate_certificates,
    sign_constraint_graph,
    verify_certificate,
)
from signspectra.spectral import eigenvalues

from helpers import (
    EXAMPLE1,
    EXAMPLE1_COMPOUND,
    EXAMPLE1_COMPOUND_J_SETS,
    STABLE_ODD_CELLS,
    brute_force_j_sets,
    cycle_matrix,
    reference_sign_constraint_graph,
)


class TestDetect:
    def test_nonnegative_gives_empty_j(self):
        cert = detect(EXAMPLE1)
        assert isinstance(cert, JCertificate)
        assert cert.j_set == frozenset()
        assert cert.d_signs == (1, 1, 1, 1, 1)
        assert np.array_equal(cert.a_tilde, EXAMPLE1)

    def test_canonical_side_excludes_smallest_index(self):
        # Both off-diagonal entries negative: indices 1 and 2 sit on
        # opposite sides, and the side of index 1 is kept out of J.
        cert = detect(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert isinstance(cert, JCertificate)
        assert cert.j_set == frozenset({2})
        assert cert.d_signs == (1, -1)
        assert np.array_equal(cert.a_tilde, [[0.0, 1.0], [1.0, 0.0]])

    def test_negative_diagonal_is_fatal(self):
        res = detect(np.array([[1.0, 0.0], [0.0, -1.0]]))
        assert isinstance(res, NotSignSymmetric)
        assert res.odd_cycle == (2,)

    def test_asymmetric_conflict(self):
        # a12 > 0 wants same side, a21 < 0 wants opposite: a 2-cycle witness.
        res = detect(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert isinstance(res, NotSignSymmetric)
        assert set(res.odd_cycle) == {1, 2}

    def test_odd_triangle(self):
        a = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, -1.0], [1.0, -1.0, 0.0]])
        res = detect(a)
        assert isinstance(res, NotSignSymmetric)
        # Witness must be a genuine parity-odd closed chain of constraints.
        cyc = res.odd_cycle
        parity = 0
        for t in range(len(cyc)):
            u, v = cyc[t] - 1, cyc[(t + 1) % len(cyc)] - 1
            entry = a[u, v] if a[u, v] != 0 else a[v, u]
            assert entry != 0
            parity ^= 0 if entry > 0 else 1
        assert parity == 1

    def test_worked_compound_canonical(self):
        cert = detect(EXAMPLE1_COMPOUND)
        assert isinstance(cert, JCertificate)
        assert cert.j_set == frozenset({3, 4, 7})
        assert (cert.a_tilde >= 0).all()


class TestEnumerate:
    def test_worked_compound_all_four(self):
        certs = enumerate_certificates(EXAMPLE1_COMPOUND)
        assert len(certs) == 4
        assert {c.j_set for c in certs} == EXAMPLE1_COMPOUND_J_SETS
        for c in certs:
            assert verify_certificate(EXAMPLE1_COMPOUND, c)

    def test_zero_matrix_counts_components(self):
        assert len(sign_constraint_graph(np.zeros((3, 3))).j_sets()) == 8

    def test_connected_nonnegative_has_two(self):
        sets = sign_constraint_graph(EXAMPLE1).j_sets()
        assert sets[0] == frozenset()
        assert sets == [frozenset(), frozenset({1, 2, 3, 4, 5})]

    def test_raises_on_inconsistent(self):
        with pytest.raises(NotSignSymmetricError) as err:
            sign_constraint_graph(np.array([[0.0, 1.0], [-1.0, 0.0]])).j_sets()
        assert err.value.odd_cycle is not None

    def test_cap(self):
        # The default cap is 2^20; the messages are part of the interface.
        with pytest.raises(TooManyCertificatesError, match=r"^2\^21 .* the cap 1048576$"):
            enumerate_certificates(np.zeros((21, 21)))
        assert len(enumerate_certificates(np.zeros((4, 4)), cap=16)) == 16
        with pytest.raises(TooManyCertificatesError, match=r"^2\^4 certificates exceed the cap 15$"):
            enumerate_certificates(np.zeros((4, 4)), cap=15)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_rejected(self, cap):
        with pytest.raises(ValueError, match=f"^cap must be at least 1, got {cap}$") as err:
            enumerate_certificates(np.zeros((2, 2)), cap=cap)
        assert not isinstance(err.value, TooManyCertificatesError)

    def test_cap_is_checked_before_listing(self, monkeypatch):
        listed = []
        monkeypatch.setattr(SignConstraintGraph, "j_sets", lambda graph: listed.append(graph))
        with pytest.raises(TooManyCertificatesError):
            enumerate_certificates(np.zeros((4, 4)), cap=15)
        assert listed == []

    def test_certificates_follow_j_sets(self):
        a = scrambled(reducible_blocks([cycle_matrix(3), np.ones((2, 2))]), j_set={2, 5})
        certs = enumerate_certificates(a)
        assert [c.j_set for c in certs] == sign_constraint_graph(a).j_sets()
        assert certs[0].j_set == detect(a).j_set

    def test_matches_brute_force_seeded(self):
        rng = np.random.default_rng(20260817)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            density = rng.choice([0.2, 0.5, 0.9])
            a = rng.integers(-1, 2, size=(n, n)).astype(float)
            a[rng.random((n, n)) > density] = 0.0
            expected = brute_force_j_sets(a)
            if not expected:
                assert isinstance(detect(a), NotSignSymmetric)
                with pytest.raises(NotSignSymmetricError):
                    sign_constraint_graph(a).j_sets()
            else:
                got = set(sign_constraint_graph(a).j_sets())
                assert got == expected

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_hypothesis(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        a = rng.integers(-1, 2, size=(n, n)).astype(float)
        expected = brute_force_j_sets(a)
        if not expected:
            assert isinstance(detect(a), NotSignSymmetric)
        else:
            assert set(sign_constraint_graph(a).j_sets()) == expected


class TestVerify:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        base = rng.uniform(0.0, 1.0, size=(6, 6))
        a = scrambled(base, j_set={2, 5}, seed=0)
        cert = detect(a)
        assert isinstance(cert, JCertificate)
        assert verify_certificate(a, cert)

    def test_complement_passes(self):
        a = scrambled(np.ones((4, 4)), j_set={1, 3}, seed=0)
        cert = detect(a)
        flipped = JCertificate(
            frozenset(range(1, 5)) - cert.j_set,
            tuple(-s for s in cert.d_signs),
            cert.a_tilde,
        )
        assert verify_certificate(a, flipped)

    def test_wrong_signs_fail(self):
        a = scrambled(np.ones((3, 3)), j_set={2}, seed=0)
        bad = JCertificate(frozenset(), (1, 1, 1), np.asarray(a))
        assert not verify_certificate(a, bad)

    def test_dimension_mismatch(self):
        cert = detect(np.ones((3, 3)))
        with pytest.raises(ValueError, match="dimension"):
            verify_certificate(np.ones((4, 4)), cert)


class TestConstraintGraph:
    def test_components_ordered_by_smallest(self):
        g = sign_constraint_graph(EXAMPLE1_COMPOUND)
        assert g.consistent
        assert g.components == ((1, 4, 5, 8, 10), (2, 3, 6, 7, 9))

    def test_compound_of_worked_example_has_two_components(self):
        g = sign_constraint_graph(compound2(EXAMPLE1))
        assert len(g.components) == 2


def criteria_07_to_11_inputs():
    """Inputs of acceptance criteria 07-11, a few seeds of each, every one
    followed by its scrambled twin."""
    bases = [cyclic_h(n, h, seed=10 * n + h) for n in range(1, 13) for h in range(1, n + 1)]
    bases += [cyclic_h(n, h, seed=i) for i, (n, h) in enumerate(STABLE_ODD_CELLS)]
    bases += [tp2(3 + i % 3, seed=i) for i in range(9)]
    rng = np.random.default_rng(20260404)
    pool = [cycle_matrix(3), cycle_matrix(5), cycle_matrix(7), tp2(3, seed=9)]
    for _ in range(8):
        picks = rng.integers(0, len(pool), size=int(rng.integers(2, 4)))
        bases.append(reducible_blocks([pool[p] for p in picks]))
    bases += [nonneg_irreducible(2 + i % 6, density=0.3, seed=3200 + i) for i in range(10)]
    bases += [reducible_blocks([cycle_matrix(3), cycle_matrix(5)]), EXAMPLE1]
    return [m for t, base in enumerate(bases) for m in (base, scrambled(base, seed=t))]


@st.composite
def mixed_sign_patterns(draw):
    """Square matrices of mixed signs, n <= 9; half of them are conjugated
    from a nonnegative pattern by a random +-1 diagonal, so sign-symmetric
    inputs with several components occur as well as conflicted ones."""
    n = draw(st.integers(min_value=1, max_value=9))
    values = st.sampled_from([-2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 3.0])
    a = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        d = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        a = d[:, None] * np.abs(a) * d[None, :]
    return a


class TestConstraintGraphMatchesReference:
    def test_criteria_07_to_11_and_compounds(self):
        seen = {True: 0, False: 0}
        for a in criteria_07_to_11_inputs():
            for m in (a, compound2(a)) if a.shape[0] > 1 else (a,):
                g = sign_constraint_graph(m)
                assert g == reference_sign_constraint_graph(m)
                seen[g.consistent] += 1
        assert seen[True] and seen[False]

    @given(mixed_sign_patterns())
    @settings(max_examples=200, deadline=None)
    def test_mixed_sign_patterns(self, a):
        for m in (a, compound2(a)) if a.shape[0] > 1 else (a,):
            assert sign_constraint_graph(m) == reference_sign_constraint_graph(m)
