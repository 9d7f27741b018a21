import json
import warnings

import numpy as np
import pytest
import scipy

import signspectra
from signspectra.gen import cyclic_h, reducible_blocks, scrambled, tp2
from signspectra.spectral import (
    Classification,
    Spectrum,
    classify,
    counterexample_bundle,
    eigenvalues,
    match_complex_multisets,
    peripheral_spectrum,
    second_eigenvalue_claims,
)

from helpers import EXAMPLE1, count_calls, cycle_matrix


class TestEigenvalues:
    def test_canonical_order_modulus_then_argument(self):
        # Exact eigenvalues 1, i, -1, -i: same modulus, argument ascending.
        a = np.zeros((4, 4))
        a[0, 1], a[1, 0] = -1.0, 1.0
        a[2, 2], a[3, 3] = 1.0, -1.0
        spec = eigenvalues(a)
        assert np.allclose(spec.values, [1.0, 1.0j, -1.0, -1.0j], atol=1e-12)
        assert spec.rho == pytest.approx(1.0)

    def test_modulus_descending(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            spec = eigenvalues(rng.normal(size=(n, n)))
            mods = np.abs(spec.values)
            assert np.all(np.diff(mods) <= 1e-12)

    def test_diagonal_exact(self):
        spec = eigenvalues(np.diag([1.0, 3.0, 2.0]))
        assert np.array_equal(spec.values, [3.0, 2.0, 1.0])
        assert spec.rho == 3.0

    def test_values_read_only(self):
        spec = eigenvalues(np.eye(2))
        with pytest.raises(ValueError):
            spec.values[0] = 5.0

    def test_backward_error_scale(self):
        spec = eigenvalues(np.eye(3))
        assert spec.backward_error_bound == pytest.approx(
            3 * np.finfo(float).eps * np.sqrt(3.0)
        )


class TestMatchMultisets:
    def test_permuted_exact(self):
        res = match_complex_multisets([1, 2j, -3], [-3, 1, 2j], 1e-15)
        assert res.ok
        assert res.max_distance == 0.0

    def test_size_mismatch(self):
        res = match_complex_multisets([1, 2], [1], 10.0)
        assert not res.ok
        assert res.max_distance == float("inf")

    def test_empty(self):
        res = match_complex_multisets([], [], 0.0)
        assert res.ok and res.max_distance == 0.0

    def test_reports_max_distance(self):
        res = match_complex_multisets([0.0], [0.3], 0.2)
        assert not res.ok
        assert res.max_distance == pytest.approx(0.3)

    def test_optimal_not_greedy(self):
        # Nearest-first pairing would match 0.45 to 0.5 and leave 0 at
        # distance 1; the optimal assignment stays within 0.55.
        res = match_complex_multisets([0.0, 0.45], [0.5, 1.0], 0.56)
        assert res.ok
        assert res.max_distance == pytest.approx(0.55)

    def test_repeated_values(self):
        res = match_complex_multisets([1j, 1j, 0], [0, 1j, 1j], 1e-15)
        assert res.ok


class TestPeripheralSpectrum:
    def test_cycle_full_circle(self):
        per = peripheral_spectrum(EXAMPLE1)
        assert per.count == 5
        assert not per.degenerate_zero
        assert per.modulus == pytest.approx(1.0)
        assert per.roots_of is not None
        k, power = per.roots_of
        assert k == 5
        assert power == pytest.approx(1.0)

    def test_simple_dominant(self):
        per = peripheral_spectrum(np.diag([2.0, 1.0]))
        assert per.count == 1
        assert per.roots_of == (1, 2.0)

    def test_zero_matrix_degenerate(self):
        per = peripheral_spectrum(np.zeros((3, 3)))
        assert per.degenerate_zero
        assert per.count == 0
        assert per.roots_of is None

    def test_non_root_group(self):
        # Eigenvalues +-i: two peripheral values that are not the square
        # roots of rho^2 = 1.
        per = peripheral_spectrum(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert per.count == 2
        assert per.roots_of is None

    def test_band_width_follows_rel_tol(self):
        a = np.diag([1.0, 1.0 - 1e-9])
        assert peripheral_spectrum(a, rel_tol=1e-6).count == 2
        assert peripheral_spectrum(a, rel_tol=1e-12).count == 1

    def test_accepts_spectrum(self):
        spec = eigenvalues(EXAMPLE1)
        per = peripheral_spectrum(spec)
        assert per.count == 5
        assert np.array_equal(per.values, peripheral_spectrum(EXAMPLE1).values)


class TestClassifyRouting:
    def test_doubly_positive_routes_t91(self):
        c = classify(tp2(4, seed=0))
        assert c.theorem == "T9.1"
        assert c.verified
        assert c.irreducible and c.compound_irreducible and c.exists_transitive
        assert c.h == 1 and c.h_compound == 1
        claims = [p.claim for p in c.predictions]
        assert claims == [
            "rho_positive_eigenvalue",
            "index_one",
            "second_eigenvalue_real_positive",
            "second_eigenvalue_below_rho",
            "second_circle_matches_compound_index",
        ]

    def test_symmetric_positive_two_by_two_routes_t91(self):
        # Nonzero determinant makes the 1x1 compound irreducible.
        c = classify(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert c.theorem == "T9.1"
        assert c.verified
        assert c.h_compound == 1

    def test_three_cycle_routes_t92(self):
        c = classify(cycle_matrix(3))
        assert c.theorem == "T9.2"
        assert c.verified
        assert c.compound_irreducible
        assert not c.exists_transitive
        assert c.h == 3 and c.h_compound == 3
        assert c.peripheral_count == 3
        claims = [p.claim for p in c.predictions]
        assert claims == [
            "rho_positive_eigenvalue",
            "index_equals_three",
            "peripheral_count_equals_three",
            "peripheral_roots_of_rho",
            "peripheral_simple",
        ]

    def test_rank_one_positive_routes_t10(self):
        c = classify(np.ones((2, 2)))
        assert c.theorem == "T10"
        assert c.verified
        assert c.irreducible and not c.compound_irreducible
        claims = [p.claim for p in c.predictions]
        assert claims == [
            "rho_positive_eigenvalue",
            "index_one",
            "second_eigenvalue_real_nonnegative",
            "second_eigenvalue_below_rho",
        ]

    def test_positive_principal_minor_adds_strict_claim(self):
        a = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        c = classify(a)
        assert c.theorem == "T10"
        assert c.verified
        claims = [p.claim for p in c.predictions]
        assert "second_eigenvalue_real_positive" in claims
        assert "second_eigenvalue_real_nonnegative" in claims

    def test_one_by_one_positive_routes_t10(self):
        c = classify(np.array([[2.0]]))
        assert c.theorem == "T10"
        assert c.verified
        assert c.h == 1 and c.exists_transitive
        assert c.peripheral_count == 1

    def test_odd_cycle_routes_t82(self):
        c = classify(EXAMPLE1)
        assert c.theorem == "T8.2"
        assert c.verified
        assert c.irreducible and not c.compound_irreducible
        assert not c.exists_transitive
        assert c.h == 5
        assert c.peripheral_count == 5
        claims = [p.claim for p in c.predictions]
        assert claims == [
            "rho_positive_eigenvalue",
            "peripheral_count_odd",
            "peripheral_count_equals_index",
            "peripheral_roots_of_rho",
            "peripheral_simple",
        ]

    def test_block_diagonal_routes_t11(self):
        a = reducible_blocks([cycle_matrix(3), cycle_matrix(5)])
        c = classify(a)
        assert c.theorem == "T11"
        assert c.verified
        assert c.irreducible is False
        assert c.rho_multiplicity == 2
        assert c.peripheral_count == 8
        claims = [p.claim for p in c.predictions]
        assert claims == [
            "rho_positive_eigenvalue",
            "rho_multiplicity_matches_blocks",
            "peripheral_groups_odd",
            "peripheral_group_accounting",
            "peripheral_groups_match_roots",
        ]

    def test_t11_subdominant_blocks_excluded(self):
        a = reducible_blocks(
            [cycle_matrix(3), cycle_matrix(5)], rho_targets=[1.0, 0.5]
        )
        c = classify(a)
        assert c.theorem == "T11"
        assert c.verified
        assert c.rho_multiplicity == 1
        assert c.peripheral_count == 3

    def test_t11_never_enumerates_certificates(self, monkeypatch):
        # 10 cycle blocks: the compound certificate count is astronomically
        # large, and the reducible route needs no W sets at all.
        calls = count_calls(monkeypatch, "find_transitive_w", "enumerate_w_candidates")
        a = reducible_blocks([cycle_matrix(3)] * 10)
        c = classify(a)
        assert calls == {"find_transitive_w": 0, "enumerate_w_candidates": 0}
        assert c.theorem == "T11"
        assert c.verified
        assert c.rho_multiplicity == 10
        assert c.peripheral_count == 30

    @pytest.mark.parametrize("n", [33, 41, 77])
    def test_large_odd_cycles_route_t82(self, n):
        # 2^(1 + (n-1)/2) certificate pairs: listing them is out of reach.
        base = cyclic_h(n, n, seed=n)
        for a in (base, scrambled(base, seed=n)):
            c = classify(a)
            assert c.theorem == "T8.2"
            assert c.verified
            assert c.exists_transitive is False
            assert c.peripheral_count == n

    @pytest.mark.parametrize(
        "a, theorem, rebuilt",
        [(scrambled(EXAMPLE1, seed=4), "T8.2", 0), (tp2(4, seed=3), "T9.1", 1)],
    )
    def test_builds_each_structure_once(self, monkeypatch, a, theorem, rebuilt):
        # A found transitive W set is rebuilt once, to check it.
        calls = count_calls(
            monkeypatch, "compound2", "sign_constraint_graph", "build_w_hat",
            "enumerate_w_candidates",
        )
        c = classify(a)
        assert c.theorem == theorem
        assert calls == {
            "compound2": 1,
            "sign_constraint_graph": 2,
            "build_w_hat": rebuilt,
            "enumerate_w_candidates": 0,
        }

    def test_sign_conflict_routes_none(self):
        c = classify(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert c.theorem == "NONE"
        assert c.verified
        assert c.predictions == ()
        assert "not sign-symmetric" in c.diagnostics
        assert c.compound_irreducible is None

    def test_compound_conflict_routes_none(self):
        c = classify(cycle_matrix(4))
        assert c.theorem == "NONE"
        assert "second compound" in c.diagnostics
        assert c.irreducible is True

    def test_nilpotent_routes_none(self):
        c = classify(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert c.theorem == "NONE"
        assert "zero" in c.diagnostics
        assert c.peripheral.degenerate_zero

    def test_zero_one_by_one_routes_none(self):
        assert classify(np.zeros((1, 1))).theorem == "NONE"

    def test_frobenius_norm_overflow_keeps_the_route(self):
        # ||b||_F^2 overflows, but rho(b) = 1.7e154 is far from zero.
        a = tp2(4)
        b = a / a.max() * 1.3e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = classify(b)
        assert c.theorem == "T9.1" and c.verified
        assert c.spectrum.rho > 1e154
        assert np.isfinite(c.spectrum.backward_error_bound)

    def test_negative_tolerance_forces_failure(self):
        c = classify(EXAMPLE1, rel_tol=-1.0)
        assert c.theorem == "T8.2"
        assert not c.verified
        assert any(not p.verified for p in c.predictions)


class TestVerdict:
    def test_invariant_under_scrambling(self):
        bases = [
            EXAMPLE1,
            tp2(4, seed=1),
            cycle_matrix(3),
            reducible_blocks([cycle_matrix(3), cycle_matrix(3)]),
            np.ones((2, 2)),
        ]
        rng = np.random.default_rng(17)
        for base in bases:
            ref = classify(base).verdict()
            for _ in range(3):
                b = scrambled(base, seed=int(rng.integers(0, 10**6)))
                assert classify(b).verdict() == ref

    def test_contains_no_floats(self):
        def leaves(obj):
            if isinstance(obj, tuple):
                for v in obj:
                    yield from leaves(v)
            else:
                yield obj

        for a in [EXAMPLE1, np.ones((2, 2)), np.zeros((2, 2))]:
            for leaf in leaves(classify(a).verdict()):
                assert isinstance(leaf, (str, bool, int, type(None)))
                assert not isinstance(leaf, float)


class TestSecondEigenvalueReport:
    def test_applicable_for_t91(self):
        a = tp2(4, seed=2)
        rep = second_eigenvalue_claims(a)
        assert rep.applicable
        assert rep.theorem == "T9.1"
        assert rep.passed
        assert all(p.claim.startswith("second_") for p in rep.checks)
        assert len(rep.checks) == 3

    def test_applicable_for_t10(self):
        rep = second_eigenvalue_claims(np.ones((2, 2)))
        assert rep.applicable
        assert rep.theorem == "T10"
        assert len(rep.checks) == 2
        assert rep.passed

    def test_not_applicable_for_t82(self):
        rep = second_eigenvalue_claims(EXAMPLE1)
        assert not rep.applicable
        assert rep.theorem == "T8.2"
        assert rep.checks == ()
        assert rep.passed

    def test_reuses_given_classification(self):
        a = tp2(3, seed=4)
        c = classify(a)
        rep = second_eigenvalue_claims(a, c)
        assert rep.applicable and rep.theorem == c.theorem


class TestCounterexampleBundle:
    def test_keys_and_json(self):
        a = np.ones((2, 2))
        c = classify(a)
        bundle = counterexample_bundle(a, c)
        assert set(bundle) == {
            "matrix",
            "tolerances",
            "versions",
            "theorem",
            "verified",
            "diagnostics",
            "facts",
            "rho",
            "eigenvalues",
            "predictions",
        }
        assert bundle["matrix"] == [[1.0, 1.0], [1.0, 1.0]]
        assert bundle["theorem"] == "T10"
        assert len(bundle["eigenvalues"]) == 2
        assert len(bundle["predictions"]) == len(c.predictions)
        json.dumps(bundle)

    def test_records_replay_tolerances_and_versions(self):
        a = np.asarray(EXAMPLE1)
        c = classify(a, rel_tol=-1.0, peripheral_tol=1e-5)
        bundle = counterexample_bundle(a, c)
        assert bundle["tolerances"] == {"rel_tol": -1.0, "peripheral_tol": 1e-5}
        assert bundle["versions"] == {
            "signspectra": signspectra.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }

    def test_records_failures(self):
        a = np.asarray(EXAMPLE1)
        c = classify(a, rel_tol=-1.0)
        bundle = counterexample_bundle(a, c)
        assert bundle["verified"] is False
        assert any(not p["verified"] for p in bundle["predictions"])


class TestSecondCompoundErrors:
    def test_stages_that_read_the_compound_name_it(self, monkeypatch):
        # The 7-cycle's compound is 21 x 21; with the limit at 20 it stands in
        # for n >= 78, whose 3003 x 3003 compound exceeds the real limit 3000.
        from signspectra.exterior import verify_eigenvalue_products
        from signspectra.wsets import enumerate_w_candidates

        monkeypatch.setattr("signspectra.core.MAX_DIMENSION", 20)
        a = cycle_matrix(7)
        for stage in (classify, enumerate_w_candidates):
            with pytest.raises(ValueError) as info:
                stage(a)
            assert str(info.value).startswith("second compound: ")
            assert "dimension 21 exceeds the supported maximum 20" in str(info.value)
        # The unvalidated compound still serves the eigenvalue-product check.
        assert verify_eigenvalue_products(a).ok


class TestTypes:
    def test_classification_frozen(self):
        c = classify(np.ones((2, 2)))
        assert isinstance(c, Classification)
        with pytest.raises(AttributeError):
            c.theorem = "X"

    def test_spectrum_frozen(self):
        spec = eigenvalues(np.eye(2))
        assert isinstance(spec, Spectrum)
        with pytest.raises(AttributeError):
            spec.rho = 0.0
