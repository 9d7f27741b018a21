import itertools
import json
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import signspectra
from signspectra.gen import cyclic_h, reducible_blocks, scrambled, tp2
from signspectra.digraph import frobenius_form
from signspectra.exterior import compound2
from signspectra.signsym import TooManyCertificatesError, sign_constraint_graph
from signspectra.wsets import find_transitive_w, w_candidates_from_graphs
from signspectra import spectral
from signspectra.spectral import (
    Classification,
    _pairs_every_row,
    Facts,
    PeripheralGroup,
    Spectrum,
    classify,
    counterexample_bundle,
    eigenvalues,
    match_complex_multisets,
    peripheral_spectrum,
)

from helpers import (
    EXAMPLE1,
    count_calls,
    count_calls_by_dimension,
    cycle_matrix,
)
from leaf_sweep import sweep


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

    def test_overflowing_spectrum_is_value_error(self):
        # Finite entries, but the eigenvalue 2e308 overflows to inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^spectrum overflowed"):
                eigenvalues(np.full((2, 2), 1e308))


# Small Gaussian integers: distances tie often, where min-sum and min-max
# pairings part ways.
GAUSSIAN_INTEGER = st.builds(complex, st.integers(-2, 2), st.integers(-1, 1))
# Exact ties and repeats, arbitrary small values, and parts near the float
# limit.  Near the four ends of the axes at 1.7e308, points at one end lie
# close together and points at different ends lie beyond the float range.
HUGE = st.sampled_from([-1.7e308, -1.5e308, -1e308, 0.0, 1e308, 1.5e308, 1.7e308])
AXIS_END = st.builds(
    lambda end, offset: end + offset,
    st.sampled_from([1.7e308, -1.7e308, 1.7e308j, -1.7e308j]),
    GAUSSIAN_INTEGER,
)
MATCH_VALUE = st.one_of(
    GAUSSIAN_INTEGER,
    st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
    st.builds(complex, HUGE, HUGE),
    AXIS_END,
)


def smallest_largest_distance(cost: np.ndarray) -> float:
    """The largest distance of the best pairing: over every permutation up
    to n = 7, above that the smallest distance t for which scipy finds a
    pairing with no distance beyond t."""
    n = cost.shape[0]
    if n <= 7:
        perms = np.array(list(itertools.permutations(range(n))))
        return cost[np.arange(n), perms].max(axis=1).min()
    from scipy.optimize import linear_sum_assignment

    values = np.unique(cost)
    lo, hi = 0, len(values) - 1  # values[hi] always admits a pairing
    while lo < hi:
        mid = (lo + hi) // 2
        beyond = cost > values[mid]
        if beyond[linear_sum_assignment(beyond)].any():
            lo = mid + 1
        else:
            hi = mid
    return values[hi]


@st.composite
def tie_heavy_costs(draw):
    """A square cost matrix, k <= 77, that ties often: small integers, 0/1
    costs, or the distances from clusters (1 + j 2^-52) w^t to repeated
    k-th roots of unity w^s."""
    k = draw(st.integers(1, 77))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integers", "binary", "clusters"]))
    if kind == "integers":
        return rng.integers(0, draw(st.integers(1, 4)), (k, k)).astype(float)
    if kind == "binary":
        return rng.random((k, k)) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    spread = draw(st.integers(1, k))  # how many distinct roots are drawn from
    a = (1 + rng.integers(0, 4, k) * 2.0**-52) * roots[rng.integers(0, spread, k)]
    b = roots[rng.integers(0, spread, k)]
    return np.abs(a[:, None] - b[None, :])


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

    def test_distance_beyond_float_range_raises_no_warning(self):
        # 1e308 - (-1e308) overflows: that distance is inf, without a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = match_complex_multisets([1e308, -1e308], [-1e308, 1e308], 1.0)
            assert res.ok and res.max_distance == 0.0
            res = match_complex_multisets([1e308, -1e308, 0.0], [1e308, 0.0, -1e308], 1.0)
            assert res.ok and res.max_distance == 0.0

    @pytest.mark.parametrize("a, b", [
        # Row 0 is inf in every pairing.
        ([1.7e308, 0.0], [-1e308, -0.5e308]),
        # Every distance is inf: the peripheral pair of [[0, -1.5e308], [1.5e308, 0]].
        ([1.5e308j, -1.5e308j], [1.5e308, -1.5e308]),
        # Column 1 is inf in every pairing, though no row is all inf.
        ([1e308, 1.7e308], [1.6e308, -1e308]),
        # Rows 0 and 1 are finite only in column 0.
        ([1.7e308, 1.6e308, 0.0], [1.65e308, -1e308, -1e308]),
        # An infinite value lies beyond the float range of every finite one.
        ([1, 2], [2, complex(float("inf"), 0)]),
    ])
    def test_every_pairing_infinite(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = match_complex_multisets(a, b, 1.0)
        assert (res.ok, res.max_distance) == (False, float("inf"))

    @pytest.mark.parametrize("a, b", [
        # Each row's nearest target is a different one, the NaN row's included.
        ([5, float("nan")], [0, 5]),
        ([float("nan")], [1]),
        ([0, 1, 2], [1, 2, complex(0, float("nan"))]),
    ])
    def test_nan_distance_raises(self, a, b):
        with pytest.raises(ValueError, match="distance is NaN"):
            match_complex_multisets(a, b, 1.0)

    def test_min_sum_pairing_beyond_tol(self):
        # The min-sum pairing 1-1, 0-2 reaches 2.0; 0-1, 1-2 stays within 1.0.
        res = match_complex_multisets([1, 0], [1, 2], 1.5)
        assert res.ok
        assert res.max_distance == 1.0

    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(*[st.lists(GAUSSIAN_INTEGER, min_size=n, max_size=n)] * 2)
        ),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
    )
    @example(([1, 0], [1, 2]), 1.5)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_brute_force(self, sets, tol):
        a, b = (np.array(v, dtype=complex) for v in sets)
        cost = np.abs(a[:, None] - b[None, :])
        bottleneck = smallest_largest_distance(cost)
        res = match_complex_multisets(a, b, tol)
        assert res.max_distance == bottleneck
        assert res.ok == (bottleneck <= tol)

    @given(
        st.integers(1, 20).flatmap(
            lambda n: st.tuples(*[st.lists(MATCH_VALUE, min_size=n, max_size=n)] * 2)
        ),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0, 1e300]),
    )
    @example(([1.5e308j, -1.5e308j], [1.5e308, -1.5e308]), 1.0)
    @example(([0, 0, -1.7e308], [0, 0, -1.7e308j]), 0.0)
    @example(([1, 0], [1, 2]), 1.5)
    @settings(max_examples=500, deadline=None)
    def test_max_distance_is_the_bottleneck(self, sets, tol):
        a, b = sets
        res = match_complex_multisets(a, b, tol)
        with np.errstate(over="ignore"):
            cost = np.abs(np.subtract.outer(np.array(a, dtype=complex), np.array(b, dtype=complex)))
        bottleneck = smallest_largest_distance(cost)
        assert (res.ok, res.max_distance) == (bottleneck <= tol, bottleneck)

    @given(tie_heavy_costs(), st.floats(0.0, 1.0))
    @example(np.zeros((3, 3)), 0.0)
    @example(np.ones((77, 77), dtype=bool), 0.0)
    @settings(max_examples=100, deadline=None)
    def test_pairs_every_row_as_scipy(self, cost, q):
        # A pairing within the allowed entries exists when scipy's 0/1
        # assignment of the forbidden ones costs 0.
        from scipy.optimize import linear_sum_assignment

        cost = cost.astype(float)
        allowed = cost <= np.quantile(cost, q, method="lower")
        forbidden = ~allowed
        assert _pairs_every_row(allowed) == (not forbidden[linear_sum_assignment(forbidden)].any())

    @pytest.mark.parametrize("n", [78, 200])
    def test_cycle_with_a_negative_arc(self, n):
        # Each eigenvalue, an n-th root of -1, lies halfway between two n-th
        # roots of 1, so the row rule fails and the bottleneck is bisected.
        a = cycle_matrix(n)
        a[0, 1] = -1.0
        values = eigenvalues(a).values
        targets = np.exp(2j * np.pi * np.arange(n) / n)
        bottleneck = smallest_largest_distance(np.abs(values[:, None] - targets[None, :]))
        for tol, ok in [(1e-9, False), (bottleneck, True)]:
            res = match_complex_multisets(values, targets, tol)
            assert (res.ok, res.max_distance) == (ok, bottleneck)


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

    def test_overflowing_power_is_inf(self):
        # rho^3 = 1e330 is beyond the float range; rho itself is not.
        per = peripheral_spectrum(cycle_matrix(3) * 1e110)
        assert per.count == 3
        assert per.roots_of == (3, float("inf"))

    def test_accepts_spectrum(self):
        spec = eigenvalues(EXAMPLE1)
        per = peripheral_spectrum(spec)
        assert per.count == 5
        assert np.array_equal(per.values, peripheral_spectrum(EXAMPLE1).values)

    @pytest.mark.parametrize("rel_tol", [5.0, -1.0, 0.0, 1.0, float("nan")])
    def test_band_outside_unit_interval_is_rejected(self, rel_tol):
        # Unchecked, 5 would count both eigenvalues 3 and 1 and -1 neither.
        with pytest.raises(ValueError, match=rf"^rel_tol must lie in \(0, 1\), got {rel_tol!r}$"):
            peripheral_spectrum([[2.0, 1.0], [1.0, 2.0]], rel_tol=rel_tol)


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

    @pytest.mark.parametrize("scale", [1e100, 1e110, 1e125, 1e150])
    def test_three_cycle_routes_t92_at_large_scale(self, scale):
        c = classify(cycle_matrix(3) * scale)
        assert (c.theorem, c.verified) == ("T9.2", True)
        assert c.peripheral.roots_of[0] == 3

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

    @pytest.mark.parametrize("a", [[[2.0]], np.ones((2, 2)), [[1, -1, -1], [-1, 1, 0], [-1, 1, 1]]])
    def test_t10_never_searches_for_a_transitive_w(self, monkeypatch, a):
        # The T10 routes precede every route that reads the transitive-W fact.
        calls = count_calls(monkeypatch, "find_transitive_w")
        assert classify(a).theorem == "T10"
        assert calls == {"find_transitive_w": 0}

    def test_t11_lists_the_arcs_of_a_and_of_its_compound_once(self, monkeypatch):
        # The sign graph, the pattern index and the Frobenius form of A read
        # one arc list, and the sign graph and pattern index of C2 another.
        # Only float arrays count: the 8 peripheral values share nearest
        # roots, so the matcher lists the arcs of a boolean 8 x 8 matrix.
        a = reducible_blocks([cycle_matrix(3), cycle_matrix(5)])
        shapes = []
        nonzero = np.nonzero

        def record(x):
            if np.asarray(x).dtype == float:
                shapes.append(np.shape(x))
            return nonzero(x)

        monkeypatch.setattr(np, "nonzero", record)
        names = ("frobenius_form", "_pattern_index", "sign_constraint_graph")
        calls = count_calls_by_dimension(monkeypatch, *names)
        assert classify(a).theorem == "T11"
        assert [(calls[name][8], calls[name][28]) for name in names] == [(1, 0), (1, 1), (1, 1)]
        assert (shapes.count((8, 8)), shapes.count((28, 28))) == (1, 1)

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

    def test_tolerance_below_rounding_forces_failure(self):
        # The computed 5th roots of unity are off by about 1e-16.
        c = classify(EXAMPLE1, rel_tol=1e-30)
        assert c.theorem == "T8.2"
        assert not c.verified
        assert any(not p.verified for p in c.predictions)

    @pytest.mark.parametrize(
        "tolerances, message",
        [
            ({"rel_tol": -1.0}, "rel_tol must be finite and positive, got -1.0"),
            ({"rel_tol": 0.0}, "rel_tol must be finite and positive, got 0.0"),
            ({"rel_tol": float("nan")}, "rel_tol must be finite and positive, got nan"),
            ({"rel_tol": float("inf")}, "rel_tol must be finite and positive, got inf"),
            ({"peripheral_tol": 0.0}, r"peripheral_tol must lie in \(0, 1\), got 0.0"),
            ({"peripheral_tol": 1.0}, r"peripheral_tol must lie in \(0, 1\), got 1.0"),
            ({"peripheral_tol": 5.0}, r"peripheral_tol must lie in \(0, 1\), got 5.0"),
            ({"peripheral_tol": float("nan")}, r"peripheral_tol must lie in \(0, 1\), got nan"),
        ],
    )
    def test_invalid_tolerances_are_rejected(self, monkeypatch, tolerances, message):
        # Rejected before any fact is computed.
        calls = count_calls(monkeypatch, "eigenvalues", "sign_constraint_graph")
        with pytest.raises(ValueError, match=f"^{message}$"):
            classify(EXAMPLE1, **tolerances)
        assert calls == {"eigenvalues": 0, "sign_constraint_graph": 0}


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

    def test_invariant_under_simultaneous_permutation(self):
        # Renumbering the indices, P A P^T, moves no label, routing fact or
        # claim: a seeded sample of the criteria 07-11 inputs, each alone and
        # scrambled, under random permutations.  Scaling is left out, since
        # a positive rescaling can still move a verdict.
        from test_exterior import family_inputs

        inputs = list(family_inputs())
        rng = np.random.default_rng(18)
        for k in rng.choice(len(inputs), size=300, replace=False).tolist():
            for a in (inputs[k], scrambled(inputs[k], seed=k)):
                p = rng.permutation(len(a))
                assert classify(a[np.ix_(p, p)]).verdict() == classify(a).verdict()

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


def spectrum_of(values, rho) -> Spectrum:
    """A Spectrum with `values` in the order given and radius `rho`."""
    return Spectrum(np.asarray(values, dtype=complex), float(rho), 0.0)


def group_of(values, rho) -> PeripheralGroup:
    """A PeripheralGroup of `values` on the circle of radius `rho`."""
    values = np.asarray(values, dtype=complex)
    return PeripheralGroup(values.size, values, float(rho), 1e-6, None, False)


# One input per claim builder that breaks its claim, by the name of the case.
BROKEN_CLAIMS = {
    "rho-not-an-eigenvalue": lambda: spectral._pred_rho_eigenvalue(spectrum_of([-2, 1], 2), 1e-6),
    "rho-zero": lambda: spectral._pred_rho_eigenvalue(spectrum_of([0], 0), 1e-6),
    "index-two-one-peripheral": lambda: spectral._pred_index_one(2, group_of([1], 1)),
    "second-complex-strict": lambda: spectral._pred_second_real(
        spectrum_of([1, 0.5 + 0.5j], 1), strict=True
    ),
    "second-complex-nonstrict": lambda: spectral._pred_second_real(
        spectrum_of([1, 0.5 + 0.5j], 1), strict=False
    ),
    "second-negative-strict": lambda: spectral._pred_second_real(
        spectrum_of([1, -0.5], 1), strict=True
    ),
    "second-on-the-circle": lambda: spectral._pred_second_below_rho(spectrum_of([1, -1], 1)),
    "quarter-turns-not-cube-roots": lambda: spectral._pred_peripheral_roots(
        group_of([2, 2j, -2], 2), 3, 1e-6
    ),
    "two-equal-peripheral-values": lambda: spectral._pred_peripheral_simple(group_of([1, 1], 1)),
}


class TestBrokenClaims:
    """Every claim builder reports a claim that its input breaks as not
    verified; routed inputs satisfy their theorem, so only these reach the
    failing branches."""

    @pytest.mark.parametrize("name", sorted(BROKEN_CLAIMS))
    def test_is_not_verified(self, name):
        assert BROKEN_CLAIMS[name]().verified is False


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
        c = classify(a, rel_tol=1e-30, peripheral_tol=1e-5)
        bundle = counterexample_bundle(a, c)
        assert bundle["tolerances"] == {"rel_tol": 1e-30, "peripheral_tol": 1e-5}
        assert bundle["versions"] == {
            "signspectra": signspectra.__version__,
            "numpy": np.__version__,
        }

    def test_records_failures(self):
        a = np.asarray(EXAMPLE1)
        c = classify(a, rel_tol=1e-30)
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
        # The graph limit does not bind the eigenvalue-product check, which
        # reads only the values of the compound.
        assert verify_eigenvalue_products(a).ok

    @pytest.mark.parametrize("n", [78, 100])
    def test_graph_limit_is_decided_before_the_compound_is_built(self, monkeypatch, n):
        calls = count_calls(monkeypatch, "compound2")
        with pytest.raises(ValueError) as info:
            classify(cycle_matrix(n))
        assert str(info.value) == (
            f"second compound: matrix dimension {n * (n - 1) // 2}"
            " exceeds the supported maximum 3000"
        )
        assert calls == {"compound2": 0}


class TestFactsFrobenius:
    @pytest.mark.parametrize(
        "a",
        [np.array([[2.0]]), EXAMPLE1, cyclic_h(7, 7, seed=2), tp2(6, seed=3),
         scrambled(tp2(5, seed=4), seed=5), np.ones((3, 3)),
         reducible_blocks([cycle_matrix(3), cycle_matrix(5)], rho_targets=[1.0, 0.5])],
    )
    def test_equals_frobenius_form_bit_for_bit(self, a):
        got, expected = Facts(a).frobenius, frobenius_form(a)
        assert got.perm == expected.perm
        assert got.block_sizes == expected.block_sizes
        assert got.block_indices == expected.block_indices
        assert all(np.array_equal(g, e) for g, e in zip(got.blocks, expected.blocks))
        assert len(got.blocks) == len(expected.blocks)
        assert (got.rho_per_block, got.rho) == (expected.rho_per_block, expected.rho)


class TestTransitiveWProof:
    """The README's proof that a zero diagonal and a cycle leave no
    transitive W set, checked against the search and brute force."""

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_step_one_transitive_w_makes_dad_tp2(self, seed):
        # For every transitive candidate W with order sigma, built from a
        # certificate pair (J, Jt), B = DAD on sigma-ordered rows and columns
        # has no negative 2 x 2 minor.  Half the inputs are permuted `tp2`
        # matrices, which have transitive W sets at every n.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        if rng.random() < 0.5:
            perm = rng.permutation(n)
            b = tp2(n, seed=seed)[np.ix_(perm, perm)]
        else:
            b = rng.uniform(0.5, 2.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 1.0))
        d = rng.choice([-1.0, 1.0], n)
        facts = Facts(d[:, None] * b * d[None, :])
        if not facts.graph_c.consistent:
            return
        try:
            enum = w_candidates_from_graphs(facts.graph_a, facts.graph_c, cap=2**12)
        except TooManyCertificatesError:
            return
        for cand in enum.candidates:
            if cand.transitive:
                j_set, _ = cand.generating_pairs[0]
                flips = np.ones(n)
                flips[[v - 1 for v in j_set]] = -1.0
                order = np.argsort(cand.order.images)
                dad = flips[:, None] * facts.matrix * flips[None, :]
                assert (compound2(dad[np.ix_(order, order)]) >= 0).all()

    def test_search_finds_none_on_zero_diagonal_patterns_with_a_cycle(self):
        # Every zero-diagonal 0/1 pattern with 2 <= n <= 4 and a
        # sign-symmetric C2, and its scramble: the search finds no transitive
        # W set exactly when the pattern has a cycle, that is P^n != 0.
        counts = {True: 0, False: 0}
        for n in (2, 3, 4):
            off = np.flatnonzero(~np.eye(n, dtype=bool))
            flips = (-1.0) ** np.arange(n)
            for code in range(2**off.size):
                pattern = np.zeros(n * n, dtype=np.int64)
                pattern[off] = (code >> np.arange(off.size)) & 1
                pattern = pattern.reshape(n, n)
                cycle = bool(np.linalg.matrix_power(pattern, n).any())
                for a in (pattern, flips[:, None] * pattern * flips[None, :]):
                    graph_c = sign_constraint_graph(compound2(a))
                    if not graph_c.consistent:
                        break
                    found = find_transitive_w(sign_constraint_graph(a), graph_c)
                    assert (found is None) == cycle, a
                else:
                    counts[cycle] += 1
        assert counts == {True: 70, False: 499}

    def test_facts_answer_zero_diagonal_cycles_without_the_search(self, monkeypatch):
        # Irreducible, and reducible with a cyclic block; a positive diagonal
        # entry, or no cycle, still searches.
        calls = count_calls(monkeypatch, "find_transitive_w")
        for a in (EXAMPLE1, reducible_blocks([cycle_matrix(3), cycle_matrix(5)])):
            assert Facts(a).transitive_w is None
        assert calls == {"find_transitive_w": 0}
        assert Facts(tp2(5, seed=2)).transitive_w is not None
        assert Facts(np.triu(np.ones((3, 3)), k=1)).transitive_w is not None
        assert calls == {"find_transitive_w": 2}

    def test_every_pattern_up_to_order_three(self):
        # ROADMAP item 13's sweep: all 530 0/1 patterns with n <= 3, with
        # unit magnitudes and one magnitude draw, each also scrambled; every
        # routing fact equals its brute-force oracle.
        labels = Counter()
        for n in (1, 2, 3):
            counts, failed = sweep(n, draws=(0,))
            assert failed == []
            labels += counts
        assert labels == {"NONE": 1218, "T11": 864, "T10": 20, "T9.1": 10, "T9.2": 8}


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
