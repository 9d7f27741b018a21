"""End-to-end acceptance checks.

One test per acceptance criterion, in order, so `pytest -v` prints a
pass/fail line for each.  Every check runs at the stated tolerance and,
where a runtime budget applies, asserts it with a wall clock.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from signspectra.cli import main
from signspectra.core import pair_unindex
from signspectra.digraph import frobenius_form, imprimitivity_index, is_irreducible
from signspectra.exterior import exterior_product, verify_eigenvalue_products, w_matrix
from signspectra.gen import cyclic_h, reducible_blocks, scrambled, tp2
from signspectra.signsym import JCertificate, detect, enumerate_certificates
from signspectra.signsym import verify_certificate
from signspectra.signsym import sign_constraint_graph
from signspectra.spectral import classify, counterexample_bundle, eigenvalues
from signspectra.spectral import peripheral_spectrum

from helpers import (
    EXAMPLE1,
    EXAMPLE1_COMPOUND,
    EXAMPLE1_COMPOUND_CSV,
    EXAMPLE1_COMPOUND_J_SETS,
    STABLE_ODD_CELLS,
    brute_force_j_sets,
    count_calls,
    cycle_matrix,
    pairs_within,
    random_wset,
    scramble_pairs,
)

FIFTH_ROOTS = np.exp(2j * np.pi * np.arange(5) / 5)


def split_match(left, right, cut: float, atol: float) -> bool:
    """Hungarian-match the parts of two spectra that double precision can
    resolve.  Eigenvalues that are exactly zero in exact arithmetic come
    back from a dense solver as clusters of radius roughly eps**(1/k) for a
    length-k Jordan chain, far outside any fixed matching tolerance, so the
    sub-`cut` cluster is compared by count only."""
    left, right = np.asarray(left), np.asarray(right)
    big_l = left[np.abs(left) > cut]
    big_r = right[np.abs(right) > cut]
    if len(big_l) != len(big_r):
        return False
    return pairs_within(big_l, big_r, atol)


def write_example_csv(tmp_path) -> str:
    path = tmp_path / "example.csv"
    rows = [",".join(str(int(v)) for v in row) for row in EXAMPLE1]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_criterion_01_compound_command_reproduces_worked_example_exactly(
    tmp_path, capsys
):
    path = write_example_csv(tmp_path)
    start = time.perf_counter()
    code = main(["compound", path])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out == EXAMPLE1_COMPOUND_CSV
    parsed = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()])
    assert parsed.shape == (10, 10)
    assert np.array_equal(parsed, EXAMPLE1_COMPOUND)
    assert elapsed < 1.0
    # Entry (alpha, beta) is the minor on the rows of pair alpha and the
    # columns of pair beta, the positions `wsets` and `analyze` print.
    a = EXAMPLE1
    for alpha in range(1, 11):
        i, j = pair_unindex(alpha, 5)
        for beta in range(1, 11):
            p, q = pair_unindex(beta, 5)
            minor = a[i - 1, p - 1] * a[j - 1, q - 1] - a[i - 1, q - 1] * a[j - 1, p - 1]
            assert EXAMPLE1_COMPOUND[alpha - 1, beta - 1] == minor


def test_criterion_02_compound_certificates_are_the_four_known_sets():
    start = time.perf_counter()
    certs = enumerate_certificates(EXAMPLE1_COMPOUND)
    elapsed = time.perf_counter() - start
    assert len(certs) == 4
    assert {frozenset(c.j_set) for c in certs} == EXAMPLE1_COMPOUND_J_SETS
    assert elapsed < 1.0


def test_criterion_03_analyze_routes_worked_example_to_odd_cycle_case(
    tmp_path, capsys
):
    path = write_example_csv(tmp_path)
    code = main(["analyze", path])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    cls = report["classification"]
    assert cls["theorem"] == "T8.2"
    assert cls["peripheral"]["k"] == 5
    assert cls["peripheral"]["k"] % 2 == 1
    values = [complex(z["re"], z["im"]) for z in cls["peripheral"]["values"]]
    assert pairs_within(values, FIFTH_ROOTS, atol=1e-8)


def test_criterion_04_eigenvalue_products_match_for_random_w_matrices():
    rng = np.random.default_rng(20260401)
    vectors = np.random.default_rng(20260411)  # own stream: x, y do not shift a, w
    sizes = [3, 4, 5, 6]
    start = time.perf_counter()
    failures = 0
    for i in range(200):
        n = sizes[i % len(sizes)]
        a = rng.integers(-5, 6, size=(n, n)).astype(float)
        for _ in range(3):
            w = random_wset(n, rng)
            check = verify_eigenvalue_products(a, w)
            if not check.ok:
                failures += 1
            # The W matrix is the action C2(A)(x ^ y) = (Ax) ^ (Ay).
            x, y = vectors.standard_normal((2, n))
            assert np.allclose(
                w_matrix(a, w).entries @ exterior_product(x, y, w),
                exterior_product(a @ x, a @ y, w),
            )
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_05_detection_matches_exhaustive_sign_search():
    rng = np.random.default_rng(20260402)
    start = time.perf_counter()
    for i in range(500):
        n = int(rng.integers(1, 13))
        density = 0.3 if i % 2 == 0 else 0.7
        signs = rng.integers(-1, 2, size=(n, n)).astype(float)
        a = signs * (rng.random((n, n)) < density)
        expected = brute_force_j_sets(a)
        res = detect(a)
        assert isinstance(res, JCertificate) == bool(expected)
        if expected:
            assert set(sign_constraint_graph(a).j_sets()) == expected
            # Each certificate replays D A D >= 0, and D (-A) D has a
            # negative entry unless A = 0.
            for cert in enumerate_certificates(a):
                assert verify_certificate(a, cert)
                if a.any():
                    assert not verify_certificate(-a, cert)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_criterion_06_frobenius_form_is_exact_and_spectrum_preserving():
    # Population chosen so every eigenvalue cluster is resolvable in double
    # precision at the stated matching tolerance.
    rng = np.random.default_rng(20260417)
    densities = [0.05, 0.2, 0.6]
    start = time.perf_counter()
    for i in range(200):
        n = int(rng.integers(2, 41))
        density = densities[i % len(densities)]
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
        form = frobenius_form(a)
        b = form.apply(a)
        sizes = [len(block) for block in form.block_indices]
        bounds = np.cumsum([0] + sizes)
        union = []
        for t in range(len(sizes)):
            lo, hi = bounds[t], bounds[t + 1]
            assert np.all(b[lo:hi, hi:] == 0.0)
            block = b[lo:hi, lo:hi]
            assert is_irreducible(block)
            union.extend(np.linalg.eigvals(block))
        spec = eigenvalues(a)
        scale = max(1.0, spec.rho)
        assert split_match(spec.values, union, cut=1e-7 * scale, atol=1e-6 * scale)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0


def test_criterion_07_imprimitivity_index_matches_peripheral_count():
    for n in range(1, 13):
        for h in range(1, n + 1):
            a = cyclic_h(n, h, seed=10 * n + h)
            assert imprimitivity_index(a).h == h
            assert peripheral_spectrum(a).count == h
            spec = eigenvalues(a)
            rotated = spec.values * np.exp(2j * np.pi / h)
            scale = max(1.0, spec.rho)
            assert split_match(spec.values, rotated, cut=1e-3 * scale, atol=1e-6 * scale)


def test_criterion_08_odd_cycle_family_never_contradicts_predictions(monkeypatch):
    # A zero diagonal and a cycle rule out every transitive W set (README),
    # so no input of the family searches for one.
    searches = count_calls(monkeypatch, "find_transitive_w")
    required = {
        "peripheral_count_odd",
        "peripheral_simple",
        "peripheral_roots_of_rho",
    }
    for i in range(1000):
        n, h = STABLE_ODD_CELLS[i % len(STABLE_ODD_CELLS)]
        base = cyclic_h(n, h, seed=i)
        for a in (base, scrambled(base, seed=i)):
            c = classify(a)
            ok = (
                c.theorem == "T8.2"
                and c.verified
                and c.peripheral_count == h
                and h % 2 == 1
                and required <= {p.claim for p in c.predictions}
            )
            if not ok:
                pytest.fail(
                    json.dumps(counterexample_bundle(a, c), indent=2),
                    pytrace=False,
                )
    assert searches == {"find_transitive_w": 0}


def test_criterion_09_doubly_positive_family_has_two_positive_leaders():
    sizes = [3, 4, 5]
    for i in range(200):
        n = sizes[i % len(sizes)]
        base = tp2(n, seed=i)
        for a in (base, scrambled(base, seed=i)):
            c = classify(a)
            assert c.theorem == "T9.1"
            assert c.verified
            lead, second = c.spectrum.values[0], c.spectrum.values[1]
            rho = c.spectrum.rho
            assert abs(second.imag) <= 1e-8 * rho
            assert second.real > 0.0
            assert lead.real > second.real


def test_criterion_10_block_diagonal_multiplicity_and_groups():
    rng = np.random.default_rng(20260404)
    pool = [cycle_matrix(3), cycle_matrix(5), cycle_matrix(7), tp2(3, seed=9)]
    pool_k = [3, 5, 7, 1]
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
        c = classify(a)
        assert c.theorem == "T11"
        assert c.verified
        assert c.rho_multiplicity == n_attain
        expected_roots = np.concatenate(
            [
                np.exp(2j * np.pi * np.arange(pool_k[picks[t]]) / pool_k[picks[t]])
                for t in sorted(attaining)
            ]
        )
        assert c.peripheral_count == len(expected_roots)
        assert pairs_within(c.peripheral.values, expected_roots, atol=1e-6)


def test_criterion_11_scrambling_preserves_verdicts_and_spectra():
    for base, twin in scramble_pairs():
        cb = classify(base)
        ct = classify(twin)
        assert cb.verdict() == ct.verdict()
        atol = 1e-12 * max(1.0, cb.spectrum.rho)
        assert pairs_within(cb.spectrum.values, ct.spectrum.values, atol)
