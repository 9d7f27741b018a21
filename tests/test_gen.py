import math

import numpy as np
import pytest

from signspectra.digraph import imprimitivity_index, is_irreducible
from signspectra.exterior import compound2
from signspectra.gen import (
    GenerationError,
    GenSpec,
    cyclic_h,
    generate,
    nonneg_irreducible,
    reducible_blocks,
    scrambled,
    tp2,
)
from signspectra.signsym import JCertificate, detect

from helpers import cycle_matrix, hungarian_close


class TestNonnegIrreducible:
    def test_deterministic(self):
        a = nonneg_irreducible(7, density=0.3, seed=42)
        b = nonneg_irreducible(7, density=0.3, seed=42)
        assert np.array_equal(a, b)
        c = nonneg_irreducible(7, density=0.3, seed=43)
        assert not np.array_equal(a, c)

    def test_planted_cycle_only_at_zero_density(self):
        for n in range(1, 10):
            a = nonneg_irreducible(n, density=0.0, seed=n)
            assert np.count_nonzero(a) == n
            assert is_irreducible(a)

    def test_density_adds_entries(self):
        sparse = nonneg_irreducible(20, density=0.0, seed=1)
        dense = nonneg_irreducible(20, density=0.5, seed=1)
        assert np.count_nonzero(dense) > np.count_nonzero(sparse)
        assert is_irreducible(dense)

    def test_magnitude_scales_entries(self):
        a = nonneg_irreducible(6, density=0.4, seed=9, magnitude=10.0)
        nz = a[a != 0]
        assert ((nz >= 5.0) & (nz <= 15.0)).all()

    def test_one_by_one_positive(self):
        a = nonneg_irreducible(1, seed=5)
        assert a.shape == (1, 1) and a[0, 0] > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            nonneg_irreducible(0)
        with pytest.raises(ValueError):
            nonneg_irreducible(3, density=1.5)
        with pytest.raises(ValueError):
            nonneg_irreducible(3, magnitude=0.0)


class TestCyclicH:
    def test_exact_index_on_grid(self):
        for n in range(2, 9):
            for h in range(1, n + 1):
                a = cyclic_h(n, h, seed=n * 31 + h)
                assert is_irreducible(a)
                assert imprimitivity_index(a).h == h

    def test_balanced_classes(self):
        a = cyclic_h(10, 4, seed=3)
        sizes = sorted(len(c) for c in imprimitivity_index(a).cyclic_classes)
        assert sizes == [2, 2, 3, 3]

    def test_deterministic(self):
        assert np.array_equal(cyclic_h(8, 3, seed=11), cyclic_h(8, 3, seed=11))

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            cyclic_h(4, 5)
        with pytest.raises(ValueError):
            cyclic_h(4, 0)


class TestTp2:
    def test_seed_zero_is_binomial(self):
        for n in (3, 4, 5, 6):
            a = tp2(n, seed=0)
            expected = np.array(
                [[math.comb(i + j - 2, i - 1) for j in range(1, n + 1)]
                 for i in range(1, n + 1)],
                dtype=float,
            )
            assert np.array_equal(a, expected)

    def test_doubly_positive_across_seeds(self):
        for seed in range(1, 31):
            n = 3 + seed % 3
            a = tp2(n, seed=seed)
            assert (a > 0).all()
            assert (compound2(a) > 0).all()

    def test_deterministic(self):
        assert np.array_equal(tp2(5, seed=7), tp2(5, seed=7))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            tp2(1)


class TestScrambled:
    def test_explicit_j_set_recoverable(self):
        base = nonneg_irreducible(6, density=0.6, seed=2)
        a = scrambled(base, j_set={2, 5}, seed=0)
        cert = detect(a)
        assert isinstance(cert, JCertificate)
        # Canonical certificate never contains index 1, so it recovers the
        # planted set or its complement.
        assert cert.j_set in (frozenset({2, 5}), frozenset({1, 3, 4, 6}))
        assert np.array_equal(cert.a_tilde, base)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            base = nonneg_irreducible(7, density=0.5, seed=int(rng.integers(0, 10**6)))
            a = scrambled(base, seed=int(rng.integers(0, 10**6)))
            rho = float(np.abs(np.linalg.eigvals(base)).max())
            assert hungarian_close(
                np.linalg.eigvals(base),
                np.linalg.eigvals(a),
                1e-12 * max(1.0, rho),
            )

    def test_random_subset_deterministic(self):
        base = np.ones((5, 5))
        assert np.array_equal(scrambled(base, seed=3), scrambled(base, seed=3))

    def test_empty_j_is_identity(self):
        base = nonneg_irreducible(4, seed=1)
        assert np.array_equal(scrambled(base, j_set=set()), base)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="j_set"):
            scrambled(np.ones((3, 3)), j_set={4})


class TestReducibleBlocks:
    def test_block_diagonal_layout(self):
        a = reducible_blocks([cycle_matrix(3), np.array([[2.0]])])
        assert a.shape == (4, 4)
        assert np.array_equal(a[:3, :3], cycle_matrix(3))
        assert a[3, 3] == 2.0
        assert (a[:3, 3] == 0).all() and (a[3, :3] == 0).all()

    def test_rho_targets_rescale(self):
        a = reducible_blocks(
            [cycle_matrix(3), cycle_matrix(4)], rho_targets=[0.5, 2.0]
        )
        rho_top = float(np.abs(np.linalg.eigvals(a[:3, :3])).max())
        rho_bottom = float(np.abs(np.linalg.eigvals(a[3:, 3:])).max())
        assert rho_top == pytest.approx(0.5)
        assert rho_bottom == pytest.approx(2.0)

    def test_nilpotent_block_cannot_reach_positive_target(self):
        nil = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(GenerationError, match="nilpotent"):
            reducible_blocks([nil], rho_targets=[1.0])
        a = reducible_blocks([nil], rho_targets=[0.0])
        assert np.array_equal(a, nil)

    def test_rejects_mismatched_targets(self):
        with pytest.raises(ValueError):
            reducible_blocks([np.eye(2)], rho_targets=[1.0, 2.0])
        with pytest.raises(ValueError):
            reducible_blocks([])
        with pytest.raises(ValueError):
            reducible_blocks([np.eye(2)], rho_targets=[-1.0])


class TestGenSpec:
    def test_round_trip_simple_kinds(self):
        specs = [
            GenSpec(kind="nonneg_irreducible", n=6, seed=4, density=0.3, magnitude=2.0),
            GenSpec(kind="cyclic_h", n=9, seed=1, h=3),
            GenSpec(kind="tp2", n=4, seed=5),
        ]
        for spec in specs:
            again = GenSpec.from_json(spec.to_json())
            assert np.array_equal(generate(spec), generate(again))

    def test_round_trip_nested(self):
        spec = GenSpec(
            kind="scrambled",
            seed=8,
            j_set=(1, 3),
            base=GenSpec(kind="tp2", n=4, seed=2),
        )
        again = GenSpec.from_json(spec.to_json())
        assert np.array_equal(generate(spec), generate(again))

    def test_round_trip_blocks(self):
        spec = GenSpec(
            kind="reducible_blocks",
            blocks=(
                GenSpec(kind="cyclic_h", n=3, seed=0, h=3),
                GenSpec(kind="nonneg_irreducible", n=2, seed=1),
            ),
            rho_targets=(1.0, 0.5),
        )
        again = GenSpec.from_json(spec.to_json())
        a = generate(spec)
        assert np.array_equal(a, generate(again))
        assert a.shape == (5, 5)

    def test_generate_matches_direct_calls(self):
        spec = GenSpec(kind="cyclic_h", n=6, seed=9, h=2)
        assert np.array_equal(generate(spec), cyclic_h(6, 2, seed=9))
        spec = GenSpec(
            kind="scrambled",
            seed=3,
            j_set=None,
            base=GenSpec(kind="nonneg_irreducible", n=5, seed=7, density=0.2),
        )
        direct = scrambled(nonneg_irreducible(5, density=0.2, seed=7), seed=3)
        assert np.array_equal(generate(spec), direct)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            GenSpec.from_dict({"kind": "mystery"})
        with pytest.raises(ValueError):
            GenSpec.from_dict(["not", "a", "dict"])
        with pytest.raises(ValueError):
            generate(GenSpec(kind="mystery"))
        # A missing or ill-typed field is a ValueError naming kind and field.
        for data, message in [
            ({"kind": "tp2"}, "tp2 spec: missing field 'n'"),
            ({"kind": "cyclic_h", "h": 3}, "cyclic_h spec: missing field 'n'"),
            ({"kind": "reducible_blocks", "blocks": 5}, "reducible_blocks spec: field 'blocks'"),
            (
                {"kind": "scrambled", "j_set": 2, "base": {"kind": "tp2", "n": 3}},
                "scrambled spec: field 'j_set'",
            ),
            ({"kind": "scrambled", "base": {"kind": "tp2"}}, "tp2 spec: missing field 'n'"),
        ]:
            with pytest.raises(ValueError) as info:
                GenSpec.from_dict(data)
            assert str(info.value).startswith(message)
