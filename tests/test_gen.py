import inspect
import math
import tracemalloc

import numpy as np
import pytest

from signspectra import gen
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

    def test_rejects_a_total_above_the_limit_before_assembling(self):
        blocks = [np.zeros((1500, 1500)), np.zeros((1500, 1500)), np.zeros((1, 1))]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^matrix dimension 3001 exceeds"):
                reducible_blocks(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000  # the 3001 x 3001 matrix would take 72 MB

    def test_spec_total_is_checked_before_any_block_is_generated(self, monkeypatch):
        # 3,001 one-by-one blocks, the last behind two `scrambled` levels.
        generated = []
        original = gen._KINDS["nonneg_irreducible"]
        monkeypatch.setitem(
            gen._KINDS, "nonneg_irreducible",
            ((lambda **kw: generated.append(kw) or original[0](**kw)), original[1]),
        )
        one = GenSpec(kind="nonneg_irreducible", n=1)
        nested = GenSpec(kind="scrambled", base=GenSpec(kind="scrambled", base=one))
        spec = GenSpec(kind="reducible_blocks", blocks=(one,) * 3000 + (nested,))
        with pytest.raises(ValueError, match="^matrix dimension 3001 exceeds the supported maximum 3000$"):
            generate(spec)
        assert generated == []
        assert generate(GenSpec(kind="reducible_blocks", blocks=(one, nested))).shape == (2, 2)
        assert len(generated) == 2


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
            # Integer fields take JSON integers only, number fields integers
            # or floats: nothing is truncated, parsed or read as 0 or 1.
            ({"kind": "cyclic_h", "n": 5.9, "h": 5}, "cyclic_h spec: field 'n': expected an integer"),
            ({"kind": "cyclic_h", "n": "5", "h": 5}, "cyclic_h spec: field 'n': expected an integer"),
            ({"kind": "cyclic_h", "n": 5, "h": True}, "cyclic_h spec: field 'h': expected an integer"),
            ({"kind": "tp2", "n": 4, "seed": 1.0}, "tp2 spec: field 'seed': expected an integer"),
            ({"kind": "tp2", "n": "x"}, "tp2 spec: field 'n': expected an integer, got 'x'"),
            (
                {"kind": "scrambled", "j_set": [1.5], "base": {"kind": "tp2", "n": 3}},
                "scrambled spec: field 'j_set': expected an integer",
            ),
            (
                {"kind": "scrambled", "seed": False, "base": {"kind": "tp2", "n": 3}},
                "scrambled spec: field 'seed': expected an integer",
            ),
            (
                {"kind": "nonneg_irreducible", "n": 4, "density": "0.5"},
                "nonneg_irreducible spec: field 'density': expected a number",
            ),
            (
                {"kind": "cyclic_h", "n": 5, "h": 5, "magnitude": True},
                "cyclic_h spec: field 'magnitude': expected a number",
            ),
            (
                {"kind": "cyclic_h", "n": 5, "h": 5, "magnitude": 10**400},
                "cyclic_h spec: field 'magnitude': int too large to convert to float",
            ),
            (
                {"kind": "reducible_blocks", "blocks": [], "rho_targets": [None]},
                "reducible_blocks spec: field 'rho_targets': expected a number",
            ),
            # A field the kind does not take is named, not dropped.
            ({"kind": "tp2", "n": 5, "sed": 3}, "tp2 spec: unknown field 'sed'"),
            ({"kind": "tp2", "n": 4, "h": 2}, "tp2 spec: unknown field 'h'"),
            ({"kind": "cyclic_h", "n": 4, "h": 2, "density": 0.5}, "cyclic_h spec: unknown field 'density'"),
            (
                {"kind": "scrambled", "base": {"kind": "tp2", "n": 3, "magnitude": 2.0}},
                "tp2 spec: unknown field 'magnitude'",
            ),
            ({"kind": "reducible_blocks", "blocks": [], "seed": 1}, "reducible_blocks spec: unknown field 'seed'"),
        ]:
            with pytest.raises(ValueError) as info:
                GenSpec.from_dict(data)
            assert str(info.value).startswith(message)

    def test_nesting_is_bounded_at_64_levels(self):
        spec = {"kind": "tp2", "n": 3}
        for _ in range(63):
            spec = {"kind": "scrambled", "base": spec}
        parsed = GenSpec.from_dict(spec)  # 64 levels
        assert GenSpec.from_json(parsed.to_json()) == parsed
        for deeper in (
            {"kind": "scrambled", "base": spec},
            {"kind": "reducible_blocks", "blocks": [{"kind": "tp2", "n": 2}, spec]},
        ):
            with pytest.raises(ValueError, match="^generator specs nest at most 64 levels deep$"):
                GenSpec.from_dict(deeper)
        for _ in range(1000):  # far beyond the interpreter's recursion limit
            spec = {"kind": "scrambled", "base": spec}
        with pytest.raises(ValueError, match="nest at most 64 levels"):
            GenSpec.from_dict(spec)

    def test_kind_table_matches_generators_and_to_dict(self):
        # Each kind's fields are exactly its generator's parameters and the
        # keys that to_dict writes after "kind", in order.
        for kind, (generator, fields) in gen._KINDS.items():
            assert set(inspect.signature(generator).parameters) == set(fields), kind
            assert set(fields) <= set(GenSpec.__dataclass_fields__), kind
        specs = [
            GenSpec(kind="nonneg_irreducible", n=3),
            GenSpec(kind="cyclic_h", n=3, h=3),
            GenSpec(kind="tp2", n=3),
            GenSpec(kind="scrambled", base=GenSpec(kind="tp2", n=3)),
            GenSpec(kind="reducible_blocks", blocks=(GenSpec(kind="tp2", n=2),)),
        ]
        assert {s.kind: tuple(s.to_dict())[1:] for s in specs} == {
            kind: fields for kind, (_, fields) in gen._KINDS.items()
        }


class TestArrayFormsMatchLoops:
    """The generators build their matrices with array operations; each
    matches, bit for bit, the loop it replaced."""

    def test_planted_cycle(self):
        for n in range(1, 12):
            for seed in range(4):
                rng = np.random.Generator(np.random.PCG64(seed))
                a = np.zeros((n, n))
                order = rng.permutation(n)
                for t in range(n):
                    a[order[t], order[(t + 1) % n]] = rng.uniform(0.5, 1.5) * 2.5
                assert np.array_equal(nonneg_irreducible(n, seed=seed, magnitude=2.5), a)

    def test_cyclic_classes(self):
        for n in range(1, 12):
            for h in range(1, n + 1):
                rng = np.random.Generator(np.random.PCG64(h))
                labels = rng.permutation(n)
                base, rem = divmod(n, h)
                classes, pos = [], 0
                for r in range(h):
                    size = base + (1 if r < rem else 0)
                    classes.append(labels[pos : pos + size])
                    pos += size
                a = np.zeros((n, n))
                for r in range(h):
                    src, dst = classes[r], classes[(r + 1) % h]
                    a[np.ix_(src, dst)] = rng.uniform(0.5, 1.5, (len(src), len(dst)))
                assert np.array_equal(cyclic_h(n, h, seed=h), a)

    def test_sweep_product(self):
        rng = np.random.default_rng(4)
        for n in range(1, 9):
            lower = [rng.uniform(0.5, 2.0, n - k) for k in range(1, n)]
            upper = [rng.uniform(0.5, 2.0, n - k) for k in range(1, n)]
            diag = rng.uniform(0.5, 2.0, n)
            for lo, up in ((lower, upper), (None, None)):
                left, right = np.eye(n), np.eye(n)
                for k in range(n - 1, 0, -1):
                    e = np.eye(n)
                    for t, i in enumerate(range(k + 1, n + 1)):
                        e[i - 1, i - 2] = 1.0 if lo is None else lo[k - 1][t]
                    left = left @ e
                for k in range(1, n):
                    f = np.eye(n)
                    for t, i in enumerate(range(k + 1, n + 1)):
                        f[i - 2, i - 1] = 1.0 if up is None else up[k - 1][t]
                    right = right @ f
                expected = left @ np.diag(diag) @ right
                assert np.array_equal(gen._sweep_product(n, lo, up, diag), expected)

    def test_scramble_and_block_layout(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            mats = [rng.normal(size=(k, k)) for k in rng.integers(1, 5, rng.integers(1, 5))]
            n = sum(len(b) for b in mats)
            out, pos = np.zeros((n, n)), 0
            for b in mats:
                out[pos : pos + len(b), pos : pos + len(b)] = b
                pos += len(b)
            assert np.array_equal(reducible_blocks(mats), out)
            j_set = {int(i) for i in rng.integers(1, n + 1, rng.integers(0, n + 1))}
            d = np.ones(n)
            for i in j_set:
                d[i - 1] = -1.0
            assert np.array_equal(scrambled(out, j_set), d[:, None] * out * d[None, :])
