"""Seeded test-matrix generators.

Every generator is a pure function of its parameters: the same arguments
always produce the same matrix (PCG64 streams keyed by `seed`).  `GenSpec`
is the JSON-serializable description consumed by `generate` and by the
command-line corpus tools.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import _check_dimension, as_matrix
from .exterior import _check_base, compound2

__all__ = [
    "GenerationError",
    "nonneg_irreducible",
    "cyclic_h",
    "tp2",
    "scrambled",
    "reducible_blocks",
    "GenSpec",
    "generate",
]


class GenerationError(ValueError):
    """Raised when a generator cannot satisfy its contract."""


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def nonneg_irreducible(
    n: int, density: float = 0.0, seed: int = 0, magnitude: float = 1.0
) -> np.ndarray:
    """Nonnegative irreducible matrix: a planted cycle through all indices
    plus a `density` fraction of extra off-diagonal entries.

    Density 0 returns exactly the planted cycle (for n = 1, a positive
    1 x 1 matrix).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _check_dimension(n)
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density}")
    if magnitude <= 0.0:
        raise ValueError(f"magnitude must be positive, got {magnitude}")
    rng = _rng(seed)
    a = np.zeros((n, n))
    order = rng.permutation(n)
    a[order, np.roll(order, -1)] = rng.uniform(0.5, 1.5, n) * magnitude
    if density > 0.0 and n > 1:
        extra = (rng.random((n, n)) < density) & (a == 0.0)
        np.fill_diagonal(extra, False)
        count = int(extra.sum())
        a[extra] = rng.uniform(0.5, 1.5, count) * magnitude
    return a


def cyclic_h(n: int, h: int, seed: int = 0, magnitude: float = 1.0) -> np.ndarray:
    """Irreducible nonnegative matrix with imprimitivity index exactly `h`.

    Indices are split into h cyclic classes of balanced sizes under a random
    relabeling; every entry from one class to the next is positive, all
    others are zero.
    """
    if not (1 <= h <= n):
        raise ValueError(f"need 1 <= h <= n, got h={h}, n={n}")
    _check_dimension(n)
    if magnitude <= 0.0:
        raise ValueError(f"magnitude must be positive, got {magnitude}")
    rng = _rng(seed)
    labels = rng.permutation(n)
    base, rem = divmod(n, h)
    classes = np.split(labels, np.cumsum([base + (r < rem) for r in range(h - 1)]))
    a = np.zeros((n, n))
    for r in range(h):
        src, dst = classes[r], classes[(r + 1) % h]
        a[np.ix_(src, dst)] = rng.uniform(0.5, 1.5, (len(src), len(dst))) * magnitude
    return a


def tp2(n: int, seed: int = 0) -> np.ndarray:
    """Positive matrix with positive second compound, from bidiagonal sweeps.

    The matrix is (E_{n-1} ... E_1) D (F_1 ... F_{n-1}) where E_k is unit
    lower bidiagonal below row k, F_k the transposed shape, with positive
    parameters.  Seed 0 uses all parameters 1, which yields the symmetric
    binomial matrix with entries C(i+j-2, i-1).  Both positivity properties
    are verified after construction; unlucky draws retry with fresh
    parameters before giving up.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    _check_base(n)  # no larger n passes the compound2 check below
    rng = _rng(seed)
    for attempt in range(20):
        if seed == 0:
            lower = upper = None
            diag = np.ones(n)
        else:
            lower = [rng.uniform(0.5, 2.0, n - k) for k in range(1, n)]
            upper = [rng.uniform(0.5, 2.0, n - k) for k in range(1, n)]
            diag = rng.uniform(0.5, 2.0, n)
        a = _sweep_product(n, lower, upper, diag)
        if (a > 0).all() and (compound2(a) > 0).all():
            return a
        if seed == 0:
            break
    raise GenerationError(
        f"could not build a doubly positive matrix for n={n}, seed={seed}"
    )


def _sweep_product(n, lower, upper, diag) -> np.ndarray:
    left = np.eye(n)
    for k in range(n - 1, 0, -1):
        e, r = np.eye(n), np.arange(k, n)
        e[r, r - 1] = 1.0 if lower is None else lower[k - 1]
        left = left @ e
    right = np.eye(n)
    for k in range(1, n):
        f, r = np.eye(n), np.arange(k, n)
        f[r - 1, r] = 1.0 if upper is None else upper[k - 1]
        right = right @ f
    return left @ np.diag(diag) @ right


def scrambled(base, j_set=None, seed: int = 0) -> np.ndarray:
    """Conjugate `base` by the +-1 diagonal with d_i = -1 exactly on `j_set`.

    A random subset drawn from `seed` is used when `j_set` is None.  The
    result is similar to `base`, so the spectrum is untouched while the sign
    pattern is scrambled.
    """
    m = as_matrix(base)
    n = m.shape[0]
    if j_set is None:
        rng = _rng(seed)
        j_set = frozenset(i + 1 for i in range(n) if rng.random() < 0.5)
    else:
        j_set = frozenset(int(v) for v in j_set)
        if any(v < 1 or v > n for v in j_set):
            raise ValueError(f"j_set must be a subset of 1..{n}, got {sorted(j_set)}")
    d = np.ones(n)
    d[[i - 1 for i in j_set]] = -1.0
    return d[:, None] * m * d[None, :]


def reducible_blocks(blocks, rho_targets=None) -> np.ndarray:
    """Block diagonal composition of square matrices.

    With `rho_targets`, each block is rescaled to the given spectral radius
    first (a positive scalar scaling, so all structure is preserved).
    Coupling entries between blocks are deliberately absent: they would
    break the sign structure of the second compound.
    """
    mats = [as_matrix(b, name=f"block {t + 1}") for t, b in enumerate(blocks)]
    if not mats:
        raise ValueError("at least one block is required")
    ends = np.cumsum([len(b) for b in mats])
    _check_dimension(int(ends[-1]))
    if rho_targets is not None:
        if len(rho_targets) != len(mats):
            raise ValueError(
                f"{len(rho_targets)} targets for {len(mats)} blocks"
            )
        scaled = []
        for t, (b, target) in enumerate(zip(mats, rho_targets)):
            if target < 0:
                raise ValueError(f"spectral radius target must be >= 0, got {target}")
            r = float(np.abs(np.linalg.eigvals(b)).max())
            if r == 0.0 and target > 0.0:
                raise GenerationError(
                    f"block {t + 1} is nilpotent; cannot scale to radius {target}"
                )
            scaled.append(b * (target / r) if r > 0.0 else b)
        mats = scaled
    out = np.zeros((ends[-1], ends[-1]))
    for b, end in zip(mats, ends):
        out[end - len(b) : end, end - len(b) : end] = b
    return out


def _integer(v) -> int:  # a JSON integer; bool is an int subclass
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _real(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def _optional_tuple(convert):
    return lambda v: None if v is None else tuple(map(convert, v))


# How `from_dict` reads each field that holds no nested spec.
_CONVERTERS = {
    "n": _integer, "seed": _integer, "h": _integer, "density": _real, "magnitude": _real,
    "j_set": _optional_tuple(_integer), "rho_targets": _optional_tuple(_real),
}
_REQUIRED = ("n", "base", "blocks")
_MAX_DEPTH = 64  # levels of nested specs that `from_dict` reads

# Each kind's generator and its fields, in the order `to_dict` writes them;
# each field is a parameter of the generator.
_KINDS = {
    "nonneg_irreducible": (nonneg_irreducible, ("n", "seed", "density", "magnitude")),
    "cyclic_h": (cyclic_h, ("n", "seed", "h", "magnitude")),
    "tp2": (tp2, ("n", "seed")),
    "scrambled": (scrambled, ("seed", "j_set", "base")),
    "reducible_blocks": (reducible_blocks, ("blocks", "rho_targets")),
}


def _kind(kind) -> tuple:
    if isinstance(kind, str) and kind in _KINDS:
        return _KINDS[kind]
    raise ValueError(f"unknown generator kind {kind!r}")


@dataclass(frozen=True)
class GenSpec:
    """JSON-serializable description of one generated matrix."""

    kind: str
    n: int = 0
    seed: int = 0
    h: int = 0
    density: float = 0.0
    magnitude: float = 1.0
    j_set: tuple[int, ...] | None = None
    base: "GenSpec | None" = None
    blocks: tuple["GenSpec", ...] = field(default_factory=tuple)
    rho_targets: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        _, fields = _KINDS.get(self.kind, (None, ()))
        values = {k: _nested(getattr(self, k), GenSpec.to_dict) for k in fields}
        return {"kind": self.kind, **values}

    @classmethod
    def from_dict(cls, data: dict) -> "GenSpec":
        """The spec that `to_dict` writes as `data`.  A field its kind does
        not take, and specs nested more than 64 levels deep, are ValueErrors."""
        return _parse(data, 1)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GenSpec":
        return cls.from_dict(json.loads(text))


def _parse(data, depth: int) -> GenSpec:
    if depth > _MAX_DEPTH:
        raise ValueError(f"generator specs nest at most {_MAX_DEPTH} levels deep")
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("generator spec must be an object with a 'kind'")
    kind = data["kind"]
    fields = _kind(kind)[1]
    unknown = [key for key in data if key not in fields and key != "kind"]
    if unknown:
        raise ValueError(f"{kind} spec: unknown field {unknown[0]!r}")
    read = {**_CONVERTERS, "base": lambda v: _parse(v, depth + 1),
            "blocks": lambda v: tuple(_parse(b, depth + 1) for b in v)}
    values = {}
    for key in fields:
        if key in data:
            try:
                values[key] = read[key](data[key])
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"{kind} spec: field {key!r}: {exc}") from exc
        elif key in _REQUIRED:  # the other fields default as in GenSpec
            raise ValueError(f"{kind} spec: missing field {key!r}")
    return GenSpec(kind=kind, **values)


def _nested(value, convert):
    """`value` with each spec in it replaced by `convert(spec)`, tuples by lists."""
    if isinstance(value, GenSpec):
        return convert(value)
    if isinstance(value, (tuple, list)):
        return [_nested(v, convert) for v in value]
    return value


def generate(spec: GenSpec) -> np.ndarray:
    """Materialize a GenSpec, resolving nested specs recursively, as a matrix
    that passes `as_matrix`: an overflow to infinite entries is a ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        return as_matrix(_materialize(spec))


def _materialize(spec: GenSpec) -> np.ndarray:
    generator, fields = _kind(spec.kind)
    if spec.kind == "reducible_blocks":  # the total, before any block is built
        _check_dimension(_size(spec))
    return generator(**{k: _nested(getattr(spec, k), _materialize) for k in fields})


def _size(spec: GenSpec) -> int:
    """The dimension of the matrix a spec describes, read from the spec tree."""
    if spec.kind == "reducible_blocks":
        return sum(_size(b) for b in spec.blocks)
    if spec.kind == "scrambled" and spec.base is not None:
        return _size(spec.base)
    return spec.n
