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

from .core import as_matrix
from .exterior import compound2

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


class GenerationError(RuntimeError):
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
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density}")
    if magnitude <= 0.0:
        raise ValueError(f"magnitude must be positive, got {magnitude}")
    rng = _rng(seed)
    a = np.zeros((n, n))
    order = rng.permutation(n)
    for t in range(n):
        u, v = order[t], order[(t + 1) % n]
        a[u, v] = rng.uniform(0.5, 1.5) * magnitude
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
    if magnitude <= 0.0:
        raise ValueError(f"magnitude must be positive, got {magnitude}")
    rng = _rng(seed)
    labels = rng.permutation(n)
    base, rem = divmod(n, h)
    classes = []
    pos = 0
    for r in range(h):
        size = base + (1 if r < rem else 0)
        classes.append(labels[pos : pos + size])
        pos += size
    a = np.zeros((n, n))
    for r in range(h):
        src = classes[r]
        dst = classes[(r + 1) % h]
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
        e = np.eye(n)
        for t, i in enumerate(range(k + 1, n + 1)):
            e[i - 1, i - 2] = 1.0 if lower is None else lower[k - 1][t]
        left = left @ e
    right = np.eye(n)
    for k in range(1, n):
        f = np.eye(n)
        for t, i in enumerate(range(k + 1, n + 1)):
            f[i - 2, i - 1] = 1.0 if upper is None else upper[k - 1][t]
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
    for i in j_set:
        d[i - 1] = -1.0
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
    n = sum(b.shape[0] for b in mats)
    out = np.zeros((n, n))
    pos = 0
    for b in mats:
        k = b.shape[0]
        out[pos : pos + k, pos : pos + k] = b
        pos += k
    return out


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
        out: dict = {"kind": self.kind}
        if self.kind in ("nonneg_irreducible", "cyclic_h", "tp2"):
            out["n"] = self.n
            out["seed"] = self.seed
        if self.kind == "nonneg_irreducible":
            out["density"] = self.density
            out["magnitude"] = self.magnitude
        if self.kind == "cyclic_h":
            out["h"] = self.h
            out["magnitude"] = self.magnitude
        if self.kind == "scrambled":
            out["seed"] = self.seed
            out["j_set"] = None if self.j_set is None else list(self.j_set)
            assert self.base is not None
            out["base"] = self.base.to_dict()
        if self.kind == "reducible_blocks":
            out["blocks"] = [b.to_dict() for b in self.blocks]
            out["rho_targets"] = (
                None if self.rho_targets is None else list(self.rho_targets)
            )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GenSpec":
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError("generator spec must be an object with a 'kind'")
        kind = data["kind"]

        def get(key, convert, default=...):
            # `...` marks a required field; a missing or ill-typed one is named.
            if key not in data and default is ...:
                raise ValueError(f"{kind} spec: missing field {key!r}")
            try:
                return convert(data[key]) if key in data else default
            except TypeError as exc:
                raise ValueError(f"{kind} spec: field {key!r}: {exc}") from exc

        def optional_tuple(convert):
            return lambda v: None if v is None else tuple(map(convert, v))

        if kind in ("nonneg_irreducible", "cyclic_h", "tp2"):
            return cls(
                kind=kind,
                n=get("n", int),
                seed=get("seed", int, 0),
                h=get("h", int, 0),
                density=get("density", float, 0.0),
                magnitude=get("magnitude", float, 1.0),
            )
        if kind == "scrambled":
            return cls(
                kind=kind,
                seed=get("seed", int, 0),
                j_set=get("j_set", optional_tuple(int), None),
                base=get("base", cls.from_dict),
            )
        if kind == "reducible_blocks":
            return cls(
                kind=kind,
                blocks=get("blocks", lambda bs: tuple(map(cls.from_dict, bs))),
                rho_targets=get("rho_targets", optional_tuple(float), None),
            )
        raise ValueError(f"unknown generator kind {kind!r}")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GenSpec":
        return cls.from_dict(json.loads(text))


def generate(spec: GenSpec) -> np.ndarray:
    """Materialize a GenSpec, resolving nested specs recursively."""
    if spec.kind == "nonneg_irreducible":
        return nonneg_irreducible(spec.n, spec.density, spec.seed, spec.magnitude)
    if spec.kind == "cyclic_h":
        return cyclic_h(spec.n, spec.h, spec.seed, spec.magnitude)
    if spec.kind == "tp2":
        return tp2(spec.n, spec.seed)
    if spec.kind == "scrambled":
        assert spec.base is not None
        return scrambled(generate(spec.base), spec.j_set, spec.seed)
    if spec.kind == "reducible_blocks":
        return reducible_blocks(
            [generate(b) for b in spec.blocks], spec.rho_targets
        )
    raise ValueError(f"unknown generator kind {spec.kind!r}")
