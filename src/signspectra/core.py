"""Foundational types: matrix validation, pair indexing, permutations.

Indices in the public API are 1-based throughout: matrix rows and columns run
1..n and index pairs (i, j) with i < j are numbered 1..C(n, 2) in
lexicographic order.  Internally everything is plain numpy with the usual
0-based layout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_DIMENSION",
    "as_matrix",
    "pair_count",
    "pair_index",
    "pair_unindex",
    "Permutation",
]

# Pair bookkeeping is O(n^2); beyond this the dense workflows here stop
# making sense and an explicit error beats a silent multi-gigabyte allocation.
MAX_DIMENSION = 3000


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce `a` to a square float64 array with finite entries.

    Accepts anything `np.asarray` understands (nested lists, integer arrays,
    existing float arrays).  Raises ValueError for non-square shapes, empty
    matrices, NaN or infinite entries (integers beyond the float range
    included), or dimensions beyond MAX_DIMENSION.
    """
    try:
        m = np.asarray(a, dtype=float)
    except OverflowError as exc:  # a Python int beyond the float range
        raise ValueError(f"{name} entries must be finite") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    n = m.shape[0]
    if n == 0:
        raise ValueError(f"{name} must have dimension at least 1")
    _check_dimension(n, name)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} entries must be finite")
    return m


def _check_dimension(n: int, name: str = "matrix") -> None:
    """ValueError when an n x n `name` would exceed MAX_DIMENSION, read at call time."""
    if n > MAX_DIMENSION:
        raise ValueError(f"{name} dimension {n} exceeds the supported maximum {MAX_DIMENSION}")


def pair_count(n: int) -> int:
    """Number of index pairs (i, j) with 1 <= i < j <= n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return n * (n - 1) // 2


@functools.lru_cache(maxsize=16)
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only 0-based (i, j) of the pairs i < j in lexicographic order, as
    `np.triu_indices(n, k=1)` gives them, kept for the last 16 sizes n: 8n(n-1)
    bytes a table, 0.26 MB at n = 180 and 72 MB at n = 3000 (`build_w_hat` only)."""
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _frobenius_norm(m: np.ndarray) -> float:
    """||m||_F scaled by the largest entry, so that squares cannot overflow."""
    s = float(np.abs(m).max())
    return s * float(np.linalg.norm(m / s)) if s > 0.0 else 0.0


def pair_index(i: int, j: int, n: int) -> int:
    """Lexicographic position (1-based) of the pair (i, j) among all i < j.

    For n = 5 the pairs are numbered (1,2) -> 1, (1,3) -> 2, ..., (4,5) -> 10.
    """
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return (i - 1) * (2 * n - i) // 2 + (j - i)


def pair_unindex(alpha: int, n: int) -> tuple[int, int]:
    """Inverse of `pair_index`: the pair (i, j) at 1-based position alpha."""
    m = pair_count(n)
    if not (1 <= alpha <= m):
        raise ValueError(f"pair position {alpha} out of range 1..{m} for n={n}")
    rest = alpha
    for i in range(1, n):
        row = n - i  # pairs (i, i+1) .. (i, n)
        if rest <= row:
            return i, i + rest
        rest -= row
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..n}, stored as the tuple of images of 1, 2, ..., n."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("permutation must act on at least one element")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not (1 <= i <= self.n):
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(tuple(inv))

    def matrix(self) -> np.ndarray:
        """Permutation matrix P whose column k is the basis vector e_sigma(k).

        With this convention (P^T A P)[u, v] = A[sigma(u), sigma(v)] in
        1-based terms, and P^T = P^{-1}.
        """
        p = np.zeros((self.n, self.n))
        for k, v in enumerate(self.images):
            p[v - 1, k] = 1.0
        return p
