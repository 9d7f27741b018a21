"""Second compound matrices and their W-set variants.

The second compound of an n x n matrix collects all 2x2 minors, indexed by
pairs (i, j), i < j, in lexicographic order.  A W matrix is the same grid of
minors with rows and columns read in the orientation stored by a W set; for
the natural orientation it coincides with the compound.  The eigenvalues of
any W matrix are exactly the pairwise products of distinct eigenvalues of the
base matrix, which `verify_eigenvalue_products` checks numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _pair_table, as_matrix
from .wsets import WSet, canonical_m

__all__ = [
    "MAX_COMPOUND_BASE",
    "compound2",
    "WMatrix",
    "w_matrix",
    "exterior_product",
    "EigenProductCheck",
    "verify_eigenvalue_products",
]

# C(180, 2) = 16110, so a dense compound tops out near 2 GB of float64.
MAX_COMPOUND_BASE = 180


def _check_base_dimension(n: int) -> None:
    if n > MAX_COMPOUND_BASE:
        raise ValueError(
            f"base dimension {n} exceeds {MAX_COMPOUND_BASE}; "
            f"the dense minor grid would need C({n},2)^2 entries"
        )


def _minor_grid(a: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Grid of 2x2 minors a(i_p, j_p; i_q, j_q) over the 0-based pairs
    (i_p, j_p), gathered by rows.

    Overflowing minors come out inf or nan without a warning; callers check.
    """
    ai, aj = a[i], a[j]
    with np.errstate(over="ignore", invalid="ignore"):
        return ai[:, i] * aj[:, j] - ai[:, j] * aj[:, i]


def compound2(a) -> np.ndarray:
    """Second compound matrix: all 2x2 minors in lexicographic pair order.

    Returns a C(n,2) x C(n,2) array.  Requires n >= 2.
    """
    m = as_matrix(a)
    n = m.shape[0]
    if n < 2:
        raise ValueError(f"second compound needs n >= 2, got n={n}")
    _check_base_dimension(n)
    return _minor_grid(m, *_pair_table(n))


@dataclass(frozen=True)
class WMatrix:
    """Minor grid of a base matrix in the pair orientation of a W set."""

    base_n: int
    w: WSet
    pair_order: tuple[tuple[int, int], ...]
    entries: np.ndarray


def w_matrix(a, w: WSet) -> WMatrix:
    """Minor grid with rows and columns ordered by the pairs stored in `w`.

    For the natural orientation this equals `compound2`; in general the two
    differ by a diagonal +-1 similarity, so the spectrum is unchanged.
    """
    m = as_matrix(a)
    n = m.shape[0]
    if w.n != n:
        raise ValueError(f"W set is over 1..{w.n} but the matrix has n={n}")
    _check_base_dimension(n)
    pairs = w.pairs
    entries = _minor_grid(m, pairs[:, 0] - 1, pairs[:, 1] - 1)
    return WMatrix(n, w, tuple((int(i), int(j)) for i, j in pairs), entries)


def exterior_product(x, y, w: WSet | None = None) -> np.ndarray:
    """Pairwise cross terms x_i y_j - x_j y_i in the orientation of `w`.

    Defaults to the natural orientation.  Returns a vector of length C(n,2)
    aligned with the W matrix pair order.
    """
    xv = np.asarray(x, dtype=float).ravel()
    yv = np.asarray(y, dtype=float).ravel()
    if xv.shape != yv.shape:
        raise ValueError(f"vector shapes differ: {xv.shape} vs {yv.shape}")
    n = xv.size
    if n < 1:
        raise ValueError("vectors must have dimension at least 1")
    if w is None:
        w = canonical_m(n)
    elif w.n != n:
        raise ValueError(f"W set is over 1..{w.n} but the vectors have n={n}")
    pairs = w.pairs
    if len(pairs) == 0:
        return np.zeros(0)
    i = pairs[:, 0] - 1
    j = pairs[:, 1] - 1
    return xv[i] * yv[j] - xv[j] * yv[i]


@dataclass(frozen=True)
class EigenProductCheck:
    """Result of matching W-matrix eigenvalues against pairwise products."""

    ok: bool
    tol: float
    max_distance: float
    products: np.ndarray
    w_eigenvalues: np.ndarray


def verify_eigenvalue_products(a, w: WSet | None = None, tol: float | None = None) -> EigenProductCheck:
    """Check that the W-matrix spectrum equals all products lambda_i lambda_j,
    i < j, of the base matrix eigenvalues.

    `a` is a matrix or its `spectral.Facts`, whose spectrum is then reused
    and, for the default natural orientation, whose compound serves as the
    W matrix.  The two multisets are matched by an optimal pairing; `ok` is
    True when the largest matched distance is within `tol`.  The default
    tolerance is 1e-6 * max(1, rho(a)^2), scaling with the largest product
    magnitude.  Raises ValueError when a minor overflows, or rho^2 for the
    default tolerance.
    """
    from .spectral import Facts, match_complex_multisets

    facts = a if isinstance(a, Facts) else Facts(a)
    n = facts.n
    if w is None:
        entries = facts.compound if n > 1 else np.zeros((0, 0))
    else:
        entries = w_matrix(facts.matrix, w).entries
    w_eigs = np.linalg.eigvals(entries) if entries.size else np.zeros(0, dtype=complex)
    spec = facts.spectrum
    if tol is None:
        tol = 1e-6 * max(1.0, spec.rho * spec.rho)
        if tol == float("inf"):
            raise ValueError(f"rho^2 overflows for rho = {spec.rho!r}")
    lam = spec.values
    i0, j0 = _pair_table(n)
    products = lam[i0] * lam[j0]
    match = match_complex_multisets(products, w_eigs, tol)
    return EigenProductCheck(match.ok, float(tol), match.max_distance, products, w_eigs)
