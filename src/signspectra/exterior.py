"""Second compound matrices and their W-set variants.

The second compound of an n x n matrix collects all 2x2 minors, indexed by
pairs (i, j), i < j, in lexicographic order.  A W matrix is the same grid of
minors with rows and columns read in the orientation stored by a W set; for
the natural orientation it coincides with the compound.  The eigenvalues of
any W matrix are exactly the pairwise products of distinct eigenvalues of the
base matrix.  `verify_eigenvalue_products` certifies this product law for
the computed minors with a backward-error residual from one Schur form of
the base matrix, in O(n^4), without an eigensolve of the C(n,2) x C(n,2) grid.
That Schur form comes from numpy's eig and QR alone, by deflation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import _frobenius_norm, _pair_table, as_matrix
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

# C(180, 2) = 16110: a 2.1 GB float64 grid, whose row gather peaks near 8 GB.
MAX_COMPOUND_BASE = 180


def _check_base(n: int) -> None:
    if n > MAX_COMPOUND_BASE:
        raise ValueError(
            f"second compound: base dimension {n} exceeds {MAX_COMPOUND_BASE}; "
            f"the dense minor grid would need C({n},2)^2 entries"
        )


def _minor_grid(a: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Grid of 2x2 minors a(i_p, j_p; i_q, j_q) over the 0-based pairs
    (i_p, j_p), gathered by rows: the one gather behind `compound2` and
    `w_matrix`.  Raises ValueError("second compound: ...") when the base
    dimension exceeds MAX_COMPOUND_BASE, before any minor is computed, or
    when a minor overflows."""
    _check_base(a.shape[0])
    ai, aj = a[i], a[j]
    with np.errstate(over="ignore", invalid="ignore"):
        grid = ai[:, i] * aj[:, j] - ai[:, j] * aj[:, i]
    if not np.isfinite(grid).all():
        raise ValueError("second compound: matrix entries must be finite")
    return grid


def compound2(a) -> np.ndarray:
    """Second compound matrix: all 2x2 minors in lexicographic pair order.

    Returns a C(n,2) x C(n,2) array for n >= 2, within `_minor_grid`'s limits.
    """
    m = as_matrix(a)
    n = m.shape[0]
    if n < 2:
        raise ValueError(f"second compound needs n >= 2, got n={n}")
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


@functools.lru_cache(maxsize=16)
def _probes(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Two read-only seeded Gaussian probes of length `size`, and their norms."""
    x = np.random.default_rng(0).standard_normal((2, size))
    norms = np.linalg.norm(x, axis=1)
    x.flags.writeable = norms.flags.writeable = False
    return x, norms


@dataclass(frozen=True)
class EigenProductCheck:
    """Backward-error certificate of the product law for one W matrix."""

    ok: bool
    tol: float
    residual: float
    products: np.ndarray


# The Schur form drops a lower triangle of at most _SCHUR_GATE n u ||A||_F.
# Its first pass's ratio, over the 3,585 inputs of tests/test_exterior.py's
# TestSchurFallback: median 0.94, 99th percentile 2.1, largest below the gate 3.6,
# and 6 above it (4.02 to 9,300), tp2(12, seed=40500061) and five cycles with
# a defective zero eigenvalue, which deflate in 2 passes to 0.65-3.9.  Seeded
# conjugated Jordan blocks of up to 8, with n up to 24, take up to 14 passes.
_SCHUR_GATE = 4.0


def verify_eigenvalue_products(a, w: WSet | None = None) -> EigenProductCheck:
    """Certify that the W matrix E of `a` (its compound when `w` is None)
    lies within `tol` of a matrix whose eigenvalues are the products
    lambda_i lambda_j, i < j, of the eigenvalues of `a`, a matrix or its
    `spectral.Facts`, whose compound is then reused as E.

    With a complex Schur form A = Q T Q*, C_W(Q) is unitary and C_W(T) is
    triangular up to a permutation, with diagonal t_ii t_jj (`products`).
    So E - R C_W(Q)* has exactly those eigenvalues, for
    R = E C_W(Q) - C_W(Q) C_W(T), and a wrong entry of E shows up in R.
    `residual` is max ||R x|| / ||x|| over two seeded Gaussian probes x, each
    applied through C_W(M) x = (M X M^T) on the pairs of `w`, X antisymmetric:
    one product with E, O(n^4), and O(n^3) besides.  `ok` is residual <= tol.

    `tol` is the rounding bound 16 n u ||A||_F^2, u = 2^-53: the
    minors are computed to about 2 u ||A||_F^2, and the backward errors, of
    order n u ||A||_F, of the Schur form and of the probes reach R through
    C_W, whose norm is at most ||A||_F^2.  Clean residuals stayed below
    12 u ||A||_F^2 on random, graded and generated inputs with n <= 77.
    Raises ValueError when a minor overflows, as `compound2` does, or when
    ||A||_F^2 overflows.

    Q and T come from `_schur_form`, whose dropped lower triangle stays
    within _SCHUR_GATE n u ||A||_F, a Schur solver's backward error, so
    `tol` keeps its meaning.  Raises ValueError when eig fails.
    """
    from .spectral import Facts

    facts = a if isinstance(a, Facts) else Facts(a)
    m, n = facts.matrix, facts.n
    if w is None:
        entries = facts.compound
        p, q = _pair_table(n)
    else:
        entries = w_matrix(m, w).entries
        p, q = w.pairs[:, 0] - 1, w.pairs[:, 1] - 1
    norm = _frobenius_norm(m)
    square = norm * norm
    if square == float("inf"):
        raise ValueError(f"||A||_F^2 overflows for ||A||_F = {norm!r}")
    tol = 16.0 * n * 2.0**-53 * square
    if n < 2:
        return EigenProductCheck(True, tol, 0.0, np.zeros(0, dtype=complex))

    x, x_norms = _probes(p.size)

    def compound_times(mats, vec):  # C_W(M) v for each M in mats and probe row v
        big = np.zeros(vec.shape[:-1] + (n, n), dtype=vec.dtype)
        big[..., p, q] = vec
        big[..., q, p] = -vec
        return (mats @ big @ np.swapaxes(mats, -1, -2))[..., p, q]

    def certify(t, q_mat):
        with np.errstate(over="ignore", invalid="ignore"):
            qx, tx = compound_times(np.stack((q_mat, t))[:, None], x)
            e_qx = entries @ np.concatenate((qx.real, qx.imag)).T
            r = (e_qx[:, :2] + 1j * e_qx[:, 2:]).T - compound_times(q_mat, tx)
            # r is scaled before the norms so that its squares cannot overflow;
            # an inf or nan in r gives a nan residual, which is not ok.
            scale = float(np.abs(r).max())
            ratios = np.linalg.norm(r / scale, axis=1) if scale else np.zeros(2)
            residual = scale * float((ratios / x_norms).max())
            d = np.diag(t)
            i0, j0 = _pair_table(n)
            products = d[i0] * d[j0]
        return EigenProductCheck(bool(residual <= tol), tol, float(residual), products)

    return certify(*_schur_form(m, norm))


def _schur_form(m: np.ndarray, norm: float) -> tuple[np.ndarray, np.ndarray]:
    """(T, Q) with A = Q T Q* for `m`, of Frobenius norm `norm`, by deflation
    (Horn & Johnson, Thm 2.3.1): with V = ZR the eigenvectors of the trailing
    block B of S = Q* A Q, Z* B Z is triangular in exact arithmetic.  Each
    pass keeps the leading columns whose lower triangle fits what is left of
    the gate _SCHUR_GATE n u ||A||_F, at least one.  The first pass is on A in
    eig's order; later passes order V by ||B v - lambda v||, so that the
    columns kept first are the eigenvectors that eig got right."""
    n = m.shape[0]
    gate = _SCHUR_GATE * n * 2.0**-53
    q = np.linalg.qr(np.linalg.eig(m)[1].astype(complex))[0]
    with np.errstate(over="ignore", invalid="ignore"):
        s = q.conj().T @ m @ q
        # _frobenius_norm reads a nan as 0, so finiteness is checked first.
        if np.isfinite(s).all() and _frobenius_norm(np.tril(s, -1)) <= gate * norm:
            return np.triu(s), q
        budget, start = gate * gate, 0  # in units of ||A||_F^2, so no square overflows
        while True:
            dropped = np.cumsum((np.abs(np.tril(s[start:, start:], -1) / norm) ** 2).sum(axis=0))
            kept = max(1, int(np.count_nonzero(dropped <= budget)))
            budget -= dropped[kept - 1]
            start += kept
            if start >= n:
                return np.triu(s), q
            b = s[start:, start:]
            values, v = np.linalg.eig(b)
            order = np.argsort(np.linalg.norm(b @ v - v * values, axis=0), kind="stable")
            z = np.linalg.qr(v[:, order])[0]
            s[:, start:] = s[:, start:] @ z
            s[start:] = z.conj().T @ s[start:]
            q[:, start:] = q[:, start:] @ z
