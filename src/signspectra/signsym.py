"""Detection and enumeration of sign-symmetry certificates.

A real square matrix is sign-symmetric here when some index set J makes
every entry bridging J and its complement nonpositive while every negative
entry bridges them.  Equivalently the diagonal +-1 similarity D A D with
d_i = -1 exactly on J is entrywise nonnegative.  Detection reduces to
2-coloring a constraint graph: a positive off-diagonal entry (in either
position) forces i and j to the same side, a negative entry forces opposite
sides, and a negative diagonal entry is immediately fatal.  The matrix is
sign-symmetric exactly when no parity-odd cycle exists, and the valid J sets
are then counted by 2^c over the c connected components.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import as_matrix

__all__ = [
    "DEFAULT_CERTIFICATE_CAP",
    "JCertificate",
    "NotSignSymmetric",
    "NotSignSymmetricError",
    "TooManyCertificatesError",
    "SignConstraintGraph",
    "sign_constraint_graph",
    "detect",
    "enumerate_j_sets",
    "enumerate_certificates",
    "verify_certificate",
    "principal_submatrix_certificate",
    "trace_bound",
]

DEFAULT_CERTIFICATE_CAP = 2**20


class NotSignSymmetricError(ValueError):
    """Raised by operations that require a sign-symmetric input."""

    def __init__(self, message: str, odd_cycle: tuple[int, ...] | None = None):
        super().__init__(message)
        self.odd_cycle = odd_cycle


class TooManyCertificatesError(RuntimeError):
    """Raised when an enumeration would exceed its cap."""


@dataclass(frozen=True)
class JCertificate:
    """Witness that a matrix is sign-symmetric.

    `d_signs[i-1]` is -1 exactly when i is in `j_set`, and `a_tilde` is the
    resulting nonnegative conjugation D A D.
    """

    j_set: frozenset[int]
    d_signs: tuple[int, ...]
    a_tilde: np.ndarray


@dataclass(frozen=True)
class NotSignSymmetric:
    """Witness that no valid J exists: a parity-odd cycle of indices.

    A single index means a negative diagonal entry; two indices mean the two
    entries between them force contradictory sides.
    """

    odd_cycle: tuple[int, ...]


@dataclass(frozen=True)
class SignConstraintGraph:
    """2-coloring state of the side constraints between indices.

    When consistent, `coloring[i-1]` gives the canonical side of index i
    (0 = with the smallest index of its component, 1 = opposite) and
    `components` lists the connected components in order of smallest member.
    """

    n: int
    consistent: bool
    components: tuple[tuple[int, ...], ...]
    coloring: tuple[int, ...] | None
    odd_cycle: tuple[int, ...] | None

    def require_consistent(self) -> None:
        """Raise NotSignSymmetricError, carrying the odd cycle, unless the
        side constraints are consistent."""
        if not self.consistent:
            raise NotSignSymmetricError(
                f"matrix is not sign-symmetric; odd constraint cycle {self.odd_cycle}",
                self.odd_cycle,
            )

    def j_sets(self) -> list[frozenset[int]]:
        """All 2^c valid J sets of a consistent graph, in the order of
        `enumerate_j_sets`."""
        self.require_consistent()
        assert self.coloring is not None
        out = []
        for mask in range(2 ** len(self.components)):
            j: set[int] = set()
            for k, comp in enumerate(self.components):
                flip = (mask >> k) & 1
                j.update(i for i in comp if self.coloring[i - 1] ^ flip == 1)
            out.append(frozenset(j))
        return out


def sign_constraint_graph(a) -> SignConstraintGraph:
    """Build and 2-color the side-constraint graph of a matrix."""
    m = as_matrix(a)
    n = m.shape[0]

    diag_neg = np.nonzero(np.diag(m) < 0)[0]
    if diag_neg.size:
        i = int(diag_neg[0]) + 1
        return SignConstraintGraph(n, False, (), None, (i,))

    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    rows, cols = np.nonzero(m)
    for u, v in zip(rows.tolist(), cols.tolist()):
        if u == v:
            continue
        parity = 0 if m[u, v] > 0 else 1
        adj[u].append((v, parity))
        adj[v].append((u, parity))

    color = np.full(n, -1, dtype=np.int8)
    parent = np.full(n, -1, dtype=np.int64)
    components: list[tuple[int, ...]] = []
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, parity in adj[u]:
                want = color[u] ^ parity
                if color[v] == -1:
                    color[v] = want
                    parent[v] = u
                    comp.append(v)
                    queue.append(v)
                elif color[v] != want:
                    cycle = _conflict_cycle(u, v, parent)
                    return SignConstraintGraph(n, False, (), None, cycle)
        components.append(tuple(sorted(i + 1 for i in comp)))

    return SignConstraintGraph(
        n, True, tuple(components), tuple(int(c) for c in color), None
    )


def _conflict_cycle(u: int, v: int, parent: np.ndarray) -> tuple[int, ...]:
    """Close the tree paths of u and v through their lowest common ancestor."""
    ancestors = {}
    node = u
    while node != -1:
        ancestors[node] = len(ancestors)
        node = int(parent[node])
    node = v
    path_v = []
    while node not in ancestors:
        path_v.append(node)
        node = int(parent[node])
    lca = node
    path_u = []
    node = u
    while node != lca:
        path_u.append(node)
        node = int(parent[node])
    cycle = path_u + [lca] + list(reversed(path_v))
    return tuple(i + 1 for i in cycle)


def _certificate(m: np.ndarray, j_set: frozenset[int]) -> JCertificate:
    n = m.shape[0]
    d = np.ones(n)
    if j_set:
        d[np.array(sorted(j_set)) - 1] = -1.0
    a_tilde = d[:, None] * m * d[None, :]
    if (a_tilde < 0).any():
        raise AssertionError("coloring produced an invalid certificate")
    a_tilde.setflags(write=False)
    return JCertificate(j_set, tuple(int(s) for s in d), a_tilde)


def detect(a) -> JCertificate | NotSignSymmetric:
    """Find the canonical sign-symmetry certificate, or an odd-cycle witness.

    The canonical J excludes, within each constraint component, the side
    holding the component's smallest index.  A nonnegative matrix therefore
    yields J = {} with all d_i = +1.
    """
    m = as_matrix(a)
    g = sign_constraint_graph(m)
    if not g.consistent:
        assert g.odd_cycle is not None
        return NotSignSymmetric(g.odd_cycle)
    assert g.coloring is not None
    j_set = frozenset(i + 1 for i, c in enumerate(g.coloring) if c == 1)
    return _certificate(m, j_set)


def enumerate_j_sets(a, cap: int = DEFAULT_CERTIFICATE_CAP) -> list[frozenset[int]]:
    """All valid J sets, in a deterministic order, without materializing the
    conjugated matrices.

    There are exactly 2^c of them for c constraint components.  The first
    entry is the canonical J; later entries flip components in binary-counter
    order (component of smallest index as the lowest bit).  Raises
    NotSignSymmetricError for inputs with no certificate and
    TooManyCertificatesError when 2^c exceeds `cap`.
    """
    g = sign_constraint_graph(a)
    g.require_consistent()
    c = len(g.components)
    if 2**c > cap:
        raise TooManyCertificatesError(f"2^{c} certificates exceed the cap {cap}")
    return g.j_sets()


def enumerate_certificates(a, cap: int = DEFAULT_CERTIFICATE_CAP) -> list[JCertificate]:
    """All valid J certificates, in the order of `enumerate_j_sets`."""
    m = as_matrix(a)
    return [_certificate(m, j) for j in enumerate_j_sets(m, cap=cap)]


def verify_certificate(a, cert: JCertificate) -> bool:
    """True iff conjugating by cert's signs makes `a` nonnegative and
    reproduces cert.a_tilde exactly."""
    m = as_matrix(a)
    n = m.shape[0]
    if len(cert.d_signs) != n:
        raise ValueError(
            f"certificate is for dimension {len(cert.d_signs)}, matrix has {n}"
        )
    if any(s not in (-1, 1) for s in cert.d_signs):
        raise ValueError("certificate signs must be +-1")
    d = np.asarray(cert.d_signs, dtype=float)
    a_tilde = d[:, None] * m * d[None, :]
    return bool((a_tilde >= 0).all() and np.array_equal(a_tilde, cert.a_tilde))


def principal_submatrix_certificate(a, alpha, cert: JCertificate) -> JCertificate:
    """Certificate for the principal submatrix on rows and columns `alpha`.

    `alpha` is a set of 1-based indices; positions in the submatrix are
    renumbered 1..len(alpha) in increasing original index, and the new J is
    the trace of cert's J on alpha.
    """
    m = as_matrix(a)
    n = m.shape[0]
    idx = sorted(set(int(v) for v in alpha))
    if not idx:
        raise ValueError("alpha must be nonempty")
    if idx[0] < 1 or idx[-1] > n:
        raise ValueError(f"alpha must be a subset of 1..{n}, got {idx}")
    if not verify_certificate(m, cert):
        raise ValueError("certificate does not verify against the matrix")
    j_sub = frozenset(p + 1 for p, orig in enumerate(idx) if orig in cert.j_set)
    sub = m[np.ix_([v - 1 for v in idx], [v - 1 for v in idx])]
    return _certificate(sub, j_sub)


def trace_bound(a) -> float:
    """Lower bound trace(a)/n for the spectral radius of a sign-symmetric
    matrix.  Raises NotSignSymmetricError when the structure is absent."""
    m = as_matrix(a)
    res = detect(m)
    if isinstance(res, NotSignSymmetric):
        raise NotSignSymmetricError(
            f"matrix is not sign-symmetric; odd constraint cycle {res.odd_cycle}",
            res.odd_cycle,
        )
    return float(np.trace(m) / m.shape[0])
