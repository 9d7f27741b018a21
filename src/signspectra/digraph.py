"""Digraph structure of a matrix: irreducibility, block triangular form,
imprimitivity index.

The digraph has an arc i -> j exactly when a_ij != 0.  A matrix is
irreducible when this digraph is strongly connected; a 1 x 1 matrix is
irreducible by convention.

Irreducibility and the imprimitivity index come from one breadth-first
search over the nonzero pattern in each direction: the digraph is strongly
connected exactly when node 0 reaches every node along the arcs and against
them, and the levels of the forward search give the index.  Only
`frobenius_form`, which needs every component, labels the strong
components, by an iterative Tarjan search over the same arc lists.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .core import Permutation, as_matrix

__all__ = [
    "ReducibleInputError",
    "is_irreducible",
    "FrobeniusForm",
    "frobenius_form",
    "ImprimitivityIndex",
    "imprimitivity_index",
]


class ReducibleInputError(ValueError):
    """Raised by operations that require an irreducible matrix."""


def _adjacency(
    rows: np.ndarray, cols: np.ndarray, n: int
) -> tuple[list[int], list[int]]:
    """Row pointers and column indices of the arcs (rows[k], cols[k]), which
    come row by row as `np.nonzero` lists them: the successors of u are
    cols[indptr[u]:indptr[u + 1]]."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr.tolist(), cols.tolist()


def _bfs_levels(indptr: list[int], cols: list[int]) -> list[int]:
    """Arc distance from node 0 to every node; -1 where node 0 cannot reach.

    The search stops once every node is queued, so a dense pattern costs
    about one row of arcs rather than all of them.
    """
    n = len(indptr) - 1
    level = [-1] * n
    level[0] = 0
    queue = [0]
    for u in queue:
        if len(queue) == n:
            break
        step = level[u] + 1
        for v in cols[indptr[u]:indptr[u + 1]]:
            if level[v] < 0:
                level[v] = step
                queue.append(v)
    return level


def _strong_components(indptr: list[int], cols: list[int]) -> list[int]:
    """Strong component label of every node, by Tarjan's search (SIAM J.
    Comput., 1972) with an explicit path of nodes in place of recursion."""
    n = len(indptr) - 1
    order, low, label = [-1] * n, [0] * n, [-1] * n  # label -1: unseen or stacked
    resume = indptr[:-1]  # the next arc to scan out of each node
    stack, count, n_comp = [], 0, 0
    for root in range(n):
        path = [root] if order[root] < 0 else []
        while path:
            u = path[-1]
            if order[u] < 0:
                order[u] = low[u] = count
                count += 1
                stack.append(u)
            lo = low[u]
            for k in range(resume[u], indptr[u + 1]):
                v = cols[k]
                if order[v] < 0:  # descend into v, then rescan from arc k + 1
                    resume[u], low[u] = k + 1, lo
                    path.append(v)
                    break
                if label[v] < 0 and order[v] < lo:
                    lo = order[v]
            else:
                path.pop()
                if lo < order[u]:  # u is not its component's root, so has a parent
                    low[path[-1]] = min(low[path[-1]], lo)
                    continue
                while label[u] < 0:  # u and the nodes stacked after it
                    label[stack.pop()] = n_comp
                n_comp += 1
    return label


def is_irreducible(a) -> bool:
    """True when the digraph of `a` is strongly connected (n = 1: always)."""
    return _pattern_index(as_matrix(a)) is not None


@dataclass(frozen=True)
class FrobeniusForm:
    """Block lower triangular normal form under a permutation similarity.

    `perm.images` lists the original 1-based indices in their new order, so
    applying the permutation gives a matrix with irreducible diagonal blocks
    and exact zeros above the block diagonal.  Block order is the
    topological order of the condensation that places every block after all
    blocks it reaches, tie-broken by smallest original index.
    """

    perm: Permutation
    block_sizes: tuple[int, ...]
    block_indices: tuple[tuple[int, ...], ...]
    blocks: tuple[np.ndarray, ...]
    rho_per_block: tuple[float, ...]
    rho: float

    def apply(self, a) -> np.ndarray:
        """The permuted matrix P^T a P realizing the block triangular form."""
        m = as_matrix(a)
        if m.shape[0] != self.perm.n:
            raise ValueError(
                f"matrix has dimension {m.shape[0]}, form is for {self.perm.n}"
            )
        order0 = [i - 1 for i in self.perm.images]
        return m[np.ix_(order0, order0)]


def frobenius_form(a, *, arcs=None) -> FrobeniusForm:
    """Strongly connected components of the digraph, ordered so that every
    arc of the condensation points from a later block to an earlier one.
    `arcs`, when the caller holds it, is `np.nonzero(a)`.  ValueError when
    a block's eigenvalue overflows."""
    m = as_matrix(a)
    rows, cols = np.nonzero(m) if arcs is None else arcs
    label = _strong_components(*_adjacency(rows, cols, m.shape[0]))
    n_comp = max(label) + 1
    members: list[list[int]] = [[] for _ in range(n_comp)]
    for node, c in enumerate(label):
        members[c].append(node)

    # Each arc of the condensation once, grouped by target component: a table
    # of at most n^2 flags dedupes them faster than a sort.
    into = np.zeros((n_comp, n_comp), dtype=bool)
    into[np.take(label, cols), np.take(label, rows)] = True
    np.fill_diagonal(into, False)
    target, source = np.nonzero(into)
    pred_ptr, predecessors = _adjacency(target, source, n_comp)

    # Components with no unplaced successors are eligible; smallest original
    # index first keeps the order deterministic.
    remaining = np.bincount(source, minlength=n_comp).tolist()
    heap = [(members[c][0], c) for c in range(n_comp) if remaining[c] == 0]
    heapq.heapify(heap)
    placed: list[int] = []
    while heap:
        _, c = heapq.heappop(heap)
        placed.append(c)
        for p in predecessors[pred_ptr[c]:pred_ptr[c + 1]]:
            remaining[p] -= 1
            if remaining[p] == 0:
                heapq.heappush(heap, (members[p][0], p))
    assert len(placed) == n_comp, "condensation was not acyclic"

    block_indices = tuple(tuple(i + 1 for i in members[c]) for c in placed)
    blocks = tuple(m[np.ix_(members[c], members[c])] for c in placed)
    rho_per_block = tuple(float(np.abs(np.linalg.eigvals(b)).max()) for b in blocks)
    if not np.isfinite(rho_per_block).all():
        raise ValueError("spectrum overflowed: an eigenvalue is not finite")
    return FrobeniusForm(
        perm=Permutation(tuple(i for idx in block_indices for i in idx)),
        block_sizes=tuple(len(idx) for idx in block_indices),
        block_indices=block_indices,
        blocks=blocks,
        rho_per_block=rho_per_block,
        rho=max(rho_per_block),
    )


@dataclass(frozen=True)
class ImprimitivityIndex:
    """Imprimitivity index h and the cyclic classes of an irreducible digraph.

    Every arc moves one class forward cyclically; `cyclic_classes` has h
    entries of 1-based indices with node 1 in class 0.
    """

    h: int
    cyclic_classes: tuple[tuple[int, ...], ...]


def _pattern_index(m: np.ndarray, arcs=None) -> ImprimitivityIndex | None:
    """The imprimitivity index of the pattern of `m`, None when it is
    reducible; `arcs`, when the caller holds it, is `np.nonzero(m)`.

    One forward search from node 0 gives the levels and one backward search
    checks that every node reaches node 0; h is the gcd over arcs u -> v of
    |level(u) + 1 - level(v)|.  A 1 x 1 pattern has index 1 by convention.
    """
    n = m.shape[0]
    if n == 1:
        return ImprimitivityIndex(1, ((1,),))
    rows, cols = np.nonzero(m) if arcs is None else arcs
    level = _bfs_levels(*_adjacency(rows, cols, n))
    if -1 in level:
        return None
    # A stable (merge) sort gains from cols running sorted within each row.
    back = np.argsort(cols, kind="stable")
    if -1 in _bfs_levels(*_adjacency(cols[back], rows[back], n)):
        return None

    depth = np.array(level)
    gaps = np.bincount(np.abs(depth[rows] + 1 - depth[cols]))  # each gap once
    h = int(np.gcd.reduce(np.flatnonzero(gaps)))  # > 0: a cycle's gaps sum to its length
    classes: list[list[int]] = [[] for _ in range(h)]
    for node, lv in enumerate(level):
        classes[lv % h].append(node + 1)
    return ImprimitivityIndex(h, tuple(tuple(c) for c in classes))


def imprimitivity_index(a) -> ImprimitivityIndex:
    """Greatest common divisor of all cycle lengths of the digraph.

    Requires irreducibility; raises ReducibleInputError otherwise.  A 1 x 1
    matrix has index 1 by convention.
    """
    index = _pattern_index(as_matrix(a))
    if index is None:
        raise ReducibleInputError("imprimitivity index requires an irreducible matrix")
    return index
