"""Pair-orientation sets and the candidate construction that pairs sign
certificates of a matrix with those of its second compound.

A W set over {1..n} is a set of ordered pairs such that every (i, i) belongs
to it and exactly one of (i, j), (j, i) belongs to it for each i != j.  It
fixes an orientation for every unordered index pair and thereby a basis
ordering for minor-based matrices.  A transitive W set is exactly a total
order on {1..n}.

`find_transitive_w` decides whether the candidate construction yields a
transitive W set without listing the candidates; `enumerate_w_candidates`
lists them all, as one packed row of C(n,2) orientation bits per (J, Jt)
combination (about 24 MB at the default cap with n = 77), groups equal rows
in order of first occurrence, and checks the distinct W sets for
transitivity in one batched pass.  `analyze` prints the first 64 of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import Permutation, pair_count
from .signsym import SignConstraintGraph, TooManyCertificatesError

__all__ = [
    "WSet",
    "canonical_m",
    "TransitivityCheck",
    "is_transitive",
    "build_w_hat",
    "WCandidate",
    "WCandidateEnumeration",
    "enumerate_w_candidates",
    "w_candidates_from_graphs",
    "find_transitive_w",
    "DEFAULT_CANDIDATE_CAP",
]

DEFAULT_CANDIDATE_CAP = 2**16


@dataclass(frozen=True)
class WSet:
    """Orientation of all index pairs over {1..n}.

    `member[i-1, j-1]` is True exactly when the ordered pair (i, j) is in the
    set.  Construction validates the two defining conditions: together with
    the reversed pairs everything is covered, and the only pairs present in
    both directions are the diagonal ones.
    """

    n: int
    member: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        m = np.asarray(self.member, dtype=bool)
        if m.shape != (self.n, self.n):
            raise ValueError(f"member grid must be {self.n}x{self.n}, got {m.shape}")
        _check_members(m[None])
        object.__setattr__(self, "member", m)
        m.setflags(write=False)

    @classmethod
    def _from_stack(cls, members: np.ndarray) -> list[WSet]:
        """One W set per grid of a boolean (G, n, n) stack, validated by one
        batched test instead of one test per set."""
        _check_members(members)
        members.setflags(write=False)
        sets = []
        for m in members:
            w = object.__new__(cls)
            object.__setattr__(w, "n", members.shape[1])
            object.__setattr__(w, "member", m)
            sets.append(w)
        return sets

    def contains(self, i: int, j: int) -> bool:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"pair ({i}, {j}) out of range 1..{self.n}")
        return bool(self.member[i - 1, j - 1])

    @cached_property
    def pairs(self) -> np.ndarray:
        """Off-diagonal members as an (C(n,2), 2) array, 1-based, sorted
        lexicographically by the stored orientation."""
        rows, cols = np.nonzero(self.member & ~np.eye(self.n, dtype=bool))
        out = np.column_stack([rows, cols]) + 1
        out.setflags(write=False)
        return out


def _check_members(members: np.ndarray) -> None:
    """Raise ValueError unless every grid of a boolean (G, n, n) stack
    satisfies the two defining conditions of a W set."""
    reverse = members.transpose(0, 2, 1)
    if not (members | reverse).all():
        raise ValueError("every pair (i, j) or its reverse must be a member")
    if not ((members & reverse) == np.eye(members.shape[1], dtype=bool)).all():
        raise ValueError("exactly the diagonal pairs may be members in both directions")


def canonical_m(n: int) -> WSet:
    """The W set of all pairs (i, j) with i <= j (natural orientation)."""
    member = np.triu(np.ones((n, n), dtype=bool))
    return WSet(n, member)


@dataclass(frozen=True)
class TransitivityCheck:
    """Outcome of a transitivity test.

    For a transitive W set the induced total order is returned as the
    permutation sigma with W = {(i, j) : sigma(i) <= sigma(j)}; otherwise
    `witness` is a triple (i, j, k) with (i, j) and (j, k) members but
    (i, k) not.
    """

    transitive: bool
    witness: tuple[int, int, int] | None
    order: Permutation | None


def is_transitive(w: WSet) -> TransitivityCheck:
    """Test transitivity of a W set and extract the total order or a witness."""
    return _check_transitivity(w.member[None])[0]


def _check_transitivity(members: np.ndarray) -> list[TransitivityCheck]:
    """`is_transitive` for each grid of a (G, n, n) stack of W-set members.

    By Landau's score-sequence theorem a tournament is transitive exactly
    when its out-degrees are distinct: with the diagonal counted, its row
    sums are then n, ..., 1.  A witness (i, j, k) takes the row-major-first
    (i, k), then the least j."""
    n = members.shape[1]
    sigma = n + 1 - members.sum(axis=2)
    transitive = (np.sort(sigma, axis=1) == np.arange(1, n + 1)).all(axis=1)
    orders = sigma[transitive]
    if not np.array_equal(members[transitive], orders[:, :, None] <= orders[:, None, :]):
        raise AssertionError("transitive W set did not reconstruct from its order")
    bad = members[~transitive]
    g = np.arange(len(bad))
    # A boolean matmul, since an integer count of two-step paths can wrap.
    i0, k0 = np.divmod((np.matmul(bad, bad) & ~bad).reshape(g.size, n * n).argmax(axis=1), n)
    witnesses = iter(np.column_stack([i0, (bad[g, i0] & bad[g, :, k0]).argmax(axis=1), k0]) + 1)
    return [
        TransitivityCheck(True, None, Permutation(tuple(s)))
        if t else TransitivityCheck(False, tuple(next(witnesses).tolist()), None)
        for t, s in zip(transitive.tolist(), sigma.tolist())
    ]


def build_w_hat(j_set: Iterable[int], jt_set: Iterable[int], n: int) -> WSet:
    """Orient each pair (i, j), i < j, from a node-level set J and a
    pair-level set Jt.

    The pair keeps its natural orientation when the sides of i and j relative
    to J agree with the membership of the pair's lexicographic position in
    Jt: both on the same side of J and the position in Jt, or on opposite
    sides and the position not in Jt.  Otherwise the pair is reversed.
    """
    j_set = frozenset(j_set)
    jt_set = frozenset(jt_set)
    if not all(isinstance(v, (int, np.integer)) and 1 <= v <= n for v in j_set):
        raise ValueError(f"J must be a subset of 1..{n}, got {sorted(j_set)}")
    mp = pair_count(n)
    if not all(isinstance(v, (int, np.integer)) and 1 <= v <= mp for v in jt_set):
        raise ValueError(f"Jt must be a subset of 1..{mp}, got {sorted(jt_set)}")

    member = np.eye(n, dtype=bool)
    if n >= 2:
        i0, j0 = np.triu_indices(n, k=1)
        in_j = np.zeros(n + 1, dtype=bool)
        in_j[list(j_set)] = True
        in_jt = np.zeros(mp + 1, dtype=bool)
        in_jt[list(jt_set)] = True
        # triu_indices lists the pairs in lexicographic order, so the pair at
        # 0-based position p has 1-based position p + 1 in Jt.
        keep = (in_j[i0 + 1] == in_j[j0 + 1]) == in_jt[1:]
        member[i0, j0] = keep
        member[j0, i0] = ~keep
    return WSet(n, member)


@dataclass(frozen=True)
class WCandidate:
    """One distinct W set produced by the candidate construction, together
    with every (J, Jt) certificate pair that generated it."""

    w: WSet
    transitive: bool
    witness: tuple[int, int, int] | None
    order: Permutation | None
    generating_pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]


@dataclass(frozen=True)
class WCandidateEnumeration:
    candidates: tuple[WCandidate, ...]
    exists_transitive: bool
    j_count: int
    jt_count: int


def enumerate_w_candidates(a, cap: int = DEFAULT_CANDIDATE_CAP) -> WCandidateEnumeration:
    """Build every candidate W set from the sign certificates of `a` and of
    its second compound, deduplicated as orientation sets.

    Requires both `a` and its second compound to be sign-symmetric; raises
    NotSignSymmetricError otherwise and TooManyCertificatesError, before
    listing any certificate, when the number of (J, Jt) combinations exceeds
    `cap`.  The two graphs come from one `spectral.Facts`, so a compound
    that is not a valid matrix raises ValueError("second compound: ...").
    """
    from .spectral import Facts

    facts = Facts(a)
    facts.graph_a.require_consistent()
    return w_candidates_from_graphs(facts.graph_a, facts.graph_c, cap)


def w_candidates_from_graphs(
    graph_a: SignConstraintGraph,
    graph_c: SignConstraintGraph | None,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> WCandidateEnumeration:
    """`enumerate_w_candidates` from the sign-constraint graphs of an n x n
    matrix and of its second compound (None for n = 1)."""
    n = graph_a.n
    graph_a.require_consistent()
    components = len(graph_a.components)
    if graph_c is not None:
        graph_c.require_consistent()
        components += len(graph_c.components)
    total = 2**components
    if total > cap:
        raise TooManyCertificatesError(
            f"{total} candidate (J, Jt) combinations exceed the cap {cap}"
        )
    # Pair p = (i, j) keeps its natural orientation exactly when
    # (S[a, i] == S[a, j]) == T[b, p] for the flip rows S of J and T of Jt,
    # so each (J, Jt) combination, J-major, is one packed row of "reversed"
    # bits (S[a, i] == S[a, j]) ^ T[b, p].  n = 1 has no pairs, so its rows
    # have width 0, and one trivial pair-level certificate.
    s = graph_a.flip_rows()
    t = graph_c.flip_rows() if graph_c else np.zeros((1, 0), dtype=bool)
    i, j = np.triu_indices(n, k=1)
    keys = np.packbits(s[:, i] == s[:, j], axis=1)[:, None] ^ np.packbits(t, axis=1)
    keys = keys.reshape(len(s) * len(t), keys.shape[2])
    # Group equal rows in order of first occurrence, each in increasing order.
    raw, width = keys.tobytes(), keys.shape[1]
    groups: dict[bytes, list[int]] = {}
    for k in range(len(keys)):
        groups.setdefault(raw[k * width:(k + 1) * width], []).append(k)
    keep = np.unpackbits(keys[[ks[0] for ks in groups.values()]], axis=1, count=i.size) == 0
    members = np.repeat(np.eye(n, dtype=bool)[None], len(groups), axis=0)
    members[:, i, j], members[:, j, i] = keep, ~keep

    jt_sets = graph_c.j_sets() if graph_c else [frozenset()]
    pairs = [(js, jts) for js in graph_a.j_sets() for jts in jt_sets]
    candidates = [
        WCandidate(w, c.transitive, c.witness, c.order, tuple(pairs[k] for k in ks))
        for w, c, ks in zip(
            WSet._from_stack(members), _check_transitivity(members), groups.values()
        )
    ]
    exists = any(c.transitive for c in candidates)
    return WCandidateEnumeration(tuple(candidates), exists, len(s), len(t))


def find_transitive_w(
    graph_a: SignConstraintGraph, graph_c: SignConstraintGraph
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Decide whether some certificate pair (J, Jt) builds a transitive W
    set, without listing the pairs.

    `graph_a` and `graph_c` are the consistent sign-constraint graphs of an
    n x n matrix, n >= 2, and of its second compound.  Returns a pair
    (J, Jt) from the families that `enumerate_w_candidates` combines whose
    `build_w_hat` is transitive (checked before returning), or None when no
    pair gives a transitive W set, so the answer is the enumeration's
    `exists_transitive`.

    Each sign component of the matrix carries a flip bit f and each one of
    the compound a flip bit g.  With s_i = colour(i) ^ f and
    t_p = colour(p) ^ g, pair p = (i, j) keeps its natural orientation
    exactly when o_p = s_i ^ s_j ^ t_p, and triangle i < j < k is cyclic
    exactly when o_ij, o_jk and not o_ik are all equal.  Transitivity is
    thus one not-all-equal constraint per triangle over XOR expressions of
    the flip bits.  Constraints in which two expressions coincide fold into
    constants or GF(2) parity equations, solved by elimination; the rest are
    searched by backtracking with unit propagation.
    """
    graph_a.require_consistent()
    graph_c.require_consistent()
    n = graph_a.n
    if n < 2 or graph_c.n != pair_count(n):
        raise ValueError(
            "need the graphs of an n x n matrix, n >= 2, and of its"
            f" C(n,2) x C(n,2) compound; got sizes {graph_a.n} and {graph_c.n}"
        )
    comp_a, comp_c = graph_a.component_index(), graph_c.component_index()
    colour_a = np.asarray(graph_a.coloring, dtype=np.int8)
    colour_c = np.asarray(graph_c.coloring, dtype=np.int8)
    ca = len(graph_a.components)

    # Variable k is f_k and variable ca + k is g_k.  A literal is an
    # expression id, indexing `masks`, and a constant; each pair p = (i, j)
    # starts with its own expression f_comp(i) ^ f_comp(j) ^ g_comp(p).
    i, j = np.triu_indices(n, k=1)
    masks = [
        (1 << a) ^ (1 << b) ^ (1 << (ca + g))
        for a, b, g in zip(comp_a[i].tolist(), comp_a[j].tolist(), comp_c.tolist())
    ]
    const = colour_a[i] ^ colour_a[j] ^ colour_c
    lits = np.column_stack(_triangle_sides(n, i, j))
    consts = const[lits]
    consts[:, 2] ^= 1

    # Complementing J leaves W unchanged and complementing Jt reverses it,
    # so some transitive W set, if any exists, has f_0 = g_0 = 0.
    parity = _ParitySystem()
    parity.add(1, 0)
    parity.add(1 << ca, 0)
    while True:
        reduced = [parity.reduce(mask) for mask in masks]
        ids: dict[int, int] = {}
        remap = np.array([ids.setdefault(mask, len(ids)) for mask, _ in reduced])
        shift = np.array([c for _, c in reduced], dtype=consts.dtype)
        consts = consts ^ shift[lits]
        lits = remap[lits]
        masks = list(ids)
        folded = _fold_triangles(lits, consts)
        if folded is None:
            return None
        lits, consts, equations = folded
        rows = len(parity.rows)
        for a, b, rhs in equations.tolist():
            if not parity.add(masks[a] ^ masks[b], rhs):
                return None
        if len(parity.rows) == rows:
            break

    values = _nae_search(masks, lits, consts)
    if values is None:
        return None
    for pivot, (row, rhs) in parity.rows.items():
        if (rhs ^ ((row ^ pivot) & values).bit_count()) & 1:
            values |= pivot
    flip = np.array([(values >> k) & 1 for k in range(ca + len(graph_c.components))])
    j_set = frozenset((np.nonzero(colour_a ^ flip[comp_a])[0] + 1).tolist())
    jt_set = frozenset((np.nonzero(colour_c ^ flip[ca + comp_c])[0] + 1).tolist())
    if not is_transitive(build_w_hat(j_set, jt_set, n)).transitive:
        raise AssertionError("constraint solution did not build a transitive W set")
    return j_set, jt_set


def _triangle_sides(n: int, i: np.ndarray, j: np.ndarray):
    """0-based lexicographic positions of the pairs ij, jk and ik of every
    triangle i < j < k, given the pairs (i, j) in lexicographic order."""
    width = n - 1 - j
    ii = np.repeat(i, width)
    jj = np.repeat(j, width)
    start = np.repeat(np.cumsum(width) - width, width)
    kk = jj + 1 + np.arange(ii.size) - start

    def position(a, b):
        return a * (2 * n - a - 1) // 2 + (b - a - 1)

    return position(ii, jj), position(jj, kk), position(ii, kk)


def _fold_triangles(lits: np.ndarray, consts: np.ndarray):
    """Split not-all-equal constraints over literals (expression id, const).

    A constraint in which two literals are the same expression with opposite
    constants always holds.  With equal constants the third literal must
    differ from them, a parity equation between two expressions; if the
    third is the same expression too, no assignment satisfies it and None is
    returned.  Otherwise returns the constraints whose three expressions are
    distinct, and the distinct equations expression a ^ expression b = rhs
    for a < b, as the rows (a, b, rhs) of an integer array.
    """
    same = [lits[:, 0] == lits[:, 1], lits[:, 0] == lits[:, 2], lits[:, 1] == lits[:, 2]]
    differ = [consts[:, 0] != consts[:, 1], consts[:, 0] != consts[:, 2],
              consts[:, 1] != consts[:, 2]]
    holds = (same[0] & differ[0]) | (same[1] & differ[1]) | (same[2] & differ[2])
    if (same[0] & same[1] & ~holds).any():
        return None
    paired = (same[0] | same[1] | same[2]) & ~holds
    twin = np.where(same[2], 1, 0)[paired]
    odd = np.where(same[0], 2, np.where(same[1], 1, 0))[paired]
    rows = np.nonzero(paired)[0]
    a = lits[rows, twin]
    b = lits[rows, odd]
    rhs = consts[rows, twin] ^ consts[rows, odd] ^ 1
    # Deduplicate the rows (min, max, rhs) packed into one integer each,
    # unpacking with the same base.
    base = int(lits.max()) + 1 if lits.size else 1
    codes = np.unique((np.minimum(a, b) * base + np.maximum(a, b)) * 2 + rhs)
    equations = np.column_stack([(codes >> 1) // base, (codes >> 1) % base, codes & 1])
    rest = ~(same[0] | same[1] | same[2])
    return lits[rest], consts[rest], equations


class _ParitySystem:
    """GF(2) equations over variables numbered by bit position, kept fully
    reduced: each row holds its pivot (its lowest bit) and no other pivot."""

    def __init__(self) -> None:
        self.rows: dict[int, tuple[int, int]] = {}  # pivot bit -> (mask, rhs)
        self.pivots = 0

    def reduce(self, mask: int, rhs: int = 0) -> tuple[int, int]:
        """Eliminate pivots: (mask . x) ^ rhs == (result mask . x) ^ result rhs."""
        hit = mask & self.pivots
        while hit:
            pivot = hit & -hit
            row, r = self.rows[pivot]
            mask ^= row
            rhs ^= r
            hit ^= pivot
        return mask, rhs

    def add(self, mask: int, rhs: int) -> bool:
        """Add the equation mask . x = rhs; False when it contradicts the
        system."""
        mask, rhs = self.reduce(mask, rhs)
        if not mask:
            return rhs == 0
        pivot = mask & -mask
        for q, (row, r) in self.rows.items():
            if row & pivot:
                self.rows[q] = (row ^ mask, r ^ rhs)
        self.rows[pivot] = (mask, rhs)
        self.pivots |= pivot
        return True


def _nae_search(masks: list[int], lits: np.ndarray, consts: np.ndarray) -> int | None:
    """Backtracking with unit propagation over not-all-equal constraints on
    literals (masks[id] . x) ^ const, branching first on the variables in
    the most constraints.  Returns an assignment as a bit mask of the
    variables that are set, or None when none satisfies them all."""
    codes = {tuple(row) for row in np.sort(lits * 2 + consts, axis=1).tolist()}
    clauses = [tuple((masks[c >> 1], c & 1) for c in row) for row in codes]
    watch: dict[int, list[int]] = {}
    for k, clause in enumerate(clauses):
        union = clause[0][0] | clause[1][0] | clause[2][0]
        while union:
            bit = union & -union
            watch.setdefault(bit, []).append(k)
            union ^= bit
    order = sorted(watch, key=lambda bit: -len(watch[bit]))
    stack = [(0, 0, range(len(clauses)))]
    while stack:
        assigned, values, queue = stack.pop()
        state = _propagate(clauses, watch, assigned, values, list(queue))
        if state is None:
            continue
        assigned, values = state
        bit = next((bit for bit in order if not bit & assigned), 0)
        if not bit:
            return values
        stack.append((assigned | bit, values | bit, watch[bit]))
        stack.append((assigned | bit, values, watch[bit]))
    return None


def _propagate(clauses, watch, assigned: int, values: int, queue: list[int]):
    """Unit propagation: when two literals of a constraint are known and
    equal, the third must differ; a third literal with one open variable
    fixes it.  Returns (assigned, values), or None on a violated
    constraint."""
    while queue:
        known = []
        open_lits = []
        for mask, const in clauses[queue.pop()]:
            value = (const ^ (mask & values).bit_count()) & 1
            free = mask & ~assigned
            if free:
                open_lits.append((free, value))
            else:
                known.append(value)
        if len(known) == 3:
            if known[0] == known[1] == known[2]:
                return None
        elif len(known) == 2 and known[0] == known[1]:
            free, value = open_lits[0]
            if not free & (free - 1):
                assigned |= free
                if value == known[0]:
                    values |= free
                queue.extend(watch[free])
    return assigned, values
