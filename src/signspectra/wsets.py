"""Pair-orientation sets and the candidate construction that pairs sign
certificates of a matrix with those of its second compound.

A W set over {1..n} is a set of ordered pairs such that every (i, i) belongs
to it and exactly one of (i, j), (j, i) belongs to it for each i != j.  It
fixes an orientation for every unordered index pair and thereby a basis
ordering for minor-based matrices.  A transitive W set is exactly a total
order on {1..n}.

The orientation of every pair is an affine GF(2) function of the flips of
the sign components of the matrix and of its compound (`_orientation`).
`find_transitive_w` decides from it whether the candidate construction
yields a transitive W set without listing the candidates.
`enumerate_w_candidates` lists them: the distinct W sets are the cosets of
the kernel of that map, so their number, the first (J, Jt) combination of
each and the combinations that generate it follow from one echelon basis
with no W set built.  `w_candidates_from_graphs` then builds and checks the
first `limit` of them, or all, in one batch, so `analyze`, which prints the
first 64, builds only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .core import Permutation, _pair_table, pair_count
from .signsym import NotSignSymmetricError, SignConstraintGraph, TooManyCertificatesError, _row_sets

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
        for grid in members:
            w = object.__new__(cls)
            object.__setattr__(w, "n", members.shape[1])
            object.__setattr__(w, "member", grid)
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
    return _check_at(_check_transitivity(w.member[None]), 0)


def _check_transitivity(members: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`is_transitive` for each grid of a (G, n, n) stack of W-set members,
    as three arrays: the transitive flags (G,), the orders sigma (G, n),
    meaningful where transitive, and the 1-based witnesses (G, 3), zero
    where transitive.  `_check_at` reads one set's `TransitivityCheck`.

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
    # Two-step path counts in float32 BLAS: a count is at most
    # n <= MAX_DIMENSION < 2**24, so float32 holds it exactly (uint8 wraps).
    # Blocks of at most 2**22 grid entries bound each float32 copy at 16 MB.
    reach = np.empty_like(bad)
    step = max(1, 2**22 // (n * n))
    for lo in range(0, len(bad), step):
        block = bad[lo:lo + step].astype(np.float32)
        reach[lo:lo + step] = np.matmul(block, block) > 0
    i0, k0 = np.divmod((reach & ~bad).reshape(g.size, n * n).argmax(axis=1), n)
    j0 = (bad[g, i0] & bad[g, :, k0]).argmax(axis=1)
    witnesses = np.zeros((len(members), 3), dtype=np.int64)
    witnesses[~transitive] = np.column_stack([i0, j0, k0]) + 1
    return transitive, sigma, witnesses


def _check_at(checks: tuple[np.ndarray, np.ndarray, np.ndarray], g: int) -> TransitivityCheck:
    """The `TransitivityCheck` of set g from `_check_transitivity` arrays."""
    transitive, sigma, witnesses = checks
    if transitive[g]:
        return TransitivityCheck(True, None, Permutation(tuple(sigma[g].tolist())))
    return TransitivityCheck(False, tuple(witnesses[g].tolist()), None)


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

    s = np.zeros((1, n + 1), dtype=bool)
    t = np.zeros((1, mp + 1), dtype=bool)
    s[0, list(j_set)] = t[0, list(jt_set)] = True
    return WSet(n, _members(s[:, 1:], t[:, 1:])[0])


def _members(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The (G, n, n) member grids of G W sets, from boolean rows s (G, n)
    marking J and t (G, C(n,2)) marking Jt: pair p = (i, j), i < j, at
    position p of `_pair_table`, is kept exactly when (s_i == s_j) == t_p."""
    g, n = s.shape
    i, j = _pair_table(n)
    keep = (s[:, i] == s[:, j]) == t
    members = np.repeat(np.eye(n, dtype=bool)[None], g, axis=0)
    members[:, i, j], members[:, j, i] = keep, ~keep
    return members


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
    """The distinct W sets of the candidate construction, in order of first
    occurrence among the (J, Jt) combinations, J-major.

    `candidates` holds the first `limit` of them that
    `w_candidates_from_graphs` was asked for, or all of them; `count` is the
    number of all distinct W sets, and `j_count` and `jt_count` the numbers
    of J and Jt certificates.  On a full listing, some W set is transitive
    exactly when `any(c.transitive for c in candidates)`.
    """

    candidates: tuple[WCandidate, ...]
    count: int
    j_count: int
    jt_count: int


def enumerate_w_candidates(a, cap: int = DEFAULT_CANDIDATE_CAP) -> WCandidateEnumeration:
    """Build every candidate W set from the sign certificates of `a` and of
    its second compound, deduplicated as orientation sets, and check each
    for transitivity.

    Requires both `a` and its second compound to be sign-symmetric; raises
    NotSignSymmetricError otherwise and TooManyCertificatesError, before
    listing any certificate, when the number of (J, Jt) combinations exceeds
    `cap`.  The two graphs come from one `spectral.Facts`, so a compound
    that is not a valid matrix raises ValueError("second compound: ...").
    """
    from .spectral import Facts

    _check_cap(cap)
    facts = Facts(a)
    facts.graph_a.require_consistent()
    return w_candidates_from_graphs(facts.graph_a, facts.graph_c, cap)


def _require_consistent(graph_a: SignConstraintGraph, graph_c: SignConstraintGraph | None) -> None:
    """`require_consistent` on the graphs of a matrix and of its compound,
    whose odd cycle is named as the compound's: it numbers pairs."""
    graph_a.require_consistent()
    if graph_c is not None and not graph_c.consistent:
        cycle = graph_c.odd_cycle
        message = f"second compound is not sign-symmetric; odd constraint cycle {cycle}"
        raise NotSignSymmetricError(message, cycle)


def _orientation(
    graph_a: SignConstraintGraph, graph_c: SignConstraintGraph | None
) -> tuple[list[int], np.ndarray]:
    """The orientation of every pair as an affine GF(2) function of the
    component flips, as one mask and one constant per pair.

    A (J, Jt) combination x holds one flip bit per sign component: bit k
    flips component k of the compound's graph and bit c~ + k component k of
    the matrix's, for c~ compound components, so x = (J row) * 2^c~ + (Jt
    row) for the rows of `flip_rows` and the combinations count up J-major.
    `build_w_hat` keeps pair p = (i, j), i < j, in its natural orientation
    exactly when s_i ^ s_j ^ t_p is 1 for the flip rows s of J and t of Jt,
    that is when const[p] ^ parity(masks[p] & x) is 1.
    """
    n = graph_a.n
    size_c = 0 if graph_c is None else graph_c.n
    if size_c != pair_count(n):
        raise ValueError(
            "need the graphs of an n x n matrix and of its C(n,2) x C(n,2)"
            f" compound (None for n = 1); got sizes {n} and {size_c}"
        )
    i, j = _pair_table(n)
    cc = 0 if graph_c is None else len(graph_c.components)
    comp_a = graph_a.component_index() + cc
    colour_a = np.asarray(graph_a.coloring, dtype=np.int8)
    comp_c = graph_c.component_index() if graph_c else np.zeros(0, dtype=np.int64)
    colour_c = np.asarray(graph_c.coloring if graph_c else (), dtype=np.int8)
    masks = [
        (1 << a) ^ (1 << b) ^ (1 << g)
        for a, b, g in zip(comp_a[i].tolist(), comp_a[j].tolist(), comp_c.tolist())
    ]
    return masks, colour_a[i] ^ colour_a[j] ^ colour_c


def w_candidates_from_graphs(
    graph_a: SignConstraintGraph,
    graph_c: SignConstraintGraph | None,
    cap: int = DEFAULT_CANDIDATE_CAP,
    limit: int | None = None,
) -> WCandidateEnumeration:
    """`enumerate_w_candidates` from the sign-constraint graphs of an n x n
    matrix and of its second compound (None for n = 1), listing the first
    `limit` distinct W sets, or all of them when `limit` is None.

    Two combinations give the same W set exactly when they differ by an
    element of the kernel K of the orientation map (`_orientation`), so the
    distinct W sets are the cosets of K.  Reducing the pair masks with their
    lowest bits as pivots makes the kernel vector of each free bit b equal
    to b plus pivots below it, a basis in echelon form by highest bit.  The
    least element of a coset is then its only element with no free bit set:
    candidate g first occurs at the g-th integer made of pivot bits alone,
    and its combinations are that integer XOR the span of K, which counts up
    as the basis subsets do.  The listed W sets are built and checked as one
    stack, and the J and Jt sets of their combinations come from one
    `_row_sets` call each.
    """
    _check_cap(cap)
    _require_consistent(graph_a, graph_c)
    masks, _ = _orientation(graph_a, graph_c)
    ca = len(graph_a.components)
    cc = 0 if graph_c is None else len(graph_c.components)
    if 2 ** (ca + cc) > cap:
        raise TooManyCertificatesError(
            f"{2 ** (ca + cc)} candidate (J, Jt) combinations exceed the cap {cap}"
        )
    image = _ParitySystem()
    for mask in set(masks):
        image.add(mask, 0)
    pivots = np.array(sorted(image.rows), dtype=np.int64)
    span = np.zeros(1, dtype=np.int64)
    for bit in (1 << b for b in range(ca + cc)):
        if not bit & image.pivots:
            vector = bit | sum(p for p, (row, _) in image.rows.items() if row & bit)
            span = np.concatenate([span, span ^ vector])

    # The first combination of each listed candidate, its W set from the
    # flip rows of that combination's J and Jt, and all its combinations.
    count = 2**pivots.size
    listed = np.arange(count if limit is None else min(limit, count))
    first = ((listed[:, None] >> np.arange(pivots.size)) & 1) @ pivots
    low = (1 << cc) - 1

    def flip_rows_c(flips) -> np.ndarray:  # no pair, so no column, for n = 1
        return graph_c.flip_rows(flips) if graph_c else np.zeros((len(flips), 0), dtype=bool)

    members = _members(graph_a.flip_rows(first >> cc), flip_rows_c(first & low))
    checks = _check_transitivity(members)
    combos = first[:, None] ^ span
    j_rows = (combos >> cc).ravel().tolist()
    jt_rows = (combos & low).ravel().tolist()
    j_used, jt_used = list(dict.fromkeys(j_rows)), list(dict.fromkeys(jt_rows))
    j_sets = dict(zip(j_used, _row_sets(graph_a.flip_rows(j_used))))
    jt_sets = dict(zip(jt_used, _row_sets(flip_rows_c(jt_used))))
    pairs = [(j_sets[j], jt_sets[jt]) for j, jt in zip(j_rows, jt_rows)]
    candidates = []
    for k, w in enumerate(WSet._from_stack(members)):
        c = _check_at(checks, k)
        own = tuple(pairs[k * span.size:(k + 1) * span.size])
        candidates.append(WCandidate(w, c.transitive, c.witness, c.order, own))
    return WCandidateEnumeration(tuple(candidates), count, 2**ca, 2**cc)


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")


def find_transitive_w(
    graph_a: SignConstraintGraph, graph_c: SignConstraintGraph
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Decide whether some certificate pair (J, Jt) builds a transitive W
    set, without listing the pairs.

    `graph_a` and `graph_c` are the consistent sign-constraint graphs of an
    n x n matrix, n >= 2, and of its second compound.  Returns a pair
    (J, Jt) from the families that `enumerate_w_candidates` combines whose
    `build_w_hat` is transitive (checked before returning), or None when no
    pair gives a transitive W set, so the answer is whether some candidate
    of the full listing is transitive.

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
    _require_consistent(graph_a, graph_c)
    n = graph_a.n
    if n < 2:
        raise ValueError("need the graphs of an n x n matrix, n >= 2, and of its compound")
    # The variables are the flip bits of a combination (`_orientation`).  A
    # literal is an expression id, indexing `masks`, and a constant; each
    # pair p = (i, j) starts with its own expression f_comp(i) ^ f_comp(j)
    # ^ g_comp(p).
    masks, const = _orientation(graph_a, graph_c)
    cc = len(graph_c.components)
    lits = _triangle_sides(n)
    consts = const[lits]
    consts[:, 2] ^= 1

    # Complementing J leaves W unchanged and complementing Jt reverses it,
    # so some transitive W set, if any exists, has f_0 = g_0 = 0.
    parity = _ParitySystem()
    parity.add(1 << cc, 0)
    parity.add(1, 0)
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
    [j_set] = _row_sets(graph_a.flip_rows([values >> cc]))
    [jt_set] = _row_sets(graph_c.flip_rows([values & ((1 << cc) - 1)]))
    if not is_transitive(build_w_hat(j_set, jt_set, n)).transitive:
        raise AssertionError("constraint solution did not build a transitive W set")
    return j_set, jt_set


@lru_cache(maxsize=16)
def _triangle_sides(n: int) -> np.ndarray:
    """Read-only 0-based positions of the pairs ij, jk and ik of each triangle
    i < j < k, a row each in lexicographic order, kept for the last 16 sizes n:
    4n(n-1)(n-2) bytes a table, 1.8 MB at n = 77, the largest n whose compound
    fits in MAX_DIMENSION."""
    i, j = _pair_table(n)
    width = n - 1 - j
    ii = np.repeat(i, width)
    jj = np.repeat(j, width)
    start = np.repeat(np.cumsum(width) - width, width)
    kk = jj + 1 + np.arange(ii.size) - start

    def position(a, b):
        return a * (2 * n - a - 1) // 2 + (b - a - 1)

    sides = np.column_stack([position(ii, jj), position(jj, kk), position(ii, kk)])
    sides.flags.writeable = False
    return sides


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
    # unpacking with the same base.  A sort and a neighbour test, as
    # `np.unique` would, without its probe for masked arrays, which imports
    # numpy.ma in numpy 2.4.
    base = int(lits.max()) + 1 if lits.size else 1
    codes = np.sort((np.minimum(a, b) * base + np.maximum(a, b)) * 2 + rhs)
    fresh = np.ones(codes.size, dtype=bool)
    fresh[1:] = codes[1:] != codes[:-1]
    codes = codes[fresh]
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
