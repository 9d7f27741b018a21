"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the library's own algorithms: sign
certificates come from exhaustive search over all +-1 diagonals, strongly
connected components from a recursion-free Kosaraju pass, and primitivity
from boolean matrix powers.
"""

from __future__ import annotations

import gzip
import heapq
import json
import re
from collections import Counter, deque
from pathlib import Path
from typing import NamedTuple

import numpy as np

from signspectra.gen import reducible_blocks, tp2

# Weighted directed 5-cycle: the running worked example.  Its second
# compound and the four valid J sets of that compound are frozen below and
# asserted bit-exactly in the tests.
EXAMPLE1 = np.zeros((5, 5))
EXAMPLE1[0, 1] = EXAMPLE1[1, 2] = EXAMPLE1[2, 3] = EXAMPLE1[3, 4] = EXAMPLE1[4, 0] = 1.0
EXAMPLE1.setflags(write=False)

EXAMPLE1_COMPOUND = np.array(
    [
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, -1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)
EXAMPLE1_COMPOUND.setflags(write=False)

EXAMPLE1_COMPOUND_J_SETS = frozenset(
    {
        frozenset({1, 2, 5, 6, 8, 9, 10}),
        frozenset({3, 4, 7}),
        frozenset({1, 3, 5, 7, 8, 10}),
        frozenset({2, 4, 6, 9}),
    }
)

EXAMPLE1_COMPOUND_CSV = (
    "0,0,0,0,1,0,0,0,0,0\n"
    "0,0,0,0,0,1,0,0,0,0\n"
    "0,0,0,0,0,0,1,0,0,0\n"
    "-1,0,0,0,0,0,0,0,0,0\n"
    "0,0,0,0,0,0,0,1,0,0\n"
    "0,0,0,0,0,0,0,0,1,0\n"
    "0,-1,0,0,0,0,0,0,0,0\n"
    "0,0,0,0,0,0,0,0,0,1\n"
    "0,0,-1,0,0,0,0,0,0,0\n"
    "0,0,0,-1,0,0,0,0,0,0\n"
)


# Cyclic generator cells whose compound sign pattern does not depend on the
# drawn weights: index h equal to n (all classes singletons) or n = h + 1
# (the single two-node class has singleton neighbours).  Larger classes sit
# next to each other and their four-entry minors change sign with the
# weights, so those cells route differently from seed to seed.
STABLE_ODD_CELLS = [
    (5, 5), (7, 7), (9, 9), (11, 11),
    (4, 3), (6, 5), (8, 7), (10, 9), (12, 11),
]


def readme_leaf_table() -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """The rows of the README's leaf table, in order: the label, and the
    backticked names of the claims and of the reported routing facts."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = []
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and re.fullmatch(r"`(NONE|T[\d.]+)`", cells[0]):
            rows.append((
                cells[0].strip("`"),
                tuple(re.findall(r"`(\w+)`", cells[2])),
                tuple(re.findall(r"`(\w+)`", cells[3])),
            ))
    return rows


def cycle_matrix(n: int) -> np.ndarray:
    """Unweighted directed n-cycle 1 -> 2 -> ... -> n -> 1."""
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = 1.0
    return a


# Recorded CLI outputs, one JSON object per line; see test_golden.py.
GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def load_golden(name: str) -> list[dict]:
    with gzip.open(GOLDEN_DIR / name, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# Inputs of `analyze` whose sections are compared with the single commands.
ANALYZE_INPUTS = {
    "worked-5x5": EXAMPLE1,
    "tp2": tp2(5, seed=2),
    # 8 x 512 (J, Jt) combinations and 512 distinct W sets: truncated.
    "t11-blocks": reducible_blocks([cycle_matrix(3), cycle_matrix(3), cycle_matrix(5)]),
    "none": cycle_matrix(4),
}

# (argv, file, text, message): a matrix or spec file on which the command
# prints one `error:` line that starts with the message.
PROBE_ERROR_INPUTS = [
    # A compound whose odd cycle numbers pairs, named as the compound's.
    (["wsets"], "m.csv", "0,1\n1,0\n",
     "second compound is not sign-symmetric; odd constraint cycle (1,)"),
    # Finite entries whose spectrum, or whose eigenvalue distances, overflow.
    (["classify"], "m.csv", "1e308,1e308\n1e308,1e308\n",
     "spectrum overflowed: an eigenvalue is not finite"),
    (["classify"], "m.csv", "0,1e308\n1e308,0\n",
     "second compound: matrix entries must be finite"),
    # Specs nested past the bound, and JSON past the decoder's recursion limit.
    (["verify-corpus"], "m.json", "[" + '{"kind": "scrambled", "base": ' * 500
     + '{"kind": "tp2", "n": 3}' + "}" * 500 + "]",
     "spec 0: generator specs nest at most 64 levels deep"),
    (["verify-corpus"], "m.json", "[" + '{"kind": "scrambled", "base": ' * 1200
     + '{"kind": "tp2", "n": 3}' + "}" * 1200 + "]",
     "invalid JSON in m.json: maximum recursion depth exceeded"),
    (["classify"], "m.json", "[" * 3000 + "]" * 3000, "invalid JSON: maximum recursion depth"),
    (["gen"], "m.json", "[" * 3000 + "]" * 3000,
     "invalid JSON in spec file m.json: maximum recursion depth"),
    # A field the kind does not take.
    (["gen"], "m.json", '{"kind": "tp2", "n": 5, "sed": 3}', "tp2 spec: unknown field 'sed'"),
    (["verify-corpus"], "m.json", '[{"kind": "tp2", "n": 5, "sed": 3}]',
     "spec 0: tp2 spec: unknown field 'sed'"),
    # A Frobenius block's spectrum overflows, as `classify` reports it.
    (["frobenius"], "m.csv", "1e308,1e308\n1e308,1e308\n",
     "spectrum overflowed: an eigenvalue is not finite"),
]

# (text, cycle): a CSV matrix that `classify` reports as not sign-symmetric,
# with that odd constraint cycle, though every pairing of its peripheral
# eigenvalues with the targets has an infinite distance.
INFINITE_PAIRING_INPUTS = [
    # The peripheral pair +-1.5e308i lies sqrt(2) rho, beyond the float
    # range, from both targets +-rho.
    ("0,-1.5e308\n1.5e308,0\n", "(1, 2)"),
    # Three peripheral eigenvalues near 1.2e308 lie sqrt(3) rho, beyond
    # the float range, from two of the cube roots: all three rows are
    # finite only at the root rho, though none is inf in every pairing.
    ("1.2e308,1,-1\n1,1.2e308,1\n1,1,1.2e308\n", "(1, 3)"),
]


def random_wset(n: int, rng: np.random.Generator):
    """Uniformly random orientation of all index pairs."""
    from signspectra.wsets import WSet

    member = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                member[i, j] = True
            else:
                member[j, i] = True
    return WSet(n, member)


def reference_minor_grid(a, pairs) -> np.ndarray:
    """Grid of 2x2 minors by the definition, one entry at a time: entry
    (p, q) is a[i, k] a[j, l] - a[i, l] a[j, k] for the 1-based pairs
    p = (i, j) and q = (k, l).  Python floats round each product and the
    difference as numpy does, and overflow to inf (and inf - inf to nan)
    without a warning."""
    m = np.asarray(a, dtype=float).tolist()
    idx = [(int(i) - 1, int(j) - 1) for i, j in pairs]
    out = np.empty((len(idx), len(idx)))
    for p, (i, j) in enumerate(idx):
        for q, (k, l) in enumerate(idx):
            out[p, q] = m[i][k] * m[j][l] - m[i][l] * m[j][k]
    return out


def brute_force_j_sets(a: np.ndarray) -> set[frozenset[int]]:
    """All J making the +-1 diagonal conjugation nonnegative, by trying
    every one of the 2^n subsets at once."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1  # (2^n, n)
    v = bits.astype(bool)
    differ = v[:, :, None] ^ v[:, None, :]  # (2^n, n, n)
    pos = a > 0
    neg = a < 0
    off = ~np.eye(n, dtype=bool)
    bad = ((pos & off) & differ) | ((neg & off) & ~differ)
    valid = ~bad.any(axis=(1, 2))
    if (np.diag(a) < 0).any():
        valid[:] = False
    out = set()
    for mask in np.nonzero(valid)[0]:
        out.add(frozenset(i + 1 for i in range(n) if v[mask, i]))
    return out


def kosaraju_components(a: np.ndarray) -> list[frozenset[int]]:
    """Strongly connected components (sets of 1-based indices), iterative."""
    a = np.asarray(a)
    n = a.shape[0]
    fwd = [list(np.nonzero(a[u])[0]) for u in range(n)]
    rev = [list(np.nonzero(a[:, u])[0]) for u in range(n)]

    seen = [False] * n
    finish = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [(start, iter(fwd[start]))]
        seen[start] = True
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(fwd[nxt])))
                    advanced = True
                    break
            if not advanced:
                finish.append(node)
                stack.pop()

    seen = [False] * n
    components = []
    for start in reversed(finish):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            comp.append(node + 1)
            for nxt in rev[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        components.append(frozenset(comp))
    return components


def reference_block_order(a) -> tuple[tuple[int, ...], ...]:
    """The block order `frobenius_form` promises, one arc at a time: every
    strong component after all components it reaches, the one with the
    smallest original index first among those eligible."""
    comps = sorted(kosaraju_components(a), key=min)
    where = {i: c for c, comp in enumerate(comps) for i in comp}
    successors = [set() for _ in comps]
    predecessors = [set() for _ in comps]
    rows, cols = np.nonzero(np.asarray(a))
    for u, v in zip(rows.tolist(), cols.tolist()):
        cu, cv = where[u + 1], where[v + 1]
        if cu != cv:
            successors[cu].add(cv)
            predecessors[cv].add(cu)
    remaining = [len(s) for s in successors]
    heap = [(min(comps[c]), c) for c in range(len(comps)) if remaining[c] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, c = heapq.heappop(heap)
        order.append(tuple(sorted(comps[c])))
        for p in predecessors[c]:
            remaining[p] -= 1
            if remaining[p] == 0:
                heapq.heappush(heap, (min(comps[p]), p))
    return tuple(order)


def reference_frobenius_form(a):
    """`frobenius_form` with the strong components labelled by scipy's
    `connected_components`, as the library labelled them before it had its
    own search: every block after all blocks it reaches, the one with the
    smallest original index first among those eligible."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    from signspectra.core import Permutation
    from signspectra.digraph import FrobeniusForm

    m = np.asarray(a, dtype=float)
    n_comp, labels = connected_components(csr_matrix(m != 0), directed=True, connection="strong")
    members = [[] for _ in range(n_comp)]
    for node, c in enumerate(labels.tolist()):
        members[c].append(node)
    rows, cols = np.nonzero(m)
    source, target = np.divmod(np.unique(labels[rows] * n_comp + labels[cols]), n_comp)
    between = source != target
    predecessors = [[] for _ in range(n_comp)]
    for cu, cv in zip(source[between].tolist(), target[between].tolist()):
        predecessors[cv].append(cu)
    remaining = np.bincount(source[between], minlength=n_comp).tolist()
    heap = [(members[c][0], c) for c in range(n_comp) if remaining[c] == 0]
    heapq.heapify(heap)
    placed = []
    while heap:
        _, c = heapq.heappop(heap)
        placed.append(c)
        for p in predecessors[c]:
            remaining[p] -= 1
            if remaining[p] == 0:
                heapq.heappush(heap, (members[p][0], p))
    block_indices = tuple(tuple(i + 1 for i in members[c]) for c in placed)
    blocks = tuple(m[np.ix_([i - 1 for i in idx], [i - 1 for i in idx])] for idx in block_indices)
    rho_per_block = tuple(float(np.abs(np.linalg.eigvals(b)).max()) for b in blocks)
    return FrobeniusForm(
        perm=Permutation(tuple(i for idx in block_indices for i in idx)),
        block_sizes=tuple(map(len, block_indices)),
        block_indices=block_indices,
        blocks=blocks,
        rho_per_block=rho_per_block,
        rho=max(rho_per_block),
    )


def reference_eigenvalue_products(a, w=None, cut: float = 0.0) -> bool:
    """The dense product-law check: the eigenvalues of the W matrix (the
    compound when `w` is None) pair up with the products lambda_i lambda_j,
    i < j, within 1e-6 * max(1, rho^2).  O(n^6).

    Values of modulus below `cut` are compared by count only, as
    `split_match` in the acceptance tests does: a defective zero eigenvalue
    comes back from a dense solver as a cluster far wider than any fixed
    tolerance.
    """
    from signspectra.exterior import compound2, w_matrix

    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n < 2:
        return True
    entries = compound2(a) if w is None else w_matrix(a, w).entries
    lam = np.linalg.eigvals(a)
    rho = float(np.abs(lam).max())
    i, j = np.triu_indices(n, k=1)
    products, w_eigs = lam[i] * lam[j], np.linalg.eigvals(entries)
    big_p, big_w = products[np.abs(products) >= cut], w_eigs[np.abs(w_eigs) >= cut]
    tol = 1e-6 * max(1.0, rho * rho)
    return big_p.size == big_w.size and hungarian_close(big_p, big_w, tol)


def scramble_pairs():
    """Inputs of criterion 11, each with its scrambled twin."""
    from signspectra.gen import cyclic_h, nonneg_irreducible, scrambled

    pairs = []
    for i, (n, h) in enumerate(STABLE_ODD_CELLS):
        base = cyclic_h(n, h, seed=3000 + i)
        pairs.append((base, scrambled(base, seed=3000 + i)))
    for i in range(15):
        base = tp2(3 + i % 3, seed=3100 + i)
        pairs.append((base, scrambled(base, seed=3100 + i)))
    for i in range(10):
        base = nonneg_irreducible(2 + i % 6, density=0.3, seed=3200 + i)
        pairs.append((base, scrambled(base, seed=3200 + i)))
    rng = np.random.default_rng(20260405)
    for i in range(10):
        blocks = [cycle_matrix(int(rng.choice([3, 5]))) for _ in range(2)]
        targets = [1.0, float(rng.choice([0.5, 1.0]))]
        base = reducible_blocks(blocks, rho_targets=targets)
        pairs.append((base, scrambled(base, seed=3300 + i)))
    for i in range(5):
        pairs.append((EXAMPLE1, scrambled(EXAMPLE1, seed=3400 + i)))
    return pairs


def reference_match_complex_multisets(a, b, tol: float):
    """`match_complex_multisets` with scipy's assignment on every call: the
    min-sum pairing, then a 0/1 pairing within `tol` when the min-sum one
    is not.  Raises scipy's ValueError when scipy finds no finite pairing:
    every pairing holds an infinite distance, or its path sums overflow."""
    from scipy.optimize import linear_sum_assignment

    from signspectra.spectral import MatchResult

    av = np.asarray(a, dtype=complex).ravel()
    bv = np.asarray(b, dtype=complex).ravel()
    if av.size != bv.size:
        return MatchResult(False, float("inf"))
    if av.size == 0:
        return MatchResult(True, 0.0)
    with np.errstate(over="ignore"):
        cost = np.abs(av[:, None] - bv[None, :])
    rows, cols = linear_sum_assignment(cost)
    max_distance = float(cost[rows, cols].max())
    if max_distance > tol:
        rows, cols = linear_sum_assignment(cost > tol)
        within = cost[rows, cols]
        if (within <= tol).all():
            max_distance = float(within.max())
    return MatchResult(max_distance <= tol, max_distance)


def hungarian_close(a, b, atol: float) -> bool:
    """True when the two complex multisets pair up within atol."""
    from signspectra.spectral import match_complex_multisets

    return match_complex_multisets(a, b, atol).ok


def _wrap_calls(monkeypatch, names, record) -> None:
    """Wrap the named functions in every signspectra module namespace that
    holds them so that each call first runs record(name, args).  A dotted
    name such as "scipy.sparse.csgraph.connected_components" wraps that one
    module attribute, which a call-time import reads."""
    import functools
    import importlib

    modules = [
        importlib.import_module(f"signspectra.{name}")
        for name in ("core", "exterior", "signsym", "digraph", "wsets", "spectral")
    ]
    for name in names:
        module_name, _, attr = name.rpartition(".")
        holders = [importlib.import_module(module_name)] if module_name else modules
        original = next(getattr(m, attr) for m in holders if hasattr(m, attr))

        @functools.wraps(original)
        def counted(*args, _name=name, _fn=original, **kwargs):
            record(_name, args)
            return _fn(*args, **kwargs)

        for module in holders:
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counted)


def count_calls(monkeypatch, *names: str) -> dict[str, int]:
    """Wrap the named functions in every signspectra module namespace that
    holds them and return a dict counting the calls by name."""
    counts = dict.fromkeys(names, 0)

    def record(name, args):
        counts[name] += 1

    _wrap_calls(monkeypatch, names, record)
    return counts


def count_calls_by_dimension(monkeypatch, *names: str) -> dict[str, Counter]:
    """Like `count_calls`, but count each function's calls by the dimension
    of the matrix passed as its first argument."""
    counts = {name: Counter() for name in names}

    def record(name, args):
        counts[name][np.shape(args[0])[0]] += 1

    _wrap_calls(monkeypatch, names, record)
    return counts


def reference_j_sets(graph) -> list[frozenset[int]]:
    """The 2^c valid J sets of a consistent sign-constraint graph, one mask
    and one component at a time, in binary-counter order (component of
    smallest index as the lowest bit)."""
    out = []
    for mask in range(2 ** len(graph.components)):
        j: set[int] = set()
        for k, comp in enumerate(graph.components):
            flip = (mask >> k) & 1
            j.update(i for i in comp if graph.coloring[i - 1] ^ flip == 1)
        out.append(frozenset(j))
    return out


class ReferenceListing(NamedTuple):
    """The reference W listing, and whether one of its W sets is transitive."""

    candidates: tuple
    exists_transitive: bool
    j_count: int
    jt_count: int


def reference_w_candidates(graph_a, graph_c, cap: int) -> ReferenceListing:
    """The W listing built one (J, Jt) combination at a time with
    `build_w_hat`, grouped by orientation in order of first occurrence, and
    whether any of its W sets is transitive, from checking each one."""
    from signspectra.signsym import NotSignSymmetricError, TooManyCertificatesError
    from signspectra.wsets import WCandidate, build_w_hat, is_transitive

    graph_a.require_consistent()
    components = len(graph_a.components)
    if graph_c is not None:
        if not graph_c.consistent:
            raise NotSignSymmetricError(
                "second compound is not sign-symmetric; odd constraint cycle"
                f" {graph_c.odd_cycle}"
            )
        components += len(graph_c.components)
    if 2**components > cap:
        raise TooManyCertificatesError(
            f"{2**components} candidate (J, Jt) combinations exceed the cap {cap}"
        )
    j_sets = reference_j_sets(graph_a)
    jt_sets = reference_j_sets(graph_c) if graph_c else [frozenset()]
    by_key: dict[bytes, list] = {}
    reps = {}
    for js in j_sets:
        for jts in jt_sets:
            w = build_w_hat(js, jts, graph_a.n)
            key = w.member.tobytes()
            by_key.setdefault(key, []).append((js, jts))
            reps.setdefault(key, w)
    candidates = []
    for key, pairs in by_key.items():
        check = is_transitive(reps[key])
        candidates.append(
            WCandidate(reps[key], check.transitive, check.witness, check.order, tuple(pairs))
        )
    exists = any(c.transitive for c in candidates)
    return ReferenceListing(tuple(candidates), exists, len(j_sets), len(jt_sets))


def reference_sign_constraint_graph(a):
    """The sign-constraint graph with one numpy scalar read per nonzero
    entry and numpy colour and parent arrays: the adjacency order and the
    BFS that `signsym.sign_constraint_graph` must reproduce field by field,
    `odd_cycle` included."""
    from signspectra.core import as_matrix
    from signspectra.signsym import SignConstraintGraph

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
                    cycle = _reference_conflict_cycle(u, v, parent)
                    return SignConstraintGraph(n, False, (), None, cycle)
        components.append(tuple(sorted(i + 1 for i in comp)))

    return SignConstraintGraph(
        n, True, tuple(components), tuple(int(c) for c in color), None
    )


def _reference_conflict_cycle(u: int, v: int, parent: np.ndarray) -> tuple[int, ...]:
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
