"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the library's own algorithms: sign
certificates come from exhaustive search over all +-1 diagonals, strongly
connected components from a recursion-free Kosaraju pass, and primitivity
from boolean matrix powers.
"""

from __future__ import annotations

import numpy as np

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


def cycle_matrix(n: int) -> np.ndarray:
    """Unweighted directed n-cycle 1 -> 2 -> ... -> n -> 1."""
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = 1.0
    return a


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


def hungarian_close(a, b, atol: float) -> bool:
    """True when the two complex multisets pair up within atol."""
    from signspectra.spectral import match_complex_multisets

    return match_complex_multisets(a, b, atol).ok


def count_calls(monkeypatch, *names: str) -> dict[str, int]:
    """Wrap the named functions in every signspectra module namespace that
    holds them and return a dict counting the calls by name."""
    import functools
    import importlib

    modules = [
        importlib.import_module(f"signspectra.{name}")
        for name in ("core", "exterior", "signsym", "digraph", "wsets", "spectral")
    ]
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        @functools.wraps(original)
        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts
