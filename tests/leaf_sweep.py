"""Every 0/1 pattern of one order, classified and checked against oracles.

`sweep(n, draws)` builds each of the 2^(n*n) 0/1 patterns of order n with
unit magnitudes and with each seeded magnitude draw, each also scrambled by
the fixed diagonal D = diag(1, -1, 1, ...).  It classifies every matrix and
returns the label counts and every disagreement: an unverified
classification, a scrambled verdict that differs from its base's, or a
routing fact of `Facts` that differs from its brute-force oracle.  The
oracles read the matrix and its second compound C2 entry by entry:

- irreducibility: (I + P)^(size-1) > 0 for the 0/1 pattern P, with the
  library's rule that a 1x1 zero compound is not irreducible;
- the imprimitivity index h: the gcd of the lengths k <= size with
  trace(P^k) > 0, which is the gcd of the cycle lengths, since every closed
  walk splits into simple cycles (1 for a 1x1 pattern, by convention);
- sign symmetry: the J sets of all 2^size +-1 diagonals D with DMD >= 0;
- the transitive-W answer, where it routes (A irreducible, n >= 2):
  whether `build_w_hat` of some pair of those J sets of A and of C2 is
  transitive.

Run as a script it sweeps one order with unit magnitudes and writes the
label counts and the run time as a markdown table; it exits 1 on any
disagreement:

    PYTHONPATH=src python tests/leaf_sweep.py 4
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import brute_force_j_sets  # noqa: E402
from signspectra.spectral import Facts, classify  # noqa: E402
from signspectra.wsets import build_w_hat, is_transitive  # noqa: E402


def oracle_irreducible(m: np.ndarray) -> bool:
    size = len(m)
    reach = np.linalg.matrix_power(np.eye(size, dtype=np.int64) + (m != 0), size - 1)
    return bool((reach > 0).all())


def oracle_index(m: np.ndarray) -> int:
    size = len(m)
    if size == 1:
        return 1
    p = (m != 0).astype(np.int64)
    walks, lengths = np.eye(size, dtype=np.int64), []
    for k in range(1, size + 1):
        walks = np.minimum(walks @ p, 1)  # 0/1: a walk of length k exists
        if np.trace(walks):
            lengths.append(k)
    return math.gcd(*lengths)


def oracle_transitive(n: int, j_sets, jt_sets) -> bool:
    return any(
        is_transitive(build_w_hat(j, jt, n)).transitive
        for j, jt in itertools.product(j_sets, jt_sets)
    )


def disagreements(a: np.ndarray, facts: Facts) -> list[str]:
    """Each routing fact of `facts` that differs from its oracle on `a`."""
    n = len(a)
    out = []
    j_sets = brute_force_j_sets(a)
    if facts.irreducible != oracle_irreducible(a):
        out.append("irreducible")
    elif facts.irreducible and facts.imprimitivity.h != oracle_index(a):
        out.append("h")
    if set(facts.graph_a.j_sets() if facts.graph_a.consistent else ()) != j_sets:
        out.append("sign symmetry of A")
    if n == 1 or not j_sets:
        return out
    c2 = facts.compound
    irreducible_c = oracle_irreducible(c2) and not (c2.shape == (1, 1) and c2[0, 0] == 0.0)
    if facts.compound_irreducible != irreducible_c:
        out.append("compound irreducible")
    elif irreducible_c and facts.compound_imprimitivity.h != oracle_index(c2):
        out.append("h of the compound")
    jt_sets = brute_force_j_sets(c2)
    graph_c = facts.graph_c
    if set(graph_c.j_sets() if graph_c.consistent else ()) != jt_sets:
        out.append("sign symmetry of the compound")
    if not jt_sets or not facts.irreducible:
        return out
    if (facts.transitive_w is not None) != oracle_transitive(n, j_sets, jt_sets):
        out.append("transitive W")
    return out


def sweep(n: int, draws: tuple[int, ...] = ()):
    """Label counts and disagreements over every 0/1 pattern of order n, with
    unit magnitudes and one magnitude draw per seed in `draws`, each also
    scrambled by D.  A disagreement is (description, matrix)."""
    d = (-1.0) ** np.arange(n)
    scales = [np.ones((n, n))] + [
        np.random.default_rng(seed).uniform(0.5, 2.0, (n, n)) for seed in draws
    ]
    bits = np.arange(n * n)
    labels: Counter[str] = Counter()
    failed = []
    for code in range(2 ** (n * n)):
        pattern = ((code >> bits) & 1).reshape(n, n)
        for scale in scales:
            base = pattern * scale
            verdict = None
            for a in (base, d[:, None] * base * d[None, :]):
                facts = Facts(a)
                c = classify(facts)
                labels[c.theorem] += 1
                wrong = disagreements(a, facts)
                if not c.verified:
                    wrong.append(f"unverified {c.theorem}")
                if verdict is not None and c.verdict() != verdict:
                    wrong.append("scrambled verdict")
                verdict = c.verdict()
                failed += [(what, a.tolist()) for what in wrong]
    return labels, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int)
    n = parser.parse_args(argv).n
    start = time.perf_counter()
    labels, failed = sweep(n)
    seconds = time.perf_counter() - start
    print(f"Sweep of every 0/1 pattern with n = {n}, unit magnitudes: {seconds:.1f} s\n")
    print("| label | count |\n| --- | --- |")
    for label, count in sorted(labels.items()):
        print(f"| `{label}` | {count} |")
    print(f"\n{len(failed)} disagreements")
    for what, a in failed[:20]:
        print(f"- {what}: {a}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
