"""Seeded inputs of the benchmark workloads.

Every workload is a list of passes and every pass a list of `Case`s.  A pass
holds one instance of each input family of its workload, so the mix of input
sizes is the same in every pass, and a run repeats whole rounds of all the
passes.
Passes differ only in the seeds of their generators; all seeds derive from
the benchmark seed, so the same seed yields the same inputs.  Each scrambled
twin conjugates its base by a nonempty proper +-1 diagonal drawn from the
same derived seed.

Inputs that fail at this commit are left out on purpose, so that a later fix
does not read as a slowdown: odd cycles with n >= 33 raise
TooManyCertificatesError and odd cycles with n >= 78 exceed the dimension
limit (3081 > 3000) when the compound is re-validated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from signspectra.gen import GenSpec

# Cells (n, h) of the criterion-08 family: cyclic_h(n, h) routes to T8.2.
STABLE_ODD_CELLS = [
    (5, 5), (7, 7), (9, 9), (11, 11),
    (4, 3), (6, 5), (8, 7), (10, 9), (12, 11),
]

# Distinct generator seeds per pass; a run cycles through them.
VARIANTS = {"odd-cycle-family": 32, "cli-corpus": 8}


@dataclass(frozen=True)
class Case:
    """One input: its generator spec, the theorem label its family fixes
    (None where no theorem fixes one), and the position of its scrambled
    twin within the pass."""

    spec: GenSpec
    label: str | None
    twin: int


def _size(spec: GenSpec) -> int:
    if spec.kind == "reducible_blocks":
        return sum(_size(b) for b in spec.blocks)
    if spec.kind == "scrambled":
        return _size(spec.base)
    return spec.n


def _twins(cases: list, spec: GenSpec, label: str | None, seed: int) -> None:
    rng = random.Random(seed)
    n = _size(spec)
    j_set = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1))))
    twin = GenSpec("scrambled", seed=seed, j_set=j_set, base=spec)
    at = len(cases)
    cases.append(Case(spec, label, at + 1))
    cases.append(Case(twin, label, at))


def _cyclic(n: int, h: int, seed: int) -> GenSpec:
    return GenSpec("cyclic_h", n=n, h=h, seed=seed)


def _tp2(n: int, seed: int) -> GenSpec:
    return GenSpec("tp2", n=n, seed=seed)


def _blocks(cells, seed: int) -> GenSpec:
    return GenSpec(
        "reducible_blocks",
        blocks=tuple(_cyclic(n, h, seed + t) for t, (n, h) in enumerate(cells)),
        rho_targets=tuple(1.0 for _ in cells),
    )


def odd_cycle_pass(seed) -> list:
    cases: list = []
    for slot, (n, h) in enumerate(STABLE_ODD_CELLS):
        _twins(cases, _cyclic(n, h, seed(slot)), "T8.2", seed(slot))
    return cases


def cli_pass(seed) -> list:
    cases: list = []
    for slot, (n, h) in enumerate([(5, 5), (7, 7), (6, 5), (12, 11)]):
        _twins(cases, _cyclic(n, h, seed(slot)), "T8.2", seed(slot))
    for slot, n in enumerate([4, 6, 12], start=4):
        _twins(cases, _tp2(n, seed(slot)), "T9.1", seed(slot))
    _twins(cases, _blocks([(3, 3), (5, 5)], seed(7)), "T11", seed(7))
    _twins(cases, _blocks([(5, 5), (7, 7)], seed(8)), "T11", seed(8))
    # 8 x 512 (J, Jt) combinations: analyze lists about 600 KB of W candidates.
    _twins(cases, _blocks([(3, 3), (5, 5), (7, 7)], seed(9)), "T11", seed(9))
    _twins(cases, _cyclic(8, 4, seed(10)), None, seed(10))
    for slot, (n, density) in enumerate([(10, 0.3), (20, 0.1)], start=11):
        spec = GenSpec("nonneg_irreducible", n=n, density=density, seed=seed(slot))
        _twins(cases, spec, None, seed(slot))
    return cases


BUILDERS = {
    "odd-cycle-family": odd_cycle_pass,
    "cli-corpus": cli_pass,
}


def passes(workload: str, seed: int) -> list:
    """All passes of a workload for one benchmark seed."""
    out = []
    for variant in range(VARIANTS[workload]):
        # Generator seeds are >= 1: tp2 treats seed 0 as the all-ones case.
        out.append(BUILDERS[workload](
            lambda slot, v=variant: seed * 100_000 + v * 1000 + slot * 10 + 1
        ))
    return out
