"""Peripheral spectrum classification for sign-symmetric matrices.

`classify` routes a matrix through a decision tree on its structural facts:
sign-symmetry of the matrix and of its second compound, irreducibility of
both, the sign of the trace, and the existence of a transitive candidate W
set.  The tree is the table `_LEAVES`, one row per leaf, listed with each
leaf's route and claims in the README's leaf table.  Each leaf carries a set
of predictions about the peripheral spectrum (the eigenvalues of largest
modulus), every one of which is then verified against the numerically
computed spectrum.  A classification whose predictions all check out is
`verified`; a failure is reported per claim so the caller can assemble a
counterexample bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__, core
from .core import Permutation, _frobenius_norm, as_matrix, pair_count
from .digraph import (
    FrobeniusForm,
    ImprimitivityIndex,
    _adjacency,
    _pattern_index,
    frobenius_form,
    imprimitivity_index,
)
from .exterior import compound2
from .signsym import SignConstraintGraph, sign_constraint_graph
# enumerate_w_candidates stays importable from here for
# benchmark/test_benchmark.py, which checks tracing against this module.
from .wsets import enumerate_w_candidates, find_transitive_w  # noqa: F401

__all__ = [
    "Spectrum",
    "eigenvalues",
    "MatchResult",
    "match_complex_multisets",
    "PeripheralGroup",
    "peripheral_spectrum",
    "Prediction",
    "Classification",
    "Facts",
    "classify",
    "counterexample_bundle",
]

# Fixed internal tolerances: absolute slack for "real"/"nonnegative" claims
# scales by 1e-8, strict separations by a factor (1 - 1e-8), and simplicity
# of peripheral eigenvalues demands pairwise gaps above rho * 1e-4.
REAL_PART_REL_TOL = 1e-8
STRICT_SEPARATION = 1.0 - 1e-8
SIMPLICITY_GAP_REL = 1e-4
DEFAULT_REL_TOL = 1e-6  # the defaults of `classify` and of the CLI flags
DEFAULT_PERIPHERAL_TOL = 1e-6


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in canonical order: modulus descending, then argument
    ascending in [0, 2*pi).  `backward_error_bound` is the crude dense
    eigensolver scale n * eps * ||A||_F."""

    values: np.ndarray
    rho: float
    backward_error_bound: float


def eigenvalues(a) -> Spectrum:
    """Full spectrum via the dense nonsymmetric eigensolver; ValueError if it overflows."""
    m = as_matrix(a)
    vals = np.linalg.eigvals(m)
    if not np.isfinite(vals).all():
        raise ValueError("spectrum overflowed: an eigenvalue is not finite")
    mods = np.abs(vals)
    args = np.mod(np.angle(vals), 2.0 * np.pi)
    order = np.lexsort((args, -mods))
    vals = vals[order]
    vals.setflags(write=False)
    bound = m.shape[0] * np.finfo(float).eps * _frobenius_norm(m)
    return Spectrum(vals, float(mods.max()), bound)


@dataclass(frozen=True)
class MatchResult:
    ok: bool
    max_distance: float


def match_complex_multisets(a, b, tol: float) -> MatchResult:
    """Pairing of two complex multisets; ok when the sizes agree and some
    pairing keeps every matched pair within `tol`.

    `max_distance` is the bottleneck: the least largest distance over every
    pairing (Gabow and Tarjan, J. Algorithms 9, 1988), so ok is exactly
    `max_distance <= tol`.  It is inf when every pairing holds a distance
    beyond the float range.  ValueError when sizes agree and a distance is
    NaN.

    When each row's nearest target is a different one, the bottleneck is the
    largest row minimum.  Else it is at least the largest row or column
    minimum; the distances from there up are bisected, that bound probed
    first, each probe asking whether the distances within it pair every row.
    """
    av = np.asarray(a, dtype=complex).ravel()
    bv = np.asarray(b, dtype=complex).ravel()
    if av.size != bv.size:
        return MatchResult(False, float("inf"))
    if av.size == 0:
        return MatchResult(True, 0.0)
    with np.errstate(over="ignore"):  # a distance beyond the float range is inf
        cost = np.abs(av[:, None] - bv[None, :])
    low = cost.min(axis=1).tolist()  # a row with a NaN distance has NaN here
    if math.isnan(sum(low)):
        raise ValueError("match_complex_multisets: a distance is NaN")
    if len(set(cost.argmin(axis=1).tolist())) == len(low):
        # Each row's own minimum pairs every row, and no pairing does better.
        max_distance = max(low)
        return MatchResult(max_distance <= tol, max_distance)
    bound = max(max(low), float(cost.min(axis=0).max()))
    levels = np.sort(cost[cost >= bound])
    levels = levels[np.append(True, levels[1:] != levels[:-1])].tolist()
    lo, hi, mid = 0, len(levels) - 1, 0  # the largest distance pairs every row
    while lo < hi:
        if _pairs_every_row(cost <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return MatchResult(levels[lo] <= tol, levels[lo])


def _pairs_every_row(allowed: np.ndarray) -> bool:
    """Whether the square 0/1 matrix `allowed` pairs each row with a column of
    its own: one breadth-first augmenting path per row (Kuhn, 1955)."""
    k = len(allowed)
    indptr, cols = _adjacency(*np.nonzero(allowed), k)
    col4row, row4col = [-1] * k, [-1] * k
    for root in range(k):
        came_from, queue, sink = [-1] * k, [root], -1
        for i in queue:
            for j in cols[indptr[i]:indptr[i + 1]]:
                if came_from[j] < 0:
                    came_from[j] = i
                    if row4col[j] < 0:
                        sink = j
                        break
                    queue.append(row4col[j])
            if sink >= 0:
                break
        if sink < 0:
            return False
        while sink >= 0:  # flip the path from the free column back to the root
            i = came_from[sink]
            row4col[sink], col4row[i], sink = i, sink, col4row[i]
    return True


@dataclass(frozen=True)
class PeripheralGroup:
    """Eigenvalues within `rel_tol` (relatively) of the largest modulus.

    `roots_of` is (k, rho**k) when the group is exactly the k-th roots of
    rho^k within tolerance, else None; rho**k is inf when it overflows.  A
    zero spectral radius gives an empty degenerate group.
    """

    count: int
    values: np.ndarray
    modulus: float
    rel_tol: float
    roots_of: tuple[int, float] | None
    degenerate_zero: bool


def _roots_targets(modulus: float, k: int) -> np.ndarray:
    t = np.arange(k)
    return modulus * np.exp(2j * np.pi * t / k)


def _check_band(tol: float, name: str) -> None:
    """The peripheral band rho * (1 - tol) needs tol in (0, 1)."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {tol!r}")


def peripheral_spectrum(a, rel_tol: float = DEFAULT_PERIPHERAL_TOL) -> PeripheralGroup:
    """Extract the peripheral eigenvalue group of a matrix or a Spectrum.

    `rel_tol` must lie in (0, 1); other values raise ValueError."""
    _check_band(rel_tol, "rel_tol")
    spec = a if isinstance(a, Spectrum) else eigenvalues(a)
    rho = spec.rho
    if rho == 0.0:
        return PeripheralGroup(0, np.zeros(0, dtype=complex), 0.0, rel_tol, None, True)
    mask = np.abs(spec.values) >= rho * (1.0 - rel_tol)
    values = spec.values[mask]
    k = int(values.size)
    atol = rel_tol * max(1.0, rho)
    roots = None
    if match_complex_multisets(values, _roots_targets(rho, k), atol).ok:
        try:
            roots = (k, rho**k)
        except OverflowError:
            roots = (k, float("inf"))
    return PeripheralGroup(k, values, rho, rel_tol, roots, False)


@dataclass(frozen=True)
class Prediction:
    """One verifiable claim: a stable slug, a human-readable detail with the
    numbers involved, and whether the numerical check passed."""

    claim: str
    detail: str
    verified: bool


@dataclass(frozen=True)
class Classification:
    theorem: str
    predictions: tuple[Prediction, ...]
    verified: bool
    diagnostics: str
    spectrum: Spectrum
    peripheral: PeripheralGroup
    irreducible: bool | None
    compound_irreducible: bool | None
    exists_transitive: bool | None
    h: int | None
    h_compound: int | None
    peripheral_count: int
    rho_multiplicity: int | None
    rel_tol: float
    peripheral_tol: float

    def routing_facts(self) -> dict:
        """The routing facts by name, as `analyze` and counterexample
        bundles report them."""
        return {
            "irreducible": self.irreducible,
            "compound_irreducible": self.compound_irreducible,
            "exists_transitive": self.exists_transitive,
            "h": self.h,
            "h_compound": self.h_compound,
            "peripheral_count": self.peripheral_count,
            "rho_multiplicity": self.rho_multiplicity,
        }

    def verdict(self) -> tuple:
        """The structural verdict, invariant under +-1 diagonal similarity:
        routing facts plus each claim with its verified flag."""
        return (
            self.theorem,
            *self.routing_facts().values(),
            tuple((p.claim, p.verified) for p in self.predictions),
        )


def _fmt(z) -> str:
    if isinstance(z, complex) or isinstance(z, np.complexfloating):
        return repr(complex(z))
    return repr(float(z))


def _pred_rho_eigenvalue(spec: Spectrum, tol_eig: float) -> Prediction:
    rho = spec.rho
    dist = float(np.abs(spec.values - rho).min())
    ok = rho > 0.0 and dist <= tol_eig
    return Prediction(
        "rho_positive_eigenvalue",
        f"rho={_fmt(rho)} is itself an eigenvalue: nearest distance {_fmt(dist)}"
        f" within {_fmt(tol_eig)}",
        ok,
    )


def _pred_index_one(h: int, peripheral: PeripheralGroup) -> Prediction:
    ok = h == 1 and peripheral.count == 1
    return Prediction(
        "index_one",
        f"imprimitivity index {h} and peripheral count {peripheral.count} both 1",
        ok,
    )


def _second_value(spec: Spectrum) -> complex:
    return complex(spec.values[1])


def _pred_second_real(spec: Spectrum, strict: bool) -> Prediction:
    lam2 = _second_value(spec)
    real_tol = REAL_PART_REL_TOL * max(1.0, spec.rho)
    is_real = abs(lam2.imag) <= real_tol
    if strict:
        ok = is_real and lam2.real > 0.0
        claim = "second_eigenvalue_real_positive"
        text = f"lambda2={_fmt(lam2)} real within {_fmt(real_tol)} and positive"
    else:
        ok = is_real and lam2.real >= -real_tol
        claim = "second_eigenvalue_real_nonnegative"
        text = f"lambda2={_fmt(lam2)} real and nonnegative within {_fmt(real_tol)}"
    return Prediction(claim, text, ok)


def _pred_second_below_rho(spec: Spectrum) -> Prediction:
    lam2 = _second_value(spec)
    ok = abs(lam2) < spec.rho * STRICT_SEPARATION
    return Prediction(
        "second_eigenvalue_below_rho",
        f"|lambda2|={_fmt(abs(lam2))} strictly below rho={_fmt(spec.rho)}",
        ok,
    )


def _pred_peripheral_roots(
    peripheral: PeripheralGroup, k: int, tol: float
) -> Prediction:
    match = match_complex_multisets(
        peripheral.values, _roots_targets(peripheral.modulus, k), tol
    )
    return Prediction(
        "peripheral_roots_of_rho",
        f"peripheral spectrum matches the {k} roots of rho^{k}: max distance"
        f" {_fmt(match.max_distance)} within {_fmt(tol)}",
        match.ok and peripheral.count == k,
    )


def _pred_peripheral_simple(peripheral: PeripheralGroup) -> Prediction:
    # Structural half: an irreducible matrix is a single Frobenius block, so
    # each peripheral eigenvalue is simple; numerically we demand pairwise
    # separation well above solver noise.
    gap_floor = peripheral.modulus * SIMPLICITY_GAP_REL
    vals = peripheral.values
    if vals.size <= 1:
        return Prediction(
            "peripheral_simple", "single peripheral eigenvalue is simple", True
        )
    diff = np.abs(vals[:, None] - vals[None, :])
    min_gap = float(diff[~np.eye(vals.size, dtype=bool)].min())
    return Prediction(
        "peripheral_simple",
        f"pairwise peripheral gaps at least {_fmt(min_gap)}, floor {_fmt(gap_floor)}",
        min_gap > gap_floor,
    )


class Facts:
    """The structural facts of one matrix, each computed on first use and at
    most once, so that `classify` and the CLI reports share them.

    `graph_c`, `compound_irreducible` and `compound_imprimitivity` are None
    for n = 1, which has no compound; an imprimitivity index is None for a
    reducible matrix, and irreducibility is read from it, so one search in
    each direction decides both.  `transitive_w` needs n >= 2 and both sign
    graphs consistent.  Each limit on C2 is checked once and raises
    ValueError("second compound: ..."): `compound2` checks its minors and
    n <= MAX_COMPOUND_BASE, and the stages that read C2 as a graph check,
    from n and before C2 is built, that C(n,2) <= core.MAX_DIMENSION.
    The arcs of A, and those of C2, are listed once, by one `np.nonzero`
    each, for the sign graph, the pattern index and the Frobenius form.
    """

    def __init__(self, a) -> None:
        self.matrix = as_matrix(a)
        self.n = self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> Spectrum:
        return eigenvalues(self.matrix)

    @cached_property
    def _arcs(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self.matrix)

    @cached_property
    def _compound_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self._compound_as_graph())

    @cached_property
    def graph_a(self) -> SignConstraintGraph:
        return sign_constraint_graph(self.matrix, arcs=self._arcs)

    @cached_property
    def compound(self) -> np.ndarray | None:
        return compound2(self.matrix) if self.n > 1 else None

    def _compound_as_graph(self) -> np.ndarray | None:
        """`compound`, once C(n,2) is known to fit the graph limit."""
        core._check_dimension(pair_count(self.n), "second compound: matrix")
        return self.compound

    @cached_property
    def graph_c(self) -> SignConstraintGraph | None:
        c2 = self._compound_as_graph()
        return None if c2 is None else sign_constraint_graph(c2, arcs=self._compound_arcs)

    @cached_property
    def imprimitivity(self) -> ImprimitivityIndex | None:
        return _pattern_index(self.matrix, self._arcs)

    @cached_property
    def compound_imprimitivity(self) -> ImprimitivityIndex | None:
        c2 = self._compound_as_graph()
        # A 1x1 zero compound is treated as degenerate rather than irreducible
        # so that 2x2 rank-one matrices route by trace instead of through T9.
        if c2 is None or (c2.shape[0] == 1 and c2[0, 0] == 0.0):
            return None
        return _pattern_index(c2, self._compound_arcs)

    @property
    def irreducible(self) -> bool:
        return self.imprimitivity is not None

    @property
    def compound_irreducible(self) -> bool | None:
        return None if self.n == 1 else self.compound_imprimitivity is not None

    @cached_property
    def transitive_w(self) -> tuple[frozenset[int], frozenset[int]] | None:
        """`find_transitive_w` of the two sign graphs; None with no search when
        A has a zero diagonal and a cycle, which leave no W set transitive."""
        if not self.matrix.diagonal().any() and max(self.frobenius.block_sizes) > 1:
            return None
        return find_transitive_w(self.graph_a, self.graph_c)

    @property
    def exists_transitive(self) -> bool:
        """Some candidate W set is transitive: n = 1 has one W set, which is."""
        return self.n == 1 or self.transitive_w is not None

    @cached_property
    def frobenius(self) -> FrobeniusForm:
        """`frobenius_form`; an irreducible matrix is its own single block,
        whose radius `frobenius_form` would take from the same `eigvals`."""
        if not self.irreducible:
            return frobenius_form(self.matrix, arcs=self._arcs)
        n, rho = self.n, self.spectrum.rho
        return FrobeniusForm(
            Permutation.identity(n), (n,), (tuple(range(1, n + 1)),),
            (self.matrix,), (rho,), rho,
        )


class _Tolerances(NamedTuple):
    rel: float
    peripheral: float
    eig: float  # `rel` scaled by max(1, rho), for eigenvalue distances


def _check_tolerances(rel_tol: float, peripheral_tol: float) -> None:
    if not 0.0 < rel_tol < np.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol!r}")
    _check_band(peripheral_tol, "peripheral_tol")


def classify(
    a,
    rel_tol: float = DEFAULT_REL_TOL,
    peripheral_tol: float = DEFAULT_PERIPHERAL_TOL,
) -> Classification:
    """Route a matrix, or its `Facts`, to the first leaf of `_LEAVES` whose
    route holds and verify every prediction of that leaf against the
    computed spectrum.

    `rel_tol` (finite, > 0) scales eigenvalue matching and `peripheral_tol`
    (in (0, 1)) the peripheral modulus band; other values raise ValueError.
    Every fact comes from one `Facts`, the caller's when it passes one.  No
    certificate count limits the input: `Facts.transitive_w` lists no W set.
    """
    _check_tolerances(rel_tol, peripheral_tol)
    facts = a if isinstance(a, Facts) else Facts(a)
    spec = facts.spectrum
    tol = _Tolerances(rel_tol, peripheral_tol, rel_tol * max(1.0, spec.rho))
    leaf = next(leaf for leaf in _LEAVES if leaf.route(facts))
    # After routing: no route reads the group, and a route past the C2 graph
    # limit raises before the group's matching runs.
    peripheral = peripheral_spectrum(spec, peripheral_tol)
    predictions = tuple(leaf.claims(facts, peripheral, tol))
    reported = {
        name: read(facts, tol) if name in leaf.reports else None
        for name, read in _ROUTING_FACTS.items()
    }
    return Classification(
        leaf.label, predictions, all(p.verified for p in predictions),
        leaf.diagnostics(facts, reported), spec, peripheral, facts.irreducible,
        peripheral_count=peripheral.count, rel_tol=rel_tol, peripheral_tol=peripheral_tol,
        **reported,
    )


def _rho_zero(facts: Facts) -> bool:
    return facts.spectrum.rho <= 1e-12 * max(1.0, _frobenius_norm(facts.matrix))


def _attaining(facts: Facts, tol: _Tolerances) -> list[int]:
    """The Frobenius blocks whose spectral radius is within the peripheral band."""
    rho_band = facts.spectrum.rho * (1.0 - tol.peripheral)
    return [t for t, r in enumerate(facts.frobenius.rho_per_block) if r >= rho_band]


# How each routing fact is read.  A leaf reports only facts that its route
# decided or that its claims read; a 1x1 matrix, with no compound, counts as
# having a transitive W set.
_ROUTING_FACTS = {
    "compound_irreducible": lambda f, tol: f.compound_irreducible,
    "exists_transitive": lambda f, tol: f.exists_transitive,
    "h": lambda f, tol: f.imprimitivity.h,
    "h_compound": lambda f, tol: f.compound_imprimitivity.h,
    "rho_multiplicity": lambda f, tol: len(_attaining(f, tol)),
}


def _no_claims(facts, peripheral, tol) -> tuple:
    return ()


def _primitive_claims(facts, peripheral, tol, strict: bool = False) -> list[Prediction]:
    """The claims of T9.1 and T10: rho an eigenvalue, index one, and
    lambda2 real (positive when `strict`, else nonnegative) below rho."""
    spec = facts.spectrum
    return [
        _pred_rho_eigenvalue(spec, tol.eig),
        _pred_index_one(facts.imprimitivity.h, peripheral),
        _pred_second_real(spec, strict),
        _pred_second_below_rho(spec),
    ]


def _t91_claims(facts, peripheral, tol) -> list[Prediction]:
    spec = facts.spectrum
    h_c = facts.compound_imprimitivity.h
    preds = _primitive_claims(facts, peripheral, tol, strict=True)
    r2 = abs(_second_value(spec))
    if r2 == 0.0:
        detail = "second eigenvalue has zero modulus; circle structure undefined"
        ok = False
    elif h_c == 1 and facts.n <= 2:
        detail = "compound index 1 and no third eigenvalue exists"
        ok = True
    elif h_c == 1:
        lam3 = complex(spec.values[2])
        detail = (
            f"compound index 1: |lambda3|={_fmt(abs(lam3))} strictly below"
            f" |lambda2|={_fmt(r2)}"
        )
        ok = abs(lam3) < r2 * STRICT_SEPARATION
    else:
        band = np.abs(np.abs(spec.values) - r2) <= r2 * tol.peripheral
        circle = spec.values[band]
        atol = tol.rel * max(1.0, r2)
        match = match_complex_multisets(circle, _roots_targets(r2, h_c), atol)
        detail = (
            f"{int(circle.size)} eigenvalues on the second circle match the"
            f" {h_c} roots of lambda2^{h_c}: max distance"
            f" {_fmt(match.max_distance)} within {_fmt(atol)}"
        )
        ok = match.ok and int(circle.size) == h_c
    preds.append(Prediction("second_circle_matches_compound_index", detail, ok))
    return preds


def _t92_claims(facts, peripheral, tol) -> tuple[Prediction, ...]:
    h_a = facts.imprimitivity.h
    h_c = facts.compound_imprimitivity.h
    return (
        _pred_rho_eigenvalue(facts.spectrum, tol.eig),
        Prediction(
            "index_equals_three",
            f"imprimitivity indices of matrix ({h_a}) and compound ({h_c}) both 3",
            h_a == 3 and h_c == 3,
        ),
        Prediction(
            "peripheral_count_equals_three",
            f"peripheral count {peripheral.count} equals 3",
            peripheral.count == 3,
        ),
        _pred_peripheral_roots(peripheral, 3, tol.eig),
        _pred_peripheral_simple(peripheral),
    )


def _t10_claims(facts, peripheral, tol) -> list[Prediction]:
    preds = _primitive_claims(facts, peripheral, tol)
    if (np.diag(facts.compound) > 0).any():  # 2x2 principal minors of A
        preds.append(_pred_second_real(facts.spectrum, strict=True))
    return preds


def _t82_claims(facts, peripheral, tol) -> tuple[Prediction, ...]:
    h_a = facts.imprimitivity.h
    k = peripheral.count
    return (
        _pred_rho_eigenvalue(facts.spectrum, tol.eig),
        Prediction("peripheral_count_odd", f"peripheral count {k} is odd", k % 2 == 1),
        Prediction(
            "peripheral_count_equals_index",
            f"peripheral count {k} equals the imprimitivity index {h_a}",
            k == h_a,
        ),
        _pred_peripheral_roots(peripheral, h_a, tol.eig),
        _pred_peripheral_simple(peripheral),
    )


def _t11_claims(facts, peripheral, tol) -> list[Prediction]:
    spec = facts.spectrum
    form = facts.frobenius
    attaining = _attaining(facts, tol)
    group_indices = [imprimitivity_index(form.blocks[t]).h for t in attaining]
    rho_close = int(np.sum(np.abs(spec.values - spec.rho) <= tol.eig))
    targets = np.concatenate(
        [_roots_targets(form.rho_per_block[t], k) for t, k in zip(attaining, group_indices)]
    ) if attaining else np.zeros(0, dtype=complex)
    match = match_complex_multisets(peripheral.values, targets, tol.eig)
    return [
        _pred_rho_eigenvalue(spec, tol.eig),
        Prediction(
            "rho_multiplicity_matches_blocks",
            f"rho appears {rho_close} times in the spectrum, matching"
            f" {len(attaining)} spectral-radius-attaining blocks",
            rho_close == len(attaining),
        ),
        Prediction(
            "peripheral_groups_odd",
            f"group sizes {group_indices} are all odd",
            all(k % 2 == 1 for k in group_indices),
        ),
        Prediction(
            "peripheral_group_accounting",
            f"peripheral count {peripheral.count} equals the group-size sum"
            f" {sum(group_indices)}",
            peripheral.count == sum(group_indices),
        ),
        Prediction(
            "peripheral_groups_match_roots",
            f"peripheral spectrum matches the union of per-block root groups:"
            f" max distance {_fmt(match.max_distance)} within {_fmt(tol.eig)}",
            match.ok,
        ),
    ]


class _Leaf(NamedTuple):
    label: str
    route: Callable[[Facts], bool]  # tested only when no earlier route held
    diagnostics: Callable[[Facts, dict], str]  # of the facts and the reported ones
    claims: Callable[[Facts, PeripheralGroup, _Tolerances], Sequence[Prediction]]
    reports: tuple[str, ...]  # keys of _ROUTING_FACTS; the others are None


_ZERO_TEXT = "spectral radius is zero; peripheral structure is degenerate"
_BOTH_IRREDUCIBLE = "matrix and second compound both irreducible and sign-symmetric;"

# The decision tree, one row per leaf, in the order of the README's leaf table.
_LEAVES = (
    _Leaf("NONE", lambda f: not f.graph_a.consistent,
          lambda f, r: f"matrix is not sign-symmetric: odd constraint cycle {f.graph_a.odd_cycle}",
          _no_claims, ()),
    _Leaf("NONE", lambda f: f.n == 1 and _rho_zero(f), lambda f, r: _ZERO_TEXT, _no_claims, ()),
    _Leaf("T10", lambda f: f.n == 1,
          lambda f, r: "1x1 matrix with positive entry; second-eigenvalue claims are vacuous",
          lambda f, p, tol: (_pred_rho_eigenvalue(f.spectrum, tol.eig), _pred_index_one(1, p)),
          ("exists_transitive", "h")),
    _Leaf("NONE", lambda f: not f.graph_c.consistent,
          lambda f, r: "second compound is not sign-symmetric: odd constraint cycle"
          f" {f.graph_c.odd_cycle}",
          _no_claims, ()),
    _Leaf("NONE", _rho_zero, lambda f, r: _ZERO_TEXT, _no_claims, ("compound_irreducible",)),
    _Leaf("T11", lambda f: not f.irreducible,
          lambda f, r: f"matrix reducible with {len(f.frobenius.block_sizes)} diagonal blocks,"
          f" {r['rho_multiplicity']} attaining the spectral radius",
          _t11_claims, ("compound_irreducible", "rho_multiplicity")),
    _Leaf("T9.1", lambda f: f.compound_irreducible and f.transitive_w is not None,
          lambda f, r: f"{_BOTH_IRREDUCIBLE} a transitive candidate W set exists",
          _t91_claims, ("compound_irreducible", "exists_transitive", "h", "h_compound")),
    _Leaf("T9.2", lambda f: f.compound_irreducible,
          lambda f, r: f"{_BOTH_IRREDUCIBLE} no transitive candidate W set",
          _t92_claims, ("compound_irreducible", "exists_transitive", "h", "h_compound")),
    _Leaf("T10", lambda f: float(np.trace(f.matrix)) > 0.0,
          lambda f, r: "matrix irreducible and sign-symmetric with sign-symmetric compound"
          " and positive trace",
          _t10_claims, ("compound_irreducible", "h")),
    _Leaf("T8.2", lambda f: True,
          lambda f, r: "matrix irreducible, compound sign-symmetric but reducible, zero trace;"
          " no transitive candidate W set",
          _t82_claims, ("compound_irreducible", "exists_transitive", "h")),
)


def counterexample_bundle(a, classification: Classification) -> dict:
    """Everything needed to reproduce a failed prediction: the matrix, the
    tolerances and library versions to replay it with, the routing facts,
    the spectrum, and each claim with its outcome."""
    m = as_matrix(a)
    return {
        "matrix": [[float(v) for v in row] for row in m],
        "tolerances": {
            "rel_tol": classification.rel_tol,
            "peripheral_tol": classification.peripheral_tol,
        },
        "versions": {
            "signspectra": __version__,
            "numpy": np.__version__,
        },
        "theorem": classification.theorem,
        "verified": classification.verified,
        "diagnostics": classification.diagnostics,
        "facts": classification.routing_facts(),
        "rho": float(classification.spectrum.rho),
        "eigenvalues": [
            {"re": float(z.real), "im": float(z.imag)}
            for z in classification.spectrum.values
        ],
        "predictions": [
            {"claim": p.claim, "detail": p.detail, "verified": p.verified}
            for p in classification.predictions
        ],
    }
