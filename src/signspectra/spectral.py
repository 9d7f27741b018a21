"""Peripheral spectrum classification for sign-symmetric matrices.

`classify` routes a matrix through a decision tree on four structural facts:
sign-symmetry of the matrix and of its second compound, irreducibility of
both, the sign of the trace, and the existence of a transitive candidate W
set.  Each leaf carries a set of predictions about the peripheral spectrum
(the eigenvalues of largest modulus), every one of which is then verified
against the numerically computed spectrum.  A classification whose
predictions all check out is `verified`; a failure is reported per claim so
the caller can assemble a counterexample bundle.

Leaf labels:

  T9.1  matrix and compound irreducible, a transitive candidate exists:
        simple positive dominant eigenvalue, second eigenvalue real positive,
        second-modulus circle sized by the compound's imprimitivity index.
  T9.2  matrix and compound irreducible, no transitive candidate: exactly
        three peripheral eigenvalues, the cube roots of rho^3.
  T10   matrix irreducible with positive trace: index one, second eigenvalue
        real nonnegative (positive if some 2x2 principal minor is positive).
  T8.1  matrix irreducible, compound reducible, zero trace, transitive
        candidate exists: index one, second eigenvalue real nonnegative.
  T8.2  matrix irreducible, compound reducible, zero trace, no transitive
        candidate: the peripheral spectrum is the k-th roots of rho^k for an
        odd k equal to the imprimitivity index.
  T11   matrix reducible: the peripheral spectrum splits into one odd group
        of roots per spectral-radius-attaining diagonal block.
  NONE  structure absent (not sign-symmetric at some level) or degenerate
        (zero spectral radius); nothing is predicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy
from scipy.optimize import linear_sum_assignment

from . import __version__
from .core import as_matrix
from .digraph import (
    FrobeniusForm,
    ImprimitivityIndex,
    ReducibleInputError,
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
    "SecondEigenvalueReport",
    "second_eigenvalue_claims",
    "counterexample_bundle",
]

DEFAULT_REL_TOL = 1e-6
DEFAULT_PERIPHERAL_TOL = 1e-6

# Fixed internal tolerances: absolute slack for "real"/"nonnegative" claims
# scales by 1e-8, strict separations by a factor (1 - 1e-8), and simplicity
# of peripheral eigenvalues demands pairwise gaps above rho * 1e-4.
REAL_PART_REL_TOL = 1e-8
STRICT_SEPARATION = 1.0 - 1e-8
SIMPLICITY_GAP_REL = 1e-4


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in canonical order: modulus descending, then argument
    ascending in [0, 2*pi).  `backward_error_bound` is the crude dense
    eigensolver scale n * eps * ||A||_F."""

    values: np.ndarray
    rho: float
    backward_error_bound: float


def eigenvalues(a) -> Spectrum:
    """Full spectrum via the dense nonsymmetric eigensolver."""
    m = as_matrix(a)
    vals = np.linalg.eigvals(m)
    mods = np.abs(vals)
    args = np.mod(np.angle(vals), 2.0 * np.pi)
    order = np.lexsort((args, -mods))
    vals = vals[order]
    vals.setflags(write=False)
    bound = m.shape[0] * np.finfo(float).eps * _frobenius_norm(m)
    return Spectrum(vals, float(mods.max()), bound)


def _frobenius_norm(m: np.ndarray) -> float:
    """||m||_F scaled by the largest entry, so that squares cannot overflow."""
    s = float(np.abs(m).max())
    return s * float(np.linalg.norm(m / s)) if s > 0.0 else 0.0


@dataclass(frozen=True)
class MatchResult:
    ok: bool
    max_distance: float


def match_complex_multisets(a, b, tol: float) -> MatchResult:
    """Optimal pairing of two complex multisets; ok when every matched pair
    is within `tol` and the sizes agree."""
    av = np.asarray(a, dtype=complex).ravel()
    bv = np.asarray(b, dtype=complex).ravel()
    if av.size != bv.size:
        return MatchResult(False, float("inf"))
    if av.size == 0:
        return MatchResult(True, 0.0)
    cost = np.abs(av[:, None] - bv[None, :])
    rows, cols = linear_sum_assignment(cost)
    max_distance = float(cost[rows, cols].max())
    return MatchResult(max_distance <= tol, max_distance)


@dataclass(frozen=True)
class PeripheralGroup:
    """Eigenvalues within `rel_tol` (relatively) of the largest modulus.

    `roots_of` is (k, rho**k) when the group is exactly the k-th roots of
    rho^k within tolerance, else None.  A zero spectral radius gives an
    empty degenerate group.
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


def peripheral_spectrum(a, rel_tol: float = DEFAULT_PERIPHERAL_TOL) -> PeripheralGroup:
    """Extract the peripheral eigenvalue group of a matrix or a Spectrum."""
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
        roots = (k, rho**k)
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


def _has_positive_principal_minor2(m: np.ndarray) -> bool:
    d = np.diag(m)
    grid = d[:, None] * d[None, :] - m * m.T
    iu = np.triu_indices(m.shape[0], k=1)
    return bool((grid[iu] > 0).any())


def _index_or_none(m: np.ndarray) -> ImprimitivityIndex | None:
    """The imprimitivity index of `m`, None when `m` is reducible."""
    try:
        return imprimitivity_index(m)
    except ReducibleInputError:
        return None


def _of_compound(stage, c2: np.ndarray):
    """`stage(c2)`, with a rejection of C2 by `as_matrix` named as such."""
    try:
        return stage(c2)
    except ValueError as exc:
        raise ValueError(f"second compound: {exc}") from exc


class Facts:
    """The structural facts of one matrix, each computed on first use and at
    most once, so that `classify` and the CLI reports share them.

    `graph_c`, `compound_irreducible` and `compound_imprimitivity` are None
    for n = 1, which has no compound; an imprimitivity index is None for a
    reducible matrix, and irreducibility is read from it, so one search in
    each direction decides both.  `transitive_w` needs n >= 2 and both sign
    graphs consistent.  `compound` is not validated; the stages that read it
    as a matrix raise ValueError("second compound: ...") when it is invalid.
    """

    def __init__(self, a) -> None:
        self.matrix = as_matrix(a)
        self.n = self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> Spectrum:
        return eigenvalues(self.matrix)

    @cached_property
    def graph_a(self) -> SignConstraintGraph:
        return sign_constraint_graph(self.matrix)

    @cached_property
    def compound(self) -> np.ndarray | None:
        return compound2(self.matrix) if self.n > 1 else None

    @cached_property
    def graph_c(self) -> SignConstraintGraph | None:
        c2 = self.compound
        return None if c2 is None else _of_compound(sign_constraint_graph, c2)

    @cached_property
    def imprimitivity(self) -> ImprimitivityIndex | None:
        return _index_or_none(self.matrix)

    @cached_property
    def compound_imprimitivity(self) -> ImprimitivityIndex | None:
        c2 = self.compound
        # A 1x1 zero compound is treated as degenerate rather than irreducible
        # so that 2x2 rank-one matrices route by trace instead of through T9.
        if c2 is None or (c2.shape[0] == 1 and c2[0, 0] == 0.0):
            return None
        return _of_compound(_index_or_none, c2)

    @property
    def irreducible(self) -> bool:
        return self.imprimitivity is not None

    @property
    def compound_irreducible(self) -> bool | None:
        return None if self.compound is None else self.compound_imprimitivity is not None

    @cached_property
    def transitive_w(self) -> tuple[frozenset[int], frozenset[int]] | None:
        """`find_transitive_w` of the two sign graphs."""
        return find_transitive_w(self.graph_a, self.graph_c)

    @cached_property
    def frobenius(self) -> FrobeniusForm:
        return frobenius_form(self.matrix)


class _Tolerances(NamedTuple):
    rel: float
    peripheral: float
    eig: float  # `rel` scaled by max(1, rho), for eigenvalue distances


def _classification(
    facts: Facts, peripheral: PeripheralGroup, tol: _Tolerances,
    theorem: str, predictions, diagnostics: str, *,
    compound_irreducible: bool | None = None,
    exists_transitive: bool | None = None,
    h: int | None = None,
    h_compound: int | None = None,
    rho_multiplicity: int | None = None,
) -> Classification:
    """The fields every leaf shares; `irreducible` is read from the facts."""
    predictions = tuple(predictions)
    return Classification(
        theorem, predictions, all(p.verified for p in predictions), diagnostics,
        facts.spectrum, peripheral, facts.irreducible, compound_irreducible,
        exists_transitive, h, h_compound, peripheral.count, rho_multiplicity,
        tol.rel, tol.peripheral,
    )


def classify(
    a,
    rel_tol: float = DEFAULT_REL_TOL,
    peripheral_tol: float = DEFAULT_PERIPHERAL_TOL,
) -> Classification:
    """Route a matrix, or its `Facts`, through the structural decision tree
    and verify every prediction of the selected leaf against the computed
    spectrum.

    `rel_tol` scales eigenvalue matching and `peripheral_tol` the modulus
    band that delimits the peripheral group.  Every fact comes from one
    `Facts`, shared with the caller when it passes one.  Whether a
    transitive candidate W set exists is decided by `find_transitive_w`,
    which lists no candidates, so no certificate count limits the input.
    """
    facts = a if isinstance(a, Facts) else Facts(a)
    spec = facts.spectrum
    peripheral = peripheral_spectrum(spec, peripheral_tol)
    tol = _Tolerances(rel_tol, peripheral_tol, rel_tol * max(1.0, spec.rho))

    if not facts.graph_a.consistent:
        return _classification(
            facts, peripheral, tol, "NONE", (),
            "matrix is not sign-symmetric: odd constraint cycle"
            f" {facts.graph_a.odd_cycle}",
        )

    rho_zero = spec.rho <= 1e-12 * max(1.0, _frobenius_norm(facts.matrix))
    zero_text = "spectral radius is zero; peripheral structure is degenerate"

    if facts.n == 1:
        if rho_zero:
            return _classification(facts, peripheral, tol, "NONE", (), zero_text)
        return _classification(
            facts, peripheral, tol, "T10",
            (_pred_rho_eigenvalue(spec, tol.eig), _pred_index_one(1, peripheral)),
            "1x1 matrix with positive entry; second-eigenvalue claims are vacuous",
            exists_transitive=True, h=1,
        )

    if not facts.graph_c.consistent:
        return _classification(
            facts, peripheral, tol, "NONE", (),
            "second compound is not sign-symmetric: odd constraint cycle"
            f" {facts.graph_c.odd_cycle}",
        )
    if rho_zero:
        return _classification(
            facts, peripheral, tol, "NONE", (), zero_text,
            compound_irreducible=facts.compound_irreducible,
        )

    if not facts.irreducible:
        return _classify_reducible(facts, peripheral, tol)
    if facts.compound_irreducible:
        if facts.transitive_w is not None:
            return _classify_t91(facts, peripheral, tol)
        return _classify_t92(facts, peripheral, tol)
    if float(np.trace(facts.matrix)) > 0.0:
        return _classify_t10_t81(facts, peripheral, tol, "T10")
    if facts.transitive_w is not None:
        return _classify_t10_t81(facts, peripheral, tol, "T8.1")
    return _classify_t82(facts, peripheral, tol)


def _classify_t91(facts, peripheral, tol):
    spec = facts.spectrum
    h_a = facts.imprimitivity.h
    h_c = facts.compound_imprimitivity.h
    preds = [
        _pred_rho_eigenvalue(spec, tol.eig),
        _pred_index_one(h_a, peripheral),
        _pred_second_real(spec, strict=True),
        _pred_second_below_rho(spec),
    ]
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
    return _classification(
        facts, peripheral, tol, "T9.1", preds,
        "matrix and second compound both irreducible and sign-symmetric;"
        " a transitive candidate W set exists",
        compound_irreducible=True, exists_transitive=True, h=h_a, h_compound=h_c,
    )


def _classify_t92(facts, peripheral, tol):
    h_a = facts.imprimitivity.h
    h_c = facts.compound_imprimitivity.h
    preds = (
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
    return _classification(
        facts, peripheral, tol, "T9.2", preds,
        "matrix and second compound both irreducible and sign-symmetric;"
        " no transitive candidate W set",
        compound_irreducible=True, exists_transitive=False, h=h_a, h_compound=h_c,
    )


def _classify_t10_t81(facts, peripheral, tol, label):
    spec = facts.spectrum
    h_a = facts.imprimitivity.h
    preds = [
        _pred_rho_eigenvalue(spec, tol.eig),
        _pred_index_one(h_a, peripheral),
        _pred_second_real(spec, strict=False),
        _pred_second_below_rho(spec),
    ]
    if label == "T10":
        if _has_positive_principal_minor2(facts.matrix):
            preds.append(_pred_second_real(spec, strict=True))
        diag = (
            "matrix irreducible and sign-symmetric with sign-symmetric compound"
            " and positive trace"
        )
    else:
        diag = (
            "matrix irreducible, compound sign-symmetric but reducible, zero"
            " trace; a transitive candidate W set exists"
        )
    return _classification(
        facts, peripheral, tol, label, preds, diag,
        compound_irreducible=False,
        exists_transitive=True if label == "T8.1" else None,
        h=h_a,
    )


def _classify_t82(facts, peripheral, tol):
    h_a = facts.imprimitivity.h
    k = peripheral.count
    preds = (
        _pred_rho_eigenvalue(facts.spectrum, tol.eig),
        Prediction(
            "peripheral_count_odd",
            f"peripheral count {k} is odd",
            k % 2 == 1,
        ),
        Prediction(
            "peripheral_count_equals_index",
            f"peripheral count {k} equals the imprimitivity index {h_a}",
            k == h_a,
        ),
        _pred_peripheral_roots(peripheral, h_a, tol.eig),
        _pred_peripheral_simple(peripheral),
    )
    return _classification(
        facts, peripheral, tol, "T8.2", preds,
        "matrix irreducible, compound sign-symmetric but reducible, zero trace;"
        " no transitive candidate W set",
        compound_irreducible=False, exists_transitive=False, h=h_a,
    )


def _classify_reducible(facts, peripheral, tol):
    spec = facts.spectrum
    rho = spec.rho
    form = facts.frobenius
    attaining = [
        t for t, r in enumerate(form.rho_per_block)
        if r >= rho * (1.0 - tol.peripheral)
    ]
    mult = len(attaining)
    group_indices = [
        imprimitivity_index(form.blocks[t]).h for t in attaining
    ]

    rho_close = int(np.sum(np.abs(spec.values - rho) <= tol.eig))
    preds = [
        _pred_rho_eigenvalue(spec, tol.eig),
        Prediction(
            "rho_multiplicity_matches_blocks",
            f"rho appears {rho_close} times in the spectrum, matching"
            f" {mult} spectral-radius-attaining blocks",
            rho_close == mult,
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
    ]
    targets = np.concatenate(
        [
            _roots_targets(form.rho_per_block[t], k)
            for t, k in zip(attaining, group_indices)
        ]
    ) if attaining else np.zeros(0, dtype=complex)
    match = match_complex_multisets(peripheral.values, targets, tol.eig)
    preds.append(
        Prediction(
            "peripheral_groups_match_roots",
            f"peripheral spectrum matches the union of per-block root groups:"
            f" max distance {_fmt(match.max_distance)} within {_fmt(tol.eig)}",
            match.ok,
        )
    )
    return _classification(
        facts, peripheral, tol, "T11", preds,
        f"matrix reducible with {len(form.block_sizes)} diagonal blocks,"
        f" {mult} attaining the spectral radius",
        compound_irreducible=facts.compound_irreducible, rho_multiplicity=mult,
    )


@dataclass(frozen=True)
class SecondEigenvalueReport:
    """Second-eigenvalue checks for the leaves that make such claims
    (T8.1, T9.1, T10); `applicable` is False elsewhere."""

    applicable: bool
    theorem: str
    checks: tuple[Prediction, ...]
    passed: bool


def second_eigenvalue_claims(
    a, classification: Classification | None = None
) -> SecondEigenvalueReport:
    """Extract and evaluate the second-eigenvalue claims of a classification.

    Classifies `a` first when no classification is supplied.
    """
    c = classification if classification is not None else classify(a)
    if c.theorem not in ("T8.1", "T9.1", "T10"):
        return SecondEigenvalueReport(False, c.theorem, (), True)
    checks = tuple(p for p in c.predictions if p.claim.startswith("second_"))
    return SecondEigenvalueReport(
        True, c.theorem, checks, all(p.verified for p in checks)
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
            "scipy": scipy.__version__,
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
