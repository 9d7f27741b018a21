"""Sign-symmetric structure detection and peripheral spectrum classification.

The package analyzes real square matrices that become entrywise nonnegative
under a +-1 diagonal similarity, together with their second compounds, and
classifies the peripheral spectrum that this structure forces.  Submodules:

  core      matrix validation, pair indexing, 2x2 minors, permutations
  exterior  second compound and W-set minor matrices
  signsym   sign-symmetry certificates (detection and enumeration)
  digraph   irreducibility, block triangular form, imprimitivity index
  wsets     pair orientations, transitivity, candidate construction
  spectral  eigenvalues, peripheral groups, the classification tree
  gen       seeded matrix generators
  cli       command line interface

Submodules load lazily so that the command line tool can pin BLAS thread
pools before numpy is first imported.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "core",
    "exterior",
    "signsym",
    "digraph",
    "wsets",
    "spectral",
    "gen",
    "cli",
)

_EXPORTS = {
    "MAX_DIMENSION": "core",
    "as_matrix": "core",
    "pair_count": "core",
    "pair_index": "core",
    "pair_unindex": "core",
    "minor2": "core",
    "PairIndexer": "core",
    "Permutation": "core",
    "compound2": "exterior",
    "WMatrix": "exterior",
    "w_matrix": "exterior",
    "exterior_product": "exterior",
    "verify_eigenvalue_products": "exterior",
    "JCertificate": "signsym",
    "NotSignSymmetric": "signsym",
    "NotSignSymmetricError": "signsym",
    "TooManyCertificatesError": "signsym",
    "detect": "signsym",
    "enumerate_j_sets": "signsym",
    "enumerate_certificates": "signsym",
    "verify_certificate": "signsym",
    "principal_submatrix_certificate": "signsym",
    "trace_bound": "signsym",
    "ReducibleInputError": "digraph",
    "is_irreducible": "digraph",
    "irreducibility_path": "digraph",
    "FrobeniusForm": "digraph",
    "frobenius_form": "digraph",
    "ImprimitivityIndex": "digraph",
    "imprimitivity_index": "digraph",
    "is_primitive": "digraph",
    "WSet": "wsets",
    "canonical_m": "wsets",
    "is_transitive": "wsets",
    "build_w_hat": "wsets",
    "enumerate_w_candidates": "wsets",
    "find_transitive_w": "wsets",
    "Spectrum": "spectral",
    "eigenvalues": "spectral",
    "peripheral_spectrum": "spectral",
    "Classification": "spectral",
    "classify": "spectral",
    "second_eigenvalue_claims": "spectral",
    "counterexample_bundle": "spectral",
    "GenSpec": "gen",
    "generate": "gen",
}

__all__ = ["__version__", *_SUBMODULES, *sorted(_EXPORTS)]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
