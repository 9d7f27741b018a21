"""Second compound matrices, W-matrices, and the eigenvalue product law.

The second compound A^(2) collects all 2x2 minors of A on the C(n,2) index
pairs.  Its eigenvalues are exactly the pairwise products of eigenvalues
of A, and the same law holds for every W-matrix, whichever orientation of
the index pairs is chosen.  `verify_eigenvalue_products` certifies it with a
backward-error residual from one Schur form of A, which it takes from
numpy's eig and QR alone, deflating where eig's eigenvectors are nearly
parallel.
"""

import numpy as np

from signspectra.exterior import compound2, verify_eigenvalue_products, w_matrix
from signspectra.signsym import sign_constraint_graph
from signspectra.wsets import (
    build_w_hat,
    canonical_m,
    enumerate_w_candidates,
    find_transitive_w,
)

rng = np.random.default_rng(7)
a = rng.integers(-3, 4, size=(4, 4)).astype(float)
print("A =")
print(a)

c = compound2(a)
print("\nA^(2) is", c.shape, "on pairs (1,2),(1,3),(1,4),(2,3),(2,4),(3,4)")
print(c)

check = verify_eigenvalue_products(a)
print("\neig(A^(2)) equals all products lambda_i * lambda_j:", check.ok)
print("certificate residual:", f"{check.residual:.2e}", "within", f"{check.tol:.2e}")

# The canonical orientation keeps the upper position of every pair; any
# other valid orientation gives a different matrix with the same spectrum.
m = canonical_m(4)
w = w_matrix(a, m)
print("\ncanonical W-matrix equals the compound:", np.array_equal(w.entries, c))

flipped = build_w_hat(frozenset(), frozenset({1, 3}), 4)
wf = w_matrix(a, flipped)
print("flipped orientation still satisfies the product law:",
      verify_eigenvalue_products(a, flipped).ok)
print("but differs entrywise from the compound:", not np.array_equal(wf.entries, c))

# For a nonnegative cycle the candidate W-matrices form a small family and
# none of them is transitive.
cycle = np.zeros((5, 5))
for i in range(5):
    cycle[i, (i + 1) % 5] = 1.0
enum = enumerate_w_candidates(cycle)
print("\n5-cycle: unique W candidates =", len(enum.candidates),
      "| transitive exists =", any(c.transitive for c in enum.candidates))

# find_transitive_w answers the same question without listing candidates,
# so a 41-cycle with 2^21 certificate pairs is decided at once.
big = np.roll(np.eye(41), 1, axis=1)
graphs = sign_constraint_graph(big), sign_constraint_graph(compound2(big))
print("41-cycle: transitive exists =", find_transitive_w(*graphs) is not None)
