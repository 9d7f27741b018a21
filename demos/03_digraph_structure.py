"""Digraph structure: irreducibility, block triangular form, imprimitivity.

Reducible matrices split into irreducible diagonal blocks under a
permutation similarity; irreducible ones carry a cyclic class structure
whose length is the index of imprimitivity.
"""

import numpy as np

from signspectra.digraph import (
    frobenius_form,
    imprimitivity_index,
    is_irreducible,
)
from signspectra.gen import cyclic_h
from signspectra.spectral import match_complex_multisets

a = np.array(
    [
        [1.0, 0.0, 2.0, 0.0],
        [3.0, 0.0, 0.0, 1.0],
        [4.0, 0.0, 1.0, 0.0],
        [0.0, 2.0, 1.0, 0.0],
    ]
)
print("A irreducible:", is_irreducible(a))

form = frobenius_form(a)
print("diagonal blocks (1-based original indices):", form.block_indices)
b = form.apply(a)
print("permuted to block lower triangular:")
print(b)

blocks = []
pos = 0
for idx in form.block_indices:
    k = len(idx)
    blocks.append(b[pos : pos + k, pos : pos + k])
    pos += k
union = np.concatenate([np.linalg.eigvals(blk) for blk in blocks])
full = np.linalg.eigvals(a)
print("spectrum equals the union of block spectra:",
      match_complex_multisets(full, union, tol=1e-9).ok)

# An irreducible matrix with cyclic structure: all cycle lengths share the
# index h as a divisor, and every arc moves one cyclic class forward.
c = cyclic_h(9, 3, seed=1)
print("\ncyclic example: irreducible =", is_irreducible(c))
idx = imprimitivity_index(c)
print("index of imprimitivity h =", idx.h)
print("cyclic classes:", idx.cyclic_classes)

vals = np.linalg.eigvals(c)
rotated = vals * np.exp(2j * np.pi / idx.h)
print("spectrum invariant under rotation by 2*pi/h:",
      match_complex_multisets(vals, rotated, tol=1e-8).ok)
