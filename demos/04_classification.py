"""Peripheral spectrum classification with numeric verification.

`classify` routes a matrix through the structural facts (sign symmetry of
the matrix and of its second compound, irreducibility on both levels,
transitive candidate orientations, diagonal sign data) to a theorem label,
derives the label's predictions about the largest-modulus eigenvalues, and
then checks every prediction against a computed spectrum.
"""

import json

import numpy as np

from signspectra.gen import reducible_blocks, scrambled, tp2
from signspectra.spectral import classify, counterexample_bundle


def show(title, c):
    print(f"\n{title}")
    print(f"  theorem {c.theorem} | verified {c.verified} | "
          f"peripheral count {c.peripheral_count}")
    for p in c.predictions:
        print(f"  [{'ok' if p.verified else 'XX'}] {p.claim}")


# A weighted 5-cycle: reducible compound, zero trace, no transitive
# candidate.  Prediction: an odd number of simple peripheral eigenvalues
# forming the full set of k-th roots of rho^k.
cycle = np.zeros((5, 5))
for i in range(5):
    cycle[i, (i + 1) % 5] = float(i + 1)
show("weighted 5-cycle", classify(cycle))

# A doubly positive matrix (all entries and all 2x2 minors positive):
# irreducible compound with a transitive orientation.  Prediction: the two
# largest eigenvalues are positive and simple.
show("doubly positive 4x4", classify(tp2(4, seed=3)))

# Sign scrambling changes nothing structural: the verdict is identical.
hidden = scrambled(tp2(4, seed=3), seed=11)
same = classify(hidden).verdict() == classify(tp2(4, seed=3)).verdict()
print("\nscrambled copy reaches the same verdict:", same)

# Block diagonal composition with two blocks tied at the spectral radius:
# the peripheral spectrum splits into one odd root group per leading block.
a = reducible_blocks(
    [np.eye(3, k=1) + np.eye(3, k=-2), np.eye(5, k=1) + np.eye(5, k=-4)],
    rho_targets=[1.0, 1.0],
)
show("3-cycle and 5-cycle, both at rho = 1", classify(a))

# A tolerance far below rounding error shows the failure path: the report
# lists which predictions broke, and the bundle captures everything needed
# to reproduce the contradiction.
broken = classify(cycle, rel_tol=1e-30)
print("\nwith rel_tol = 1e-30 the eigenvalue checks fail; verified =", broken.verified)
bundle = counterexample_bundle(cycle, broken)
print("bundle keys:", sorted(bundle.keys()))
print(json.dumps(bundle["predictions"], indent=2)[:300], "...")
