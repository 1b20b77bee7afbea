"""
Scanning every family at once with the bitset lattice
=====================================================

Checking a bound family-by-family is fine for spot checks, but the numpy
route folds *all* subset choices simultaneously: one uint bitmask per
subset-tuple cell, OR-composed along the axes, reduced to the minimum
cardinality per size profile.  A bound then only needs comparing against
one number per profile.  This script folds GF(7), scans two bounds for
tight profiles, and finishes with the model that shows the equal-size
bound cannot be improved.
"""

import random

from restrictedsums import (
    ExtendedNat,
    MultiplicityProfile,
    check_lattice_bounds,
    derive_seed,
    equal_size_bound,
    family_cardinality_fast,
    lattice_min_cardinality,
    multiplicity_value_set,
    prime_field,
    random_tail,
    roots_model_cardinality,
)
from restrictedsums.bounds import BOUNDS

p, k = 7, 2
char = ExtendedNat(p)
rng = random.Random(derive_seed("tightness-demo"))
tail = random_tail(rng, 2, k)
print(f"folding GF({p}), n = 2, k = {k}, tail {tail}")

# min_card[s1, s2] = the smallest value-set cardinality over every choice
# of A1, A2 with |A1| = s1, |A2| = s2 (injective tuples, unit leading).
min_card = lattice_min_cardinality(p, k, (1, 1), tail)
print(f"minimum cardinality per size profile:\n{min_card[1:, 1:]}")


# The registry answers None where a hypothesis fails, here the size
# staircase |A_i| >= i of the residue-class bound.
field = prime_field(p)
checked, violations, tight = check_lattice_bounds(
    min_card, p, lambda sizes: BOUNDS["thm12"].for_sizes(sizes, k, (1, 1), field)
)
print(f"\nresidue-class bound: {checked} profiles, {len(violations)} violations")
print(f"tight profiles (bound met exactly by some family): {[t[0] for t in tight]}")
assert not violations

# Equal sizes, same lattice: read the diagonal.
print("\nequal-size bound along the diagonal:")
for m in range(2, p + 1):
    bound = equal_size_bound(m, 2, k, char).value
    actual = int(min_card[m, m])
    marker = "  <- tight" if actual == bound else ""
    print(f"  m = {m}: bound {bound}, minimum {actual}{marker}")
    assert actual >= bound

# The lattice aggregates; the per-family route pins down one witness.
# Find a family realizing the minimum at profile (3, 3).
target = int(min_card[3, 3])
from itertools import combinations

witness = None
for a1 in combinations(range(p), 3):
    for a2 in combinations(range(p), 3):
        if family_cardinality_fast(p, [a1, a2], k, None, tail) == target:
            witness = (a1, a2)
            break
    if witness:
        break
print(f"\nprofile (3, 3): minimum {target}, realized by {witness}")

# Why the equal-size bound is unimprovable: pick the set of all k-th roots
# of 1..q (plus r extra roots of q+1) in a large enough field.  Distinct
# choices of n roots give weighted sums, and counting those sums exactly
# reproduces the bound.  The integer multiplicity model below *is* that
# count, no field needed.
print("\nsharpness model vs bound (k = 3, q = 2, r = 1, so |A| = 7):")
for n in range(1, 8):
    model = multiplicity_value_set(MultiplicityProfile(k=3, q=2, r=1, n=n))
    formula = roots_model_cardinality(n, 3, 2, 1).value
    print(f"  n = {n}: model {model.cardinality}, formula {formula}")
    assert model.cardinality == formula
print("the model meets the equal-size floor, so no larger constant works")
