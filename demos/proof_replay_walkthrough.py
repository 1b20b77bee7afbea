"""
Replaying the constructive argument, one step at a time
=======================================================

The residue-class bound is proved by shrinking the sets to exact sizes,
expanding a contradiction polynomial, and reading one nonzero coefficient
off a closed form.  `proof_replay` re-runs that construction on a concrete
family and hands back every intermediate object so each step can be
inspected.  This script narrates one replay over GF(11) and one over the
rationals, then expands the full certificate on a case small enough to
print.
"""

import json

from restrictedsums import (
    SetFamily,
    floor_minima,
    prime_field,
    proof_replay,
    rational_field,
)

# Three sets of size 5 over GF(11), squares.
F = prime_field(11)
family = SetFamily.from_elements(F, [[0, 1, 2, 3, 4]] * 3)
k = 2
print(f"family over {F}: sizes {family.sizes}, k = {k}")

replay = proof_replay(family, k)

# Step 1: the q-vector.  Each entry is a floor minimum over the positions
# in its residue class, and the bound itself is 1 + sum(q) clamped at the
# characteristic.
print(f"\nq-vector          : {replay.q} (= {floor_minima(family.sizes, k)})")
print(f"N = min(p, sum+1) : {replay.N}")

# Step 2: shrink.  Sizes drop to k*q_i + i (with a split entry when the
# characteristic truncates; split_index 0 means no truncation happened).
print(f"split index       : {replay.split_index}")
print(f"shrunk sizes      : {replay.shrunk_family.sizes}")
print(f"adjusted q'       : {replay.q_prime}")

# Step 3: the coefficient.  h = (N-1)!/D is computed from the literal
# denominator product, then cross-checked against the closed form, then
# embedded in the field where it must survive.
print(f"h                 : {replay.h}")
print(f"h in {F}       : {replay.h_element.value}")
assert not replay.h_element.is_zero

# Step 4: enumeration of the shrunk family.  The value count must reach N,
# and the witness is an injective tuple whose value avoids the first N - 1
# values, exactly the tuple the contradiction argument says must exist.
print(f"values found      : {replay.value_count} (needs >= {replay.N})")
print(f"witness           : {replay.witness}")
assert replay.value_count >= replay.N
assert replay.witness is not None

# The same family transplanted to characteristic zero: nothing clamps, so
# N is the full 1 + sum(q), and h is an exact rational integer.
Q = rational_field()
qfam = SetFamily.from_elements(Q, [[0, 1, 2, 3, 4]] * 3)
qreplay = proof_replay(qfam, k)
print(f"\nover {Q}: N = {qreplay.N}, h = {qreplay.h} = {qreplay.h_element.value}")

# The expanded certificate on sizes (3, 4) over GF(5).  The replay
# multiplies the factors of the contradiction polynomial Q in the box of
# exponents up to the target monomial, reads Q's coefficient there, and
# packages witness and coefficient as a certificate whose claims are
# rechecked independently.
G = prime_field(5)
small = SetFamily.from_elements(G, [[0, 1, 2], [0, 1, 3, 4]])
full = proof_replay(small, 2, expand_certificate=True)
cert = full.cn_certificate
print(f"\nexpanded certificate for sizes {small.sizes} over {G}:")
print(f"  coefficient {cert.coefficient.value}, nonzero = {cert.nonzero}")
print(f"  witness point {cert.witness}, value {cert.witness_value.value}")
assert cert.nonzero and cert.coefficient == full.h_element

# Every replay serializes to a stable JSON document, which is what the
# command-line `proof-replay` verb writes.
doc = json.dumps(full.to_json_dict(), indent=2, sort_keys=True)
print(f"\nJSON report ({len(doc)} bytes):")
print("\n".join(doc.splitlines()[:12]))
print("  ...")
