#!/usr/bin/env python3
# How a constraint becomes algebra: lift the semiring over a finite
# carrier, multiply with a generalized convolution, project the
# accepted entries.  The longest-increasing-subsequence solver at the
# end is the same machinery specialized to an ordering constraint.

import semiring_dp as sd

count = sd.counting_semiring()

# lift the counting semiring over "number of chosen items", capped at 4
alg = sd.subset_size_algebra(4)
lifted = sd.lifted_semiring(count, alg)
print(f"carrier {list(alg.carrier)}, lifted one = {lifted.one}")

# each item contributes a vector with its weight at grade 1
item = sd.lift_edge(count, alg, 1, 1)
acc = lifted.one
for _ in range(6):
    acc = lifted.mul(acc, lifted.add(lifted.one, item))
print(f"after folding 6 optional items: {acc}")
print("  (read: one empty choice, 6 singletons, 15 pairs, 20 triples, 15 quadruples)")
grade_2 = sd.subset_size_algebra(4, accept=lambda m: m == 2)
print(f"project at grade 2: {sd.project(count, grade_2, acc)}")

# group-like algebras admit an O(1)-per-entry product against an edge
shifted = sd.mul_by_lifted_edge_group(count, alg, acc, 1, 1)
general = sd.mul_by_lifted_edge_general(count, alg, acc, 1, 1)
assert shifted == general
print(f"\ngroup fast path == general single-edge product: {shifted}")

# the running-minimum algebra is a monoid (no inverses) but still has a
# cheap three-case product; here grades are segment lengths
minalg = sd.min_count_algebra(5)
vec = tuple(range(1, 6))
fast = sd.CLOSED_FORM_EDGE_PRODUCTS["min_count"](count, minalg, vec, 1, 3)
slow = sd.mul_by_lifted_edge_general(count, minalg, vec, 1, 3)
assert fast == slow
print(f"running-minimum three-case product:  {fast}")

# ordering constraints have no identity and fold left-to-right only,
# yet the same recipe yields the classic LIS solver with its witness
u = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6]
length, witness = sd.lis(u)
print(f"\nlongest increasing subsequence of {u}:")
print(f"  length {length}, witness {witness}")
