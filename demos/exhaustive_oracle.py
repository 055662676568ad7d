#!/usr/bin/env python3
# The path-set semiring turns any recurrence into its own brute-force
# oracle: run it once with set-union/cross-join operators to
# materialize every solution, evaluate those solutions in the target
# semiring, and compare against the direct run.  The two must agree --
# that equality is the correctness argument for the efficient version.

import random

import semiring_dp as sd

n, k = 5, 2
rng = random.Random(0)
weights = {i: rng.randint(1, 9) for i in range(1, n + 1)}
print(f"choose {k} of {n} items, item weights {weights}\n")

gen = sd.generator_semiring()
paths = sd.combinations(n, k, gen, sd.singleton_weights)
print(f"path-set run materializes all {len(paths)} solutions:")
for path in paths:
    print(f"  {list(path)}")

minplus = sd.minplus_semiring()
oracle = sd.evaluate_paths(minplus, lambda i: float(weights[i]), paths)
direct = sd.combinations(n, k, minplus, lambda i: float(weights[i]))
print(f"\nevaluate-all-solutions (min-plus): {oracle}")
print(f"direct min-plus recurrence:        {direct}")
assert minplus.eq(direct, oracle)

# constraints work the same way: filter the generated solutions with a
# left fold of the constraint algebra, then evaluate
all_subseqs = sd.subsequences(n, gen, sd.singleton_weights)
size_is_k = sd.subset_size_algebra(n, label_map=lambda e: 1, accept=lambda m: m == k)
kept = sd.filter_paths(size_is_k, all_subseqs)
print(f"\ngenerate {len(all_subseqs)} subsequences, filter to size {k}: "
      f"{len(kept)} remain")
assert kept == paths
print("filtered generation equals the constrained recurrence's own path set.")

# the oracle is deliberately exponential; a budget stops runaway runs
try:
    sd.subsequences(40, sd.generator_semiring(budget=2_000), sd.singleton_weights)
except sd.PathBudgetError as exc:
    print(f"\nbudget guard: {exc}")
