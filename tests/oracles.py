"""Brute-force oracles and the fusion harness shared across the test suite.

Everything here is deliberately independent of the recurrences under
test: segmentations come from cut masks, alignments from a recursive
walk, chains from DFS, probabilities from explicit subset sums.
"""

import itertools
import random

import semiring_dp as sd

FUSION_SEMIRINGS = ("count", "bool", "minplus", "maxplus", "prob")
FULL_CATALOG = tuple(sd.standard_semirings())


def weight_sampler(name):
    samplers = {
        "count": lambda rng: rng.randint(0, 5),
        "bool": lambda rng: rng.random() < 0.5,
        "prob": lambda rng: round(rng.uniform(0.05, 1.0), 3),
        "minplus": lambda rng: round(rng.uniform(-5.0, 5.0), 3),
        "maxplus": lambda rng: round(rng.uniform(-5.0, 5.0), 3),
        "maxprod": lambda rng: round(rng.uniform(0.1, 1.0), 3),
        "softmax": lambda rng: round(rng.uniform(0.0, 10.0), 3),
        "bottleneck": lambda rng: round(rng.uniform(0.0, 1.0), 3),
        "expectation": lambda rng: (
            round(rng.uniform(0.0, 2.0), 3),
            round(rng.uniform(0.0, 1.0), 3),
        ),
    }
    return samplers[name]


def weight_table(labels, name, seed):
    rng = random.Random(seed)
    sample = weight_sampler(name)
    return {label: sample(rng) for label in labels}


# --- fusion harness -----------------------------------------------------------


def check_fusion(labels, run, semiring_names=FUSION_SEMIRINGS, seed=0, max_paths=20_000):
    """Direct run in S == path-set run evaluated into S, per semiring."""
    paths = run(sd.generator_semiring(), sd.singleton_weights)
    assert len(paths) <= max_paths, f"instance too large for the oracle: {len(paths)}"
    catalog = sd.standard_semirings()
    for name in semiring_names:
        s = catalog[name]
        table = weight_table(labels, name, seed)
        w = table.__getitem__
        direct = run(s, w)
        oracle = sd.evaluate_paths(s, w, paths)
        assert s.eq(direct, oracle), (name, direct, oracle)


def check_constrained_fusion(
    labels, generate, alg, run_constrained, semiring_names=FUSION_SEMIRINGS, seed=0
):
    """Generate-filter-evaluate == the direct constrained run, per semiring."""
    paths = generate(sd.generator_semiring(), sd.singleton_weights)
    kept = sd.filter_paths(alg, paths)
    catalog = sd.standard_semirings()
    for name in semiring_names:
        s = catalog[name]
        table = weight_table(labels, name, seed)
        w = table.__getitem__
        direct = run_constrained(s, w)
        oracle = sd.evaluate_paths(s, w, kept)
        assert s.eq(direct, oracle), (name, direct, oracle)


# --- algorithm adapters: (labels, run(s, w)) ----------------------------------


def adapter_subsequences(n):
    return list(range(1, n + 1)), lambda s, w: sd.subsequences(n, s, w)


def adapter_nonempty_subsequences(n):
    return list(range(1, n + 1)), lambda s, w: sd.nonempty_subsequences(n, s, w)


def adapter_combinations(n, k):
    return list(range(1, n + 1)), lambda s, w: sd.combinations(n, k, s, w)


def adapter_dag(dag):
    labels = list(dag.edges())
    return labels, lambda s, w: sd.dag_bellman(dag, s, w)


def segment_labels(n):
    return [(i, j) for j in range(1, n + 1) for i in range(1, j + 1)]


def adapter_segment_opt(n):
    return segment_labels(n), lambda s, w: sd.segment_opt(
        sd.SegmentationProblem(n, lambda i, j: w((i, j))), s
    )


def adapter_segment_fixed(n, lo, hi):
    return segment_labels(n), lambda s, w: sd.segment_fixed_count(
        sd.SegmentationProblem(n, lambda i, j: w((i, j))), lo, hi, s
    )


def adapter_segment_minlen(n, target, at_least=False):
    return segment_labels(n), lambda s, w: sd.segment_min_length(
        sd.SegmentationProblem(n, lambda i, j: w((i, j))), target, s, at_least=at_least
    )


def alignment_labels(rows, cols):
    labels = [(i, 0) for i in range(1, rows + 1)]
    labels += [(0, j) for j in range(1, cols + 1)]
    labels += [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    return labels


def adapter_nw(rows, cols):
    return alignment_labels(rows, cols), lambda s, w: sd.nw_align(
        sd.AlignmentProblem(rows, cols, lambda i, j: w((i, j))), s
    )


def adapter_nw_sum(rows, cols, cap):
    return alignment_labels(rows, cols), lambda s, w: sd.nw_align_sum_constrained(
        sd.AlignmentProblem(rows, cols, lambda i, j: w((i, j))), cap, s
    )


def adapter_nw_max(rows, cols, cap):
    return alignment_labels(rows, cols), lambda s, w: sd.nw_align_max_constrained(
        sd.AlignmentProblem(rows, cols, lambda i, j: w((i, j))), cap, s
    )


def event_labels(n):
    return [(u, k) for k in range(1, n + 1) for u in (0, 1)]


def adapter_events(n, m):
    def run(s, w):
        pairs = [(w((0, k)), w((1, k))) for k in range(1, n + 1)]
        return sd.events_m_of_n(pairs, m, s)

    return event_labels(n), run


def adapter_ordered(values, relation=None):
    import operator

    rel = relation or operator.lt
    return list(range(1, len(values) + 1)), lambda s, w: sd.ordered_subsequences(
        values, s, w, rel
    )


# --- lifted runs for generic constraint consumption ---------------------------


def run_subsequences_lifted(n, base, alg, v_of, w_table):
    lifted = sd.lifted_semiring(base, alg)
    vec = sd.subsequences(
        n, lifted, lambda k: sd.lift_edge(base, alg, w_table[k], v_of(k))
    )
    return sd.project(base, alg, vec)


def run_segment_lifted_edges(n, base, alg, w_table, v_of):
    """Cover recurrence where every product is against a single lifted edge."""
    rows = [sd.lifted_one(base, alg)]
    for j in range(1, n + 1):
        acc = sd.lifted_zero(base, alg)
        for i in range(1, j + 1):
            term = sd.mul_by_lifted_edge_general(
                base, alg, rows[i - 1], w_table[(i, j)], v_of((i, j))
            )
            acc = tuple(base.add(a, b) for a, b in zip(acc, term))
        rows.append(acc)
    return sd.project(base, alg, rows[n])


# --- independent brute-force enumerators ---------------------------------------


def all_segmentations(n):
    """Every contiguous cover of 1..n as a list of (i, j) segments."""
    covers = []
    for mask in range(1 << (n - 1)):
        segments, start = [], 1
        for pos in range(1, n):
            if (mask >> (pos - 1)) & 1:
                segments.append((start, pos))
                start = pos + 1
        segments.append((start, n))
        covers.append(segments)
    return covers


def enumerate_alignments(rows, cols):
    """Every alignment as a tuple of move labels, by recursive walk."""
    out = []

    def walk(i, j, acc):
        if i == rows and j == cols:
            out.append(tuple(acc))
            return
        if i < rows and j < cols:
            walk(i + 1, j + 1, acc + [(i + 1, j + 1)])
        if i < rows:
            walk(i + 1, j, acc + [(i + 1, 0)])
        if j < cols:
            walk(i, j + 1, acc + [(0, j + 1)])

    walk(0, 0, [])
    return out


def brute_poisson_binomial(probs, m):
    """Exact P(exactly m of the events) by explicit subset sums."""
    n = len(probs)
    total = 0.0
    for chosen in itertools.combinations(range(n), m):
        chosen_set = set(chosen)
        term = 1.0
        for k in range(n):
            term *= probs[k] if k in chosen_set else 1.0 - probs[k]
        total += term
    return total


def brute_best_event_subset(probs, m):
    """(probability, subset) of the most probable m-subset.

    Ties resolve to the subset minimal under descending-sorted
    comparison (largest element smallest, then the next, ...), matching
    the rolling recurrence's keep-left fold.
    """
    n = len(probs)
    best = None
    for chosen in itertools.combinations(range(1, n + 1), m):
        chosen_set = set(chosen)
        term = 1.0
        for k in range(1, n + 1):
            term *= probs[k - 1] if k in chosen_set else 1.0 - probs[k - 1]
        key = tuple(sorted(chosen, reverse=True))
        if best is None or term > best[0] or (term == best[0] and key < best[1]):
            best = (term, key, chosen)
    return best[0], list(best[2])


def max_chain_length(values, relation):
    """Longest chain by DFS over every extendable chain."""
    n = len(values)
    best = 0

    def extend(last, length):
        nonlocal best
        best = max(best, length)
        for nxt in range(last + 1, n):
            if last < 0 or relation(values[last], values[nxt]):
                extend(nxt, length + 1)

    extend(-1, 0)
    return best


def random_dag(rng, n):
    parents = [()]
    for v in range(2, n + 1):
        k = rng.randint(1, min(3, v - 1))
        parents.append(tuple(sorted(rng.sample(range(1, v), k))))
    return sd.Dag(tuple(parents))


def is_strictly_increasing(seq):
    return all(a < b for a, b in zip(seq, seq[1:]))
