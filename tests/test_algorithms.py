import collections
import functools
import math
import operator
import random

import pytest

import semiring_dp as sd
from semiring_dp import algorithms, lifting, semirings
import oracles

CATALOG = sd.standard_semirings()
COUNT = CATALOG["count"]
MINPLUS = CATALOG["minplus"]
MAXPLUS = CATALOG["maxplus"]


# --- DAG recursion ---------------------------------------------------------------


def test_dag_validation():
    with pytest.raises(ValueError):
        sd.Dag(((1,),))  # source with a parent
    with pytest.raises(ValueError):
        sd.Dag(((), ()))  # second source
    with pytest.raises(ValueError):
        sd.Dag(((), (2,)))  # edge not topological


def test_dag_single_edge():
    dag = sd.Dag(((), (1,)))
    assert sd.dag_bellman(dag, COUNT, lambda e: 1) == 1


def test_dag_diamond_counts_paths():
    dag = sd.Dag(((), (1,), (1,), (2, 3)))
    assert sd.dag_bellman(dag, COUNT, lambda e: 1) == 2


def test_dag_fusion_on_random_dags():
    rng = random.Random(5)
    for _ in range(5):
        dag = oracles.random_dag(rng, rng.randint(2, 7))
        labels, run = oracles.adapter_dag(dag)
        oracles.check_fusion(labels, run, seed=rng.randint(0, 999))


# --- subsequences ------------------------------------------------------------------


def test_subsequences_empty():
    assert sd.subsequences(0, COUNT, lambda n: 1) == 1


def test_subsequences_counts_powerset():
    assert sd.subsequences(10, COUNT, lambda n: 1) == 1024


def test_subsequences_maxplus_sums_positives():
    x = {1: -1.0, 2: 2.0, 3: -3.0, 4: 4.0}
    assert sd.subsequences(4, MAXPLUS, x.__getitem__) == 6.0


def test_nonempty_subsequences_examples():
    assert sd.nonempty_subsequences(4, COUNT, lambda n: 1) == 15
    assert sd.nonempty_subsequences(0, COUNT, lambda n: 1) == 0


def test_nonempty_subsequences_is_subsequences_minus_empty():
    gen = sd.generator_semiring()
    every = sd.subsequences(8, gen, sd.singleton_weights)
    nonempty = sd.nonempty_subsequences(8, gen, sd.singleton_weights)
    assert () in every and () not in nonempty
    assert every.paths - nonempty.paths == {()}


# --- combinations -------------------------------------------------------------------


def test_combinations_examples():
    assert sd.combinations(4, 2, COUNT, lambda n: 1) == 6
    assert sd.combinations(5, 0, COUNT, lambda n: 1) == 1
    x = {1: 3.0, 2: 1.0, 3: 4.0, 4: 1.0}
    assert sd.combinations(4, 2, MINPLUS, x.__getitem__) == 2.0


def test_combinations_too_many_is_zero_value():
    for s in (COUNT, MINPLUS):
        assert s.eq(sd.combinations(3, 5, s, lambda n: s.one), s.zero)


def test_combinations_equals_filtered_subsequences():
    n, k = 7, 3
    labels, generate = oracles.adapter_subsequences(n)
    alg = sd.subset_size_algebra(n, label_map=lambda e: 1, accept=lambda m: m == k)
    _, constrained = oracles.adapter_combinations(n, k)
    oracles.check_constrained_fusion(labels, generate, alg, constrained, seed=2)


# --- segmentation -------------------------------------------------------------------


def test_segment_opt_counts_covers():
    p = sd.SegmentationProblem(5, lambda i, j: 1)
    assert sd.segment_opt(p, COUNT) == 16  # 2^(N-1) covers


def test_segment_opt_single_sample():
    p = sd.SegmentationProblem(1, lambda i, j: 7.5)
    assert sd.segment_opt(p, MINPLUS) == 7.5


def test_segment_opt_matches_exhaustive_min():
    rng = random.Random(11)
    n = 8
    w = {(i, j): round(rng.uniform(0, 4), 3) for j in range(1, n + 1) for i in range(1, j + 1)}
    p = sd.SegmentationProblem(n, lambda i, j: w[(i, j)])
    best = min(sum(w[seg] for seg in cover) for cover in oracles.all_segmentations(n))
    assert MINPLUS.eq(sd.segment_opt(p, MINPLUS), best)


def test_segment_fixed_count_examples():
    p = sd.SegmentationProblem(5, lambda i, j: 1)
    assert sd.segment_fixed_count(p, 2, 2, COUNT) == 4  # one cut among 4 gaps
    diagonal = sd.SegmentationProblem(5, lambda i, j: 10 * i + j)
    forced = sd.segment_fixed_count(diagonal, 5, 5, COUNT)
    assert forced == 11 * 22 * 33 * 44 * 55


def test_segment_fixed_count_validates_range():
    p = sd.SegmentationProblem(4, lambda i, j: 1)
    with pytest.raises(ValueError):
        sd.segment_fixed_count(p, 0, 2, COUNT)
    with pytest.raises(ValueError):
        sd.segment_fixed_count(p, 3, 2, COUNT)
    with pytest.raises(ValueError):
        sd.segment_fixed_count(p, 1, 5, COUNT)


def test_segment_fixed_count_matches_exhaustive():
    rng = random.Random(13)
    n = 8
    w = {(i, j): round(rng.uniform(0, 4), 3) for j in range(1, n + 1) for i in range(1, j + 1)}
    p = sd.SegmentationProblem(n, lambda i, j: w[(i, j)])
    covers = oracles.all_segmentations(n)
    for L in range(1, n + 1):
        best = min(
            sum(w[seg] for seg in cover) for cover in covers if len(cover) == L
        )
        assert MINPLUS.eq(sd.segment_fixed_count(p, L, L, MINPLUS), best)


def test_segment_min_length_trivias():
    n = 4
    w = {(i, j): float(10 * i + j) for j in range(1, n + 1) for i in range(1, j + 1)}
    p = sd.SegmentationProblem(n, lambda i, j: w[(i, j)])
    assert MINPLUS.eq(sd.segment_min_length(p, n, MINPLUS), w[(1, n)])


def test_segment_min_length_counts_match_enumeration():
    n = 4
    p = sd.SegmentationProblem(n, lambda i, j: 1)
    covers = oracles.all_segmentations(n)
    for L in range(1, n + 1):
        expected = sum(
            1 for cover in covers if min(j - i + 1 for i, j in cover) == L
        )
        assert sd.segment_min_length(p, L, COUNT) == expected
        expected_ge = sum(
            1 for cover in covers if min(j - i + 1 for i, j in cover) >= L
        )
        assert sd.segment_min_length(p, L, COUNT, at_least=True) == expected_ge


def test_segment_min_length_matches_exhaustive_min():
    rng = random.Random(17)
    n = 7
    w = {(i, j): round(rng.uniform(0, 4), 3) for j in range(1, n + 1) for i in range(1, j + 1)}
    p = sd.SegmentationProblem(n, lambda i, j: w[(i, j)])
    covers = oracles.all_segmentations(n)
    for L in range(1, n + 1):
        candidates = [
            sum(w[seg] for seg in cover)
            for cover in covers
            if min(j - i + 1 for i, j in cover) == L
        ]
        want = min(candidates) if candidates else math.inf
        assert MINPLUS.eq(sd.segment_min_length(p, L, MINPLUS), want)


def test_segmentation_constrained_fusion():
    n = 6
    labels, generate = oracles.adapter_segment_opt(n)
    count_alg = sd.subset_size_algebra(
        n, label_map=lambda e: 1, accept=lambda m: 2 <= m <= 3
    )
    _, fixed = oracles.adapter_segment_fixed(n, 2, 3)
    oracles.check_constrained_fusion(labels, generate, count_alg, fixed, seed=3)

    len_alg = sd.min_count_algebra(
        n, label_map=lambda e: e[1] - e[0] + 1, accept=lambda m: m == 2
    )
    _, minlen = oracles.adapter_segment_minlen(n, 2)
    oracles.check_constrained_fusion(labels, generate, len_alg, minlen, seed=4)

    ge_alg = sd.min_count_algebra(
        n, label_map=lambda e: e[1] - e[0] + 1, accept=lambda m: m >= 2
    )
    _, minlen_ge = oracles.adapter_segment_minlen(n, 2, at_least=True)
    oracles.check_constrained_fusion(labels, generate, ge_alg, minlen_ge, seed=5)


# --- alignment ----------------------------------------------------------------------


def hand_alignment_weights(rng, rows, cols):
    return {
        (i, j): round(rng.uniform(0, 3), 3)
        for i, j in oracles.alignment_labels(rows, cols)
    }


def test_nw_align_matches_enumeration_minplus():
    rng = random.Random(19)
    w = hand_alignment_weights(rng, 3, 3)
    p = sd.AlignmentProblem(3, 3, lambda i, j: w[(i, j)])
    best = min(
        sum(w[move] for move in alignment)
        for alignment in oracles.enumerate_alignments(3, 3)
    )
    assert MINPLUS.eq(sd.nw_align(p, MINPLUS), best)


def test_nw_align_unit_counting_is_delannoy():
    for n, m in ((0, 0), (1, 1), (2, 2), (3, 5), (4, 4)):
        p = sd.AlignmentProblem(n, m, lambda i, j: 1)
        assert sd.nw_align(p, COUNT) == sd.delannoy(n, m)


def test_nw_align_boundary_row():
    w = {(0, j): float(j) for j in range(1, 4)}
    p = sd.AlignmentProblem(0, 3, lambda i, j: w[(i, j)])
    assert MINPLUS.eq(sd.nw_align(p, MINPLUS), 1.0 + 2.0 + 3.0)


def test_delannoy_values():
    assert [sd.delannoy(n, 0) for n in range(5)] == [1, 1, 1, 1, 1]
    assert sd.delannoy(1, 1) == 3
    assert sd.delannoy(2, 2) == 13
    with pytest.raises(ValueError):
        sd.delannoy(-1, 2)


def test_nw_sum_constrained_vacuous_cap_equals_unconstrained():
    rng = random.Random(23)
    rows = cols = 4
    w = hand_alignment_weights(rng, rows, cols)
    p = sd.AlignmentProblem(rows, cols, lambda i, j: w[(i, j)])
    # every move label (a, b) grades |a - b|; a full detour is bounded by
    # the sum over all gap labels
    cap = sum(i for i in range(1, rows + 1)) + sum(j for j in range(1, cols + 1))
    assert MINPLUS.eq(
        sd.nw_align_sum_constrained(p, cap, MINPLUS), sd.nw_align(p, MINPLUS)
    )


def test_nw_constrained_zero_cap_is_diagonal_only():
    rng = random.Random(29)
    rows = cols = 4
    w = hand_alignment_weights(rng, rows, cols)
    p = sd.AlignmentProblem(rows, cols, lambda i, j: w[(i, j)])
    diagonal = sum(w[(i, i)] for i in range(1, rows + 1))
    assert MINPLUS.eq(sd.nw_align_sum_constrained(p, 0, MINPLUS), diagonal)
    assert MINPLUS.eq(sd.nw_align_max_constrained(p, 0, MINPLUS), diagonal)
    unit = sd.AlignmentProblem(rows, cols, lambda i, j: 1)
    assert sd.nw_align_sum_constrained(unit, 0, COUNT) == 1


def test_nw_max_constrained_full_cap_equals_unconstrained():
    rng = random.Random(31)
    rows, cols = 3, 4
    w = hand_alignment_weights(rng, rows, cols)
    p = sd.AlignmentProblem(rows, cols, lambda i, j: w[(i, j)])
    assert MINPLUS.eq(
        sd.nw_align_max_constrained(p, max(rows, cols), MINPLUS),
        sd.nw_align(p, MINPLUS),
    )


def test_nw_constrained_counts_match_filtered_enumeration():
    rows = cols = 4
    alignments = oracles.enumerate_alignments(rows, cols)
    p = sd.AlignmentProblem(rows, cols, lambda i, j: 1)
    for cap in (0, 2, 5, 9):
        expected = sum(
            1
            for al in alignments
            if sum(abs(a - b) for a, b in al) <= cap
        )
        assert sd.nw_align_sum_constrained(p, cap, COUNT) == expected
    for cap in (0, 1, 2, 4):
        expected = sum(
            1
            for al in alignments
            if max((abs(a - b) for a, b in al), default=0) <= cap
        )
        assert sd.nw_align_max_constrained(p, cap, COUNT) == expected


def test_alignment_constrained_fusion():
    rows, cols = 3, 4
    labels, generate = oracles.adapter_nw(rows, cols)
    gap = lambda e: abs(e[0] - e[1])
    sum_alg = sd.subset_size_algebra(5, label_map=gap, accept=lambda m: m <= 5)
    _, sum_run = oracles.adapter_nw_sum(rows, cols, 5)
    oracles.check_constrained_fusion(labels, generate, sum_alg, sum_run, seed=6)

    max_alg = sd.max_count_algebra(
        max(rows, cols), label_map=gap, accept=lambda m: m <= 2
    )
    _, max_run = oracles.adapter_nw_max(rows, cols, 2)
    oracles.check_constrained_fusion(labels, generate, max_alg, max_run, seed=7)


def test_nw_align_diff_cap_validation():
    p = sd.AlignmentProblem(3, 3, lambda i, j: 1)
    with pytest.raises(ValueError):
        sd.nw_align_max_constrained(p, 4, COUNT)
    with pytest.raises(ValueError):
        sd.nw_align_sum_constrained(p, -1, COUNT)


# --- events -------------------------------------------------------------------------


def test_events_examples():
    prob = CATALOG["prob"]
    assert prob.eq(
        sd.events_m_of_n([(0.5, 0.5), (0.5, 0.5)], 1, prob), 0.5
    )
    probs = [0.2, 0.5, 0.9]
    pairs = [(1 - p, p) for p in probs]
    want = (1 - 0.2) * (1 - 0.5) * (1 - 0.9)
    assert prob.eq(sd.events_m_of_n(pairs, 0, prob), want)
    assert prob.eq(sd.events_m_of_n(pairs, 5, prob), 0.0)


def test_events_matches_brute_force():
    rng = random.Random(37)
    prob = CATALOG["prob"]
    probs = [round(rng.uniform(0.05, 0.95), 3) for _ in range(9)]
    pairs = [(1 - p, p) for p in probs]
    for m in range(len(probs) + 1):
        want = oracles.brute_poisson_binomial(probs, m)
        assert abs(sd.events_m_of_n(pairs, m, prob) - want) < 1e-12


def test_events_constrained_fusion():
    n, m = 6, 2
    labels = oracles.event_labels(n)
    alg = sd.subset_size_algebra(
        n, label_map=lambda e: e[0], accept=lambda v: v == m
    )
    _, run = oracles.adapter_events(n, m)

    def generate_all(gen, w):
        acc = gen.one
        for k in range(1, n + 1):
            acc = gen.mul(acc, gen.add(w((0, k)), w((1, k))))
        return acc

    oracles.check_constrained_fusion(labels, generate_all, alg, run, seed=8)


def test_events_viterbi_witness():
    rng = random.Random(41)
    base = sd.max_product_semiring()
    vit = sd.viterbi_simple_semiring(base)
    for trial in range(20):
        n = rng.randint(1, 10)
        m = rng.randint(0, n)
        probs = [round(rng.uniform(0.05, 0.95), 3) for _ in range(n)]
        pairs = [
            (sd.Scored(1 - p, ()), sd.Scored(p, (k,)))
            for k, p in enumerate(probs, start=1)
        ]
        got = sd.events_m_of_n(pairs, m, vit)
        want_p, want_subset = oracles.brute_best_event_subset(probs, m)
        assert base.eq(got.score, want_p)
        assert list(got.witness) == want_subset
        # witness soundness: exactly m occurrences, score rebuilds
        assert len(got.witness) == m
        rebuilt = 1.0
        chosen = set(got.witness)
        for k, p in enumerate(probs, start=1):
            rebuilt *= p if k in chosen else 1 - p
        assert base.eq(rebuilt, got.score)


# --- ordered subsequences and longest chains ------------------------------------------


def test_ordered_subsequences_examples():
    assert sd.ordered_subsequences([1.0, 2.0, 3.0], COUNT, lambda n: 1) == 7
    decreasing = [5.0, 4.0, 3.0, 2.0]
    assert sd.ordered_subsequences(decreasing, COUNT, lambda n: 1) == 4
    assert (
        sd.ordered_subsequences([1.0, 1.0], COUNT, lambda n: 1, operator.le) == 3
    )


def test_ordered_subsequences_counts_match_enumeration():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(0, 7)
        u = [rng.choice([1.0, 2.0, 3.0, 4.0]) for _ in range(n)]
        rel = rng.choice([operator.lt, operator.le])
        expected = 0
        for mask in range(1, 1 << n):
            chain = [u[i] for i in range(n) if (mask >> i) & 1]
            if all(rel(a, b) for a, b in zip(chain, chain[1:])):
                expected += 1
        assert sd.ordered_subsequences(u, COUNT, lambda k: 1, rel) == expected


def test_ordered_subsequences_fusion():
    rng = random.Random(47)
    u = [rng.uniform(0, 1) for _ in range(6)]
    labels, generate = oracles.adapter_nonempty_subsequences(len(u))
    alg = sd.ordering_algebra(u)
    _, run = oracles.adapter_ordered(u)
    oracles.check_constrained_fusion(labels, generate, alg, run, seed=9)


def test_lis_examples():
    assert sd.lis([3.0, 1.0, 2.0]) == (2, [1.0, 2.0])
    assert sd.lis([]) == (0, [])
    length, witness = sd.lis([5.0])
    assert length == 1 and witness == [5.0]


def test_lis_matches_exhaustive():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(0, 12)
        u = [round(rng.uniform(0, 1), 6) for _ in range(n)]
        length, witness = sd.lis(u)
        assert length == oracles.max_chain_length(u, operator.lt)
        assert len(witness) == length
        assert oracles.is_strictly_increasing(witness)


def test_longest_chain_other_relations():
    length, witness = sd.longest_chain([2.0, 2.0, 2.0], operator.le)
    assert length == 3 and witness == [2.0, 2.0, 2.0]
    masks = [1, 3, 2, 7]
    subset = lambda a, b: (int(a) | int(b)) == int(b)
    length, witness = sd.longest_chain(masks, subset)
    assert length == 3 and witness == [1, 3, 7]


# --- full fusion sweep over one small instance per algorithm ---------------------------


def fusion_cases():
    rng = random.Random(59)
    yield oracles.adapter_subsequences(6)
    yield oracles.adapter_nonempty_subsequences(6)
    yield oracles.adapter_combinations(6, 2)
    yield oracles.adapter_dag(oracles.random_dag(rng, 6))
    yield oracles.adapter_segment_opt(5)
    yield oracles.adapter_segment_fixed(5, 2, 3)
    yield oracles.adapter_segment_minlen(5, 2)
    yield oracles.adapter_nw(3, 3)
    yield oracles.adapter_nw_sum(3, 3, 4)
    yield oracles.adapter_nw_max(3, 3, 2)
    yield oracles.adapter_events(5, 2)
    yield oracles.adapter_ordered([0.4, 0.9, 0.1, 0.7, 0.5])


@pytest.mark.parametrize("case", list(fusion_cases()), ids=lambda c: str(len(c[0])))
def test_fusion_across_full_catalog(case):
    labels, run = case
    oracles.check_fusion(labels, run, semiring_names=oracles.FULL_CATALOG, seed=61)


# --- witness soundness -----------------------------------------------------------------


def test_combinations_witness_soundness():
    rng = random.Random(67)
    base = MINPLUS
    vit = sd.viterbi_simple_semiring(base)
    for _ in range(20):
        n = rng.randint(1, 9)
        k = rng.randint(0, n)
        w = {i: round(rng.uniform(-2, 2), 3) for i in range(1, n + 1)}
        got = sd.combinations(n, k, vit, lambda i: sd.Scored(w[i], (i,)))
        assert len(got.witness) == k
        assert list(got.witness) == sorted(got.witness)
        assert base.eq(got.score, sum(w[i] for i in got.witness))


def test_nw_witness_is_valid_alignment():
    rng = random.Random(71)
    base = MINPLUS
    vit = sd.viterbi_simple_semiring(base)
    rows, cols = 4, 3
    w = hand_alignment_weights(rng, rows, cols)
    p = sd.AlignmentProblem(
        rows, cols, lambda i, j: sd.Scored(w[(i, j)], ((i, j),))
    )
    got = sd.nw_align(p, vit)
    assert base.eq(got.score, sum(w[m] for m in got.witness))
    # the move sequence must walk (0,0) -> (rows, cols)
    i = j = 0
    for a, b in got.witness:
        if a and b:
            assert (a, b) == (i + 1, j + 1)
            i, j = i + 1, j + 1
        elif a:
            assert a == i + 1
            i += 1
        else:
            assert b == j + 1
            j += 1
    assert (i, j) == (rows, cols)


def concatenating_viterbi(base):
    """Reference score-and-witness semiring: every product copies both witness tuples."""
    zero = sd.Scored(base.zero, ())

    def add(a, b):
        best = base.add(a.score, b.score)
        return a if best == a.score or math.isclose(best, a.score, rel_tol=1e-9) else b

    def mul(a, b):
        score = base.mul(a.score, b.score)
        return zero if score == base.zero else sd.Scored(score, a.witness + b.witness)

    return sd.Semiring(f"concat[{base.name}]", add, mul, zero, sd.Scored(base.one, ()))


def witness_fold_cases(rng, grid):
    """(name, fold) pairs over a semiring; weights come from ``grid``, so ties occur."""
    rows, cols = rng.randint(0, 5), rng.randint(0, 5)
    moves = {m: rng.choice(grid) for m in oracles.alignment_labels(rows, cols)}
    align = sd.AlignmentProblem(rows, cols, lambda i, j: sd.Scored(moves[i, j], ((i, j),)))
    n = rng.randint(1, 7)
    pieces = {(i, j): rng.choice(grid) for j in range(1, n + 1) for i in range(1, j + 1)}
    cover = sd.SegmentationProblem(n, lambda i, j: sd.Scored(pieces[i, j], ((i, j),)))
    lo = rng.randint(1, n)
    hi = rng.randint(lo, n)
    events = [(sd.Scored(rng.choice(grid), ()), sd.Scored(rng.choice(grid), (k,)))
              for k in range(1, rng.randint(0, 8) + 1)]
    values = [rng.randint(0, 4) for _ in range(rng.randint(0, 8))]
    chained = {k: rng.choice(grid) for k in range(1, len(values) + 1)}
    max_cap = rng.randint(0, max(rows, cols))
    sum_cap = rng.randint(0, 8)
    occurrences = rng.randint(0, 8)
    return [
        ("nw_align", lambda s: sd.nw_align(align, s)),
        ("nw_align_max_constrained", lambda s: sd.nw_align_max_constrained(align, max_cap, s)),
        ("nw_align_sum_constrained", lambda s: sd.nw_align_sum_constrained(align, sum_cap, s)),
        ("segment_opt", lambda s: sd.segment_opt(cover, s)),
        ("segment_fixed_count", lambda s: sd.segment_fixed_count(cover, lo, hi, s)),
        ("segment_min_length", lambda s: sd.segment_min_length(cover, lo, s, at_least=hi > lo)),
        ("events_m_of_n", lambda s: sd.events_m_of_n(events, occurrences, s)),
        ("ordered_subsequences", lambda s: sd.ordered_subsequences(
            values, s, lambda k: sd.Scored(chained[k], (k,)), operator.le)),
    ]


@pytest.mark.parametrize(
    "base, grid",
    [
        (MINPLUS, (0.0, 1.0, 2.0, 3.0)),
        (CATALOG["maxprod"], (0.0, 0.25, 0.5, 1.0)),
        (CATALOG["bottleneck"], (0.0, 0.25, 0.5, 1.0)),
    ],
    ids=["minplus", "maxprod", "bottleneck"],
)
def test_joined_witnesses_match_concatenated_witnesses(base, grid):
    rng = random.Random(73)
    vit, reference = sd.viterbi_simple_semiring(base), concatenating_viterbi(base)
    for _ in range(25):
        for name, fold in witness_fold_cases(rng, grid):
            got, want = fold(vit), fold(reference)
            assert got.score == want.score, name
            assert type(got.witness) is tuple, name
            assert got.witness == want.witness, name


def term_by_term(s):
    """``s`` with its row operations taken away: sum and dot fold one term at a time."""
    return sd.Semiring(s.name, s.add, s.mul, s.zero, s.one, s.eq)


@pytest.mark.parametrize(
    "base, grid",
    [
        (MINPLUS, (0.0, 1.0, 1.0 + 4e-10, 1.0 + 1.5e-9, 2.0, math.inf)),
        (MAXPLUS, (-math.inf, 0.0, 1.0, 1.0 - 4e-10, 1.0 - 1.5e-9, 2.0)),
        (CATALOG["maxprod"], (0.0, 0.25, 0.5, 0.5 * (1 + 6e-10), 1.0)),
        (CATALOG["bottleneck"], (0.0, 0.25, 0.5, 0.5 * (1 - 6e-10), 1.0)),
    ],
    ids=["minplus", "maxplus", "maxprod", "bottleneck"],
)
def test_row_operations_leave_folds_and_op_counts_unchanged(base, grid):
    # near-ties in the weights make some rows take the one-scan path and some the scan
    rng = random.Random(79)
    vit = sd.viterbi_simple_semiring(base)
    for _ in range(25):
        for name, fold in witness_fold_cases(rng, grid):
            rows, rows_counts = sd.instrumented(vit)
            terms, terms_counts = sd.instrumented(vit)  # counting add and mul one by one
            got, want = fold(rows), fold(term_by_term(terms))
            assert got.score == want.score, name
            assert got.witness == want.witness, name
            assert (rows_counts.add, rows_counts.mul) == (terms_counts.add, terms_counts.mul), name


# term-by-term copies of the elementwise row updates, one add or mul call per entry


def reference_combinations(n, k, s, w):
    if k > n:
        return s.zero
    row = [s.one] + [s.zero] * k
    for item in range(1, n + 1):
        for m in range(min(item, k), 0, -1):
            row[m] = s.add(row[m], s.mul(row[m - 1], w(item)))
    return row[k]


def reference_events(pairs, occurrences, s):
    if occurrences > len(pairs):
        return s.zero
    row = [s.one] + [s.zero] * occurrences
    for seen, (absent, present) in enumerate(pairs, start=1):
        for m in range(min(seen, occurrences), 0, -1):
            row[m] = s.add(s.mul(row[m], absent), s.mul(row[m - 1], present))
        row[0] = s.mul(row[0], absent)
    return row[occurrences]


def reference_nw_align(p, s):
    w = p.weight
    prev = [s.one]
    for j in range(1, p.cols + 1):
        prev.append(s.mul(prev[j - 1], w(0, j)))
    for i in range(1, p.rows + 1):
        cur = [s.mul(prev[0], w(i, 0))]
        for j in range(1, p.cols + 1):
            val = s.mul(prev[j - 1], w(i, j))
            val = s.add(val, s.mul(prev[j], w(i, 0)))
            val = s.add(val, s.mul(cur[j - 1], w(0, j)))
            cur.append(val)
        prev = cur
    return prev[p.cols]


def reference_edge_product(kind):
    """The summed- or maximum-gap edge product, one base op per entry, in the library's order."""

    def product(base, vec, weight, key):
        size = len(vec)
        if key >= size:
            return (base.zero,) * size
        out = [base.zero] * key
        if kind == "sum":
            out += [base.mul(x, weight) for x in vec[: size - key]]
        else:
            acc = base.zero
            for x in vec[: key + 1]:
                acc = base.add(acc, x)
            out.append(base.mul(acc, weight))
            out += [base.mul(x, weight) for x in vec[key + 1:]]
        return tuple(out)

    return product


def reference_misalignment(p, kind, cap, base):
    """The constrained alignment over a lifted semiring whose add is one base add per entry."""
    alg = algorithms.misalignment_algebra(kind, cap)
    product = reference_edge_product(kind)
    lifted = sd.Semiring(
        "reference-lifted",
        lambda x, y: tuple(base.add(a, b) for a, b in zip(x, y)),
        lambda vec, edge: product(base, vec, *edge),
        (base.zero,) * alg.size,
        (base.one,) + (base.zero,) * (alg.size - 1),
    )
    edges = sd.AlignmentProblem(p.rows, p.cols,
                                lambda i, j: (p.weight(i, j), alg.label_map((i, j))))
    return lifting.project(base, alg, reference_nw_align(edges, lifted))


def elementwise_fold_cases(rng, grid, tupled):
    """(name, library fold, term-by-term copy[, op-count copy]) over weights drawn from ``grid``.

    The op-count copy, where given, makes the fold's ops in the fold's
    order; the term-by-term copy then checks the value up to ``s.eq``.
    """
    def label(*labels):  # a weight from the grid, tupled with ``labels`` if witnesses are kept
        x = rng.choice(grid)
        return sd.Scored(x, labels) if tupled else x

    n, k = rng.randint(0, 8), rng.randint(0, 5)
    items = {i: label(i) for i in range(1, n + 1)}
    events = [(label(), label(e)) for e in range(1, rng.randint(0, 8) + 1)]
    occurrences = rng.randint(0, 8)
    rows, cols = rng.randint(0, 5), rng.randint(0, 5)
    moves = {m: label(m) for m in oracles.alignment_labels(rows, cols)}
    align = sd.AlignmentProblem(rows, cols, lambda i, j: moves[i, j])
    sum_cap, max_cap = rng.randint(0, 8), rng.randint(0, max(rows, cols))
    return [
        ("combinations", lambda s: sd.combinations(n, k, s, items.get),
         lambda s: reference_combinations(n, k, s, items.get)),
        ("events_m_of_n", lambda s: sd.events_m_of_n(events, occurrences, s),
         lambda s: reference_events(events, occurrences, s)),
        ("nw_align", lambda s: sd.nw_align(align, s), lambda s: reference_nw_align(align, s)),
        ("nw_align_sum_constrained", lambda s: sd.nw_align_sum_constrained(align, sum_cap, s),
         lambda s: reference_misalignment(align, "sum", sum_cap, s)),
        ("nw_align_max_constrained", lambda s: sd.nw_align_max_constrained(align, max_cap, s),
         lambda s: reference_misalignment(align, "max", max_cap, s),
         lambda s: reference_nw_align(filtered_moves(align, max_cap, s.zero), s)),
    ]


def filtered_moves(p, cap, zero):
    """``p`` with ``zero`` on every move whose gap exceeds ``cap``."""
    return sd.AlignmentProblem(
        p.rows, p.cols, lambda i, j: p.weight(i, j) if abs(i - j) <= cap else zero
    )


@pytest.mark.parametrize(
    "s, grid",
    [
        (CATALOG["prob"], (0.0, 0.125, 0.3, 0.5, 0.7, 1.0)),
        (COUNT, (0, 1, 2, 3)),
        (MINPLUS, (0.0, 1.0, 1.0 + 4e-10, 2.5, math.inf)),
        (sd.viterbi_simple_semiring(CATALOG["maxprod"]), (0.0, 0.25, 0.5, 0.5 * (1 + 6e-10), 1.0)),
        (sd.viterbi_simple_semiring(MINPLUS), (0.0, 1.0, 1.0 + 4e-10, 2.0, math.inf)),
    ],
    ids=["prob", "count", "minplus", "viterbi-simple[maxprod]", "viterbi-simple[minplus]"],
)
def test_elementwise_rows_match_term_by_term_folds(s, grid):
    rng = random.Random(83)
    tupled = isinstance(s.zero, sd.Scored)
    for _ in range(30):
        for name, fold, reference, *op_reference in elementwise_fold_cases(rng, grid, tupled):
            rows, rows_counts = sd.instrumented(s)
            terms, terms_counts = sd.instrumented(s)
            got, want = fold(rows), reference(terms)
            if op_reference:  # the value copy adds in another order: equal within tolerance
                assert s.eq(got, want), name
                terms, terms_counts = sd.instrumented(s)
                want = op_reference[0](terms)
            if tupled:
                assert got.witness == want.witness, name
                got, want = got.score, want.score
            assert got == want, name  # the same ops on the same values: equal bit for bit
            assert (rows_counts.add, rows_counts.mul) == (terms_counts.add, terms_counts.mul), name


# --- summed-gap blocks ---------------------------------------------------------------

BLOCK_BASES = ("minplus", "maxplus", "maxprod", "bottleneck")
# signed zeros, finite values, infinities and nan: the cases where numpy's own
# minimum / maximum and builtin min / max part ways
SPECIAL_WEIGHTS = (-0.0, 0.0, 0.25, 1.0, 2.5, math.inf, -math.inf, math.nan)


def test_summed_gap_lifting_takes_the_block_form_over_min_max_bases_only():
    import numpy as np

    alg = sd.subset_size_algebra(3)
    bases = [*CATALOG.items(), ("viterbi-simple", sd.viterbi_simple_semiring(MINPLUS))]
    for name, s in bases:
        for base in (s, sd.instrumented(s)[0]):
            lifted = lifting.edge_lifted_semiring(base, alg, lifting.subset_size_edge_product)
            block = isinstance(lifted.row([lifted.zero, lifted.one]), np.ndarray)
            assert block == (name in BLOCK_BASES), name
    other = lifting.edge_lifted_semiring(MINPLUS, sd.max_count_algebra(3),
                                         lifting.max_count_edge_product)
    assert isinstance(other.row([other.zero]), list)


def assert_same_fold(fold, reference, base, what):
    """``fold`` and ``reference`` over counted copies of ``base``: equal reprs and op counts."""
    rows, rows_counts = sd.instrumented(base)
    terms, terms_counts = sd.instrumented(base)
    got, want = fold(rows), reference(terms)
    assert repr(got) == repr(want), what  # bit for bit: -0.0 and nan included
    assert (rows_counts.add, rows_counts.mul) == (terms_counts.add, terms_counts.mul), what


@pytest.mark.parametrize("name", BLOCK_BASES)
def test_summed_gap_blocks_match_the_term_by_term_folds(name):
    base = CATALOG[name]
    rng = random.Random(89)
    for rows in range(8):
        for cols in range(8):
            moves = {mv: rng.choice(SPECIAL_WEIGHTS)
                     for mv in oracles.alignment_labels(rows, cols)}
            p = sd.AlignmentProblem(rows, cols, lambda i, j: moves[i, j])
            what = (rows, cols, moves)
            assert_same_fold(lambda s: sd.nw_align(p, s),
                             lambda s: reference_nw_align(p, s), base, what)
            for cap in range(max(rows, cols) + 2):  # from 0 to past the largest gap
                assert_same_fold(lambda s: sd.nw_align_sum_constrained(p, cap, s),
                                 lambda s: reference_misalignment(p, "sum", cap, s),
                                 base, (cap, *what))


@pytest.mark.parametrize("name", BLOCK_BASES)
def test_summed_gap_blocks_past_simd_widths(name):
    # 61-cell diagonals of 21-entry vectors: every array spans many vector registers
    base = CATALOG[name]
    rng = random.Random(97)
    finite = [rng.choice((0.25, 0.5, 1.0, 2.0)) for _ in range(8)]
    moves = {mv: rng.choice(finite + [-0.0, 0.0, math.inf])
             for mv in oracles.alignment_labels(60, 60)}
    p = sd.AlignmentProblem(60, 60, lambda i, j: moves[i, j])
    assert_same_fold(lambda s: sd.nw_align_sum_constrained(p, 20, s),
                     lambda s: reference_misalignment(p, "sum", 20, s), base, name)


def test_nw_align_reads_each_move_weight_once():
    for rows, cols in ((0, 0), (0, 3), (4, 0), (3, 5), (6, 6)):
        reads = collections.Counter()

        def weight(i, j):
            reads[i, j] += 1
            return 1

        assert sd.nw_align(sd.AlignmentProblem(rows, cols, weight), COUNT) == sd.delannoy(rows, cols)
        assert reads == collections.Counter(oracles.alignment_labels(rows, cols))
        assert sum(reads.values()) == rows * cols + rows + cols


def test_nw_align_keeps_two_diagonal_buffers():
    made = []

    class RowCounting(sd.Semiring):
        def row(self, values):
            made.append(super().row(values))
            return made[-1]

    s = RowCounting("count", operator.add, operator.mul, 0, 1)
    for rows in range(5):
        for cols in range(5):
            made.clear()
            p = sd.AlignmentProblem(rows, cols, lambda i, j: 1)
            assert sd.nw_align(p, s) == sd.delannoy(rows, cols)
            # one entry per row index i of a diagonal's cells f[i][d - i]
            assert [len(row) for row in made] == [rows + 1, rows + 1]


def test_combinations_reads_each_item_weight_once():
    for n, k in ((0, 0), (5, 1), (6, 3), (8, 8)):
        reads = collections.Counter()

        def weight(item):
            reads[item] += 1
            return 1

        assert sd.combinations(n, k, COUNT, weight) == math.comb(n, k)
        assert reads == collections.Counter(range(1, n + 1))


# --- witness alignments: one product per cell -------------------------------------------

# ties, near-ties (within 1e-9 relative), signed zeros, infinities and nan
TIE_HEAVY_SCORES = SPECIAL_WEIGHTS + (1.0 + 5e-10, 1.0 - 1.2e-9, 1.0, 0.25)


@pytest.mark.parametrize("name", semirings.SELECTIVE_SEMIRINGS)
def test_witness_alignments_are_the_term_by_term_fold_on_tie_heavy_moves(name):
    base = CATALOG[name]
    grid = (False, True) if name == "bool" else TIE_HEAVY_SCORES + (base.zero, base.one)
    vit = sd.viterbi_simple_semiring(base)
    rng = random.Random(101)
    for rows in range(7):
        for cols in range(7):
            moves = {mv: sd.Scored(rng.choice(grid), (mv,))
                     for mv in oracles.alignment_labels(rows, cols)}
            p = sd.AlignmentProblem(rows, cols, lambda i, j: moves[i, j])
            cap = rng.randint(0, max(rows, cols))
            # repr spells the score bit for bit and the witness out
            assert_same_fold(lambda s: sd.nw_align(p, s),
                             lambda s: reference_nw_align(p, term_by_term(s)), vit, moves)
            assert_same_fold(lambda s: sd.nw_align_max_constrained(p, cap, s),
                             lambda s: reference_nw_align(
                                 filtered_moves(p, cap, s.zero), term_by_term(s)),
                             vit, (cap, moves))


def test_witness_alignment_builds_one_product_per_cell(monkeypatch):
    # a witness product of two non-empty trails makes one join; the term-by-term
    # fold made three per interior cell and kept one
    joins = []

    class CountedJoin(semirings._Join):
        __slots__ = ()

        def __init__(self, left, right):
            joins.append(1)
            super().__init__(left, right)

    monkeypatch.setattr(semirings, "_Join", CountedJoin)
    rng = random.Random(103)
    n = 30
    moves = {mv: rng.choice((0.0, 1.0, 1.0, 2.0)) for mv in oracles.alignment_labels(n, n)}
    p = sd.AlignmentProblem(n, n, lambda i, j: sd.Scored(moves[i, j], ((i, j),)))
    got = sd.nw_align(p, sd.viterbi_simple_semiring(MINPLUS))
    assert len(joins) <= n * n + 2 * n  # one per interior cell, one per edge cell
    assert got.witness == reference_nw_align(p, concatenating_viterbi(MINPLUS)).witness


# --- quotient constraint algebras ------------------------------------------------------


def full_min_length(p, target, s, at_least=False):
    """segment_opt lifted over the running minimum on 1..N, the algebra the 3-chain quotients."""
    n = p.length
    accept = (lambda m: m >= target) if at_least else (lambda m: m == target)
    alg = sd.min_count_algebra(n, label_map=lambda e: e[1] - e[0] + 1, accept=accept)
    lifted = lifting.edge_lifted_semiring(s, alg, lifting.min_count_edge_product)
    edges = sd.SegmentationProblem(n, lambda i, j: (p.weight(i, j), alg.label_map((i, j))))
    return sd.project(s, alg, sd.segment_opt(edges, lifted))


def quotient_cases(rng, grid, tupled):
    """(name, quotient fold, full-algebra fold, admissible witnesses) over weights from ``grid``.

    ``grid`` None draws distinct floats.  The admissible witnesses are
    every solution the constraint accepts, each with its min-plus cost.
    """
    costs = {}

    def draw(label):  # a weight, tupled with its label if witnesses are kept
        x = costs[label] = rng.random() if grid is None else rng.choice(grid)
        return sd.Scored(x, (label,)) if tupled else x

    def cost(solution):
        return functools.reduce(MINPLUS.mul, (costs[label] for label in solution), MINPLUS.one)

    n = rng.randint(1, 8)
    pieces = {seg: draw(seg) for seg in oracles.segment_labels(n)}
    cover = sd.SegmentationProblem(n, lambda i, j: pieces[i, j])
    target = rng.randint(1, n)
    covers = [tuple(c) for c in oracles.all_segmentations(n)]
    shortest = lambda c: min(j - i + 1 for i, j in c)
    exact = {c: cost(c) for c in covers if shortest(c) == target}
    at_least = {c: cost(c) for c in covers if shortest(c) >= target}
    costs.clear()  # alignment moves reuse segment labels
    rows, cols = rng.randint(0, 5), rng.randint(0, 5)
    moves = {m: draw(m) for m in oracles.alignment_labels(rows, cols)}
    align = sd.AlignmentProblem(rows, cols, lambda i, j: moves[i, j])
    cap = rng.randint(0, max(rows, cols))
    capped = {a: cost(a) for a in oracles.enumerate_alignments(rows, cols)
              if all(abs(i - j) <= cap for i, j in a)}
    return [
        ("segment_min_length", lambda s: sd.segment_min_length(cover, target, s),
         lambda s: full_min_length(cover, target, s), exact),
        ("segment_min_length at_least",
         lambda s: sd.segment_min_length(cover, target, s, at_least=True),
         lambda s: full_min_length(cover, target, s, at_least=True), at_least),
        ("nw_align_max_constrained", lambda s: sd.nw_align_max_constrained(align, cap, s),
         lambda s: reference_misalignment(align, "max", cap, s), capped),
    ]


@pytest.mark.parametrize(
    "s, grid",
    [
        (COUNT, (0, 1, 2, 3)),
        (MINPLUS, (0.0, 1.0, 1.0 + 4e-10, 2.5, math.inf)),
        (CATALOG["prob"], (0.0, 0.125, 0.3, 0.5, 0.7, 1.0)),
    ],
    ids=["count", "minplus", "prob"],
)
def test_quotient_algebras_match_the_full_algebras(s, grid):
    # count exactly, minplus and prob within the pinned 1e-9 / 1e-12
    rng = random.Random(89)
    for _ in range(40):
        for name, quotient, full, _ in quotient_cases(rng, grid, tupled=False):
            assert s.eq(quotient(s), full(s)), name


@pytest.mark.parametrize(
    "grid", [None, (0.0, 1.0, 2.0), (0.0, 1.0, 1.0 + 4e-10, 2.0, math.inf)],
    ids=["distinct", "ties", "near-ties"],
)
def test_quotient_algebra_witnesses(grid):
    rng = random.Random(97)
    vit = sd.viterbi_simple_semiring(MINPLUS)
    for _ in range(60):
        for name, quotient, full, admissible in quotient_cases(rng, grid, tupled=True):
            got, want = quotient(vit), full(vit)
            if grid is None:
                assert (got.score, got.witness) == (want.score, want.witness), name
                continue
            # ties may keep another optimal witness than the full algebra's
            assert MINPLUS.eq(got.score, want.score), name
            if got.score != math.inf:
                assert admissible.get(got.witness) == got.score, name


def test_quotient_constraints_keep_the_plain_op_growth():
    for n in (24, 48):
        p = sd.SegmentationProblem(n, lambda i, j: 1)
        assert count_ops(lambda s: sd.segment_min_length(p, 2, s)) <= 8 * n * n
    p = sd.AlignmentProblem(10, 10, lambda i, j: 1)
    plain = count_ops(lambda s: sd.nw_align(p, s))
    for cap in range(11):
        assert count_ops(lambda s: sd.nw_align_max_constrained(p, cap, s)) == plain


# --- operation-count scaling ------------------------------------------------------------


def count_ops(make_semiring_run):
    counted, counts = sd.instrumented(COUNT)
    make_semiring_run(counted)
    return counts.total()


def test_combinations_op_scaling():
    k = 8
    small = count_ops(lambda s: sd.combinations(60, k, s, lambda n: 1))
    large = count_ops(lambda s: sd.combinations(120, k, s, lambda n: 1))
    assert 1.8 <= large / small <= 2.3


def test_nw_op_scaling():
    small = count_ops(
        lambda s: sd.nw_align(sd.AlignmentProblem(30, 30, lambda i, j: 1), s)
    )
    large = count_ops(
        lambda s: sd.nw_align(sd.AlignmentProblem(60, 60, lambda i, j: 1), s)
    )
    assert 4 * 0.8 <= large / small <= 4 * 1.2


def test_nw_sum_constrained_op_scaling():
    small = count_ops(
        lambda s: sd.nw_align_sum_constrained(
            sd.AlignmentProblem(16, 16, lambda i, j: 1), 16, s
        )
    )
    large = count_ops(
        lambda s: sd.nw_align_sum_constrained(
            sd.AlignmentProblem(32, 32, lambda i, j: 1), 32, s
        )
    )
    assert 8 * 0.75 <= large / small <= 8 * 1.25


def test_absolute_op_budgets():
    # each recurrence stays within a small constant of its stated bound
    c = 8
    for n, k in ((20, 5), (40, 10)):
        total = count_ops(lambda s: sd.combinations(n, k, s, lambda i: 1))
        assert total <= c * n * k

    for n, lo, hi in ((12, 2, 4), (16, 3, 6)):
        p = sd.SegmentationProblem(n, lambda i, j: 1)
        total = count_ops(lambda s: sd.segment_fixed_count(p, lo, hi, s))
        assert total <= c * n * n * hi

    for n in (8, 12):
        p = sd.SegmentationProblem(n, lambda i, j: 1)
        total = count_ops(lambda s: sd.segment_min_length(p, 2, s))
        assert total <= c * n**3

    for rows, cols in ((10, 14), (20, 20)):
        p = sd.AlignmentProblem(rows, cols, lambda i, j: 1)
        total = count_ops(lambda s: sd.nw_align(p, s))
        assert total <= c * rows * cols

    for rows, cols, cap in ((8, 8, 6), (12, 10, 8)):
        p = sd.AlignmentProblem(rows, cols, lambda i, j: 1)
        total = count_ops(lambda s: sd.nw_align_sum_constrained(p, cap, s))
        assert total <= c * rows * cols * (cap + 1)

    for n, m in ((15, 5), (30, 10)):
        pairs = [(1, 1)] * n
        total = count_ops(lambda s: sd.events_m_of_n(pairs, m, s))
        assert total <= c * n * m
