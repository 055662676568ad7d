import collections
import functools
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("n, hi", [(1, 1), (6, 6), (14, 3), (420, 3)])
def test_segment_fixed_count_dots_only_live_rows(n, hi):
    # f[i][0] is zero for i >= 1, and f[i][m-1] for i < m-1: the dot for
    # f[j][m] reads row 0 of column 0 when m = 1, rows m-1..j-1 of column m-1 otherwise
    p = sd.SegmentationProblem(n, lambda i, j: 1)
    counted, counts = sd.instrumented(COUNT)
    assert sd.segment_fixed_count(p, 1, hi, counted) == sd.segment_fixed_count(p, 1, hi, COUNT)
    live = n + sum(j - m + 1 for m in range(2, hi + 1) for j in range(m - 1, n + 1))
    assert (counts.mul, counts.add) == (live, live + hi)  # and one add per count summed


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


# the column route of the segmentation folds against their list route: same values (by
# repr), witnesses and op counts, over weights with exact ties, near-ties within 1e-9,
# nan, infinities, signed zeros and a live score next to zero
SEGMENT_SCORES = (0.0, -0.0, 0.5, 1.0, 1.0 + 5e-10, 2.0, 2.0 - 1e-9, 3.0, -1.0, 1e-300,
                  math.inf, -math.inf, math.nan)
SEGMENT_FOLDS = ("opt", "count", "min-length", "min-length-at-least")
MINMAX_BASES = ("maxplus", "minplus", "maxprod", "bottleneck")


def segment_routes(n, scores, s, labelled, fold, lo, hi, monkeypatch):
    """``fold`` over the weights' callable and over their ColumnTable: (repr, witness, counts) each.

    The exact minimum length folds over a lifted semiring, whose rows are lists, so only
    the other folds must read the table's columns.
    """
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(algorithms, "COLUMN_SAMPLES", 1)
    cells = [(i, j) for j in range(1, n + 1) for i in range(1, j + 1)]
    cost = dict(zip(cells, scores)).__getitem__
    read = []

    def column(j):
        read.append(j)
        return np.array([cost((i, j)) for i in range(1, j + 1)])

    table = algorithms.ColumnTable(lambda i, j: cost((i, j)), column, labelled)
    run = {
        "opt": lambda p, s: sd.segment_opt(p, s),
        "count": lambda p, s: sd.segment_fixed_count(p, lo, hi, s),
        "min-length": lambda p, s: sd.segment_min_length(p, lo, s),
        "min-length-at-least": lambda p, s: sd.segment_min_length(p, lo, s, at_least=True),
    }[fold]
    runs = []
    for weight in (lambda i, j: table(i, j), table):
        counted, counts = sd.instrumented(s)
        got = run(sd.SegmentationProblem(n, weight), counted)
        witness = got.witness if isinstance(got, sd.Scored) else None
        runs.append((repr(got), witness, counts.add, counts.mul))
    assert read == ([] if fold == "min-length" else list(range(1, n + 1)))
    return runs


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
           st.just(n), st.lists(st.sampled_from(SEGMENT_SCORES), min_size=n * (n + 1) // 2,
                                max_size=n * (n + 1) // 2),
           st.integers(1, n), st.integers(0, n))),
       st.sampled_from(MINMAX_BASES), st.booleans(), st.sampled_from(SEGMENT_FOLDS))
def test_segment_columns_as_score_arrays_are_the_list_route(drawn, base, witnessed, fold):
    n, scores, lo, spread = drawn
    hi = min(n, lo + spread)  # lo < hi too
    s = CATALOG[base]
    if witnessed:
        s = sd.viterbi_simple_semiring(s)
    with pytest.MonkeyPatch.context() as monkeypatch:
        listed, arrayed = segment_routes(n, scores, s, witnessed, fold, lo, hi, monkeypatch)
    assert listed == arrayed


@pytest.mark.parametrize("base", MINMAX_BASES)
def test_segment_columns_with_many_ties_are_the_list_route(base, monkeypatch):
    # columns of dozens of scores drawn from four values, so most dots hold exact ties
    n = 40
    rng = random.Random(24)
    scores = [rng.choice((0.25, 0.5, 0.75, 1.0)) for _ in range(n * (n + 1) // 2)]
    for fold, lo, hi in (("opt", 1, 1), ("count", 3, 3), ("count", 2, 5),
                         ("min-length-at-least", 4, 4)):
        for s, witnessed in ((CATALOG[base], False),
                             (sd.viterbi_simple_semiring(CATALOG[base]), True)):
            listed, arrayed = segment_routes(n, scores, s, witnessed, fold, lo, hi, monkeypatch)
            assert listed == arrayed, (fold, lo, hi, witnessed)


@pytest.mark.parametrize("below", [True, False])
def test_segment_folds_read_columns_from_column_samples_on(below):
    # the array route needs a ColumnTable, a semiring that takes arrays and N >= COLUMN_SAMPLES
    np = pytest.importorskip("numpy")
    n = algorithms.COLUMN_SAMPLES - below
    read = []
    vit = sd.viterbi_simple_semiring(MINPLUS)
    for s, labelled, arrays in ((MINPLUS, False, True), (vit, True, True),
                                (COUNT, False, False), (CATALOG["prob"], False, False)):
        read.clear()
        table = algorithms.ColumnTable(lambda i, j: float(i * j),
                                       lambda j: read.append(j) or np.arange(1.0, j + 1) * j,
                                       labelled)
        sd.segment_opt(sd.SegmentationProblem(n, table), s)
        assert read == (list(range(1, n + 1)) if arrays and not below else []), s


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


def test_delannoy_counts_up_to_a_cap():
    for n in range(9):
        for m in range(9):
            exact = sd.delannoy(n, m)
            for cap in (0, 1, 12, 13, 8_988, 8_989, 20_000):
                assert sd.delannoy(n, m, cap) == min(exact, cap + 1), (n, m, cap)
    assert sd.delannoy(1, 9_999, 20_000) == 19_999
    assert sd.delannoy(1, 10_000, 20_000) == 20_001
    assert sd.delannoy(2_000, 2_000, 20_000) == 20_001  # stops in row 2, not row 2,000


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


# the probabilities where float rounding, subnormals and exact zeros and ones show
EDGE_PROBABILITIES = (0.0, 1.0, 5e-324, 1 - 1e-16, 0.5, 0.1, 1e-300, 0.999)


@pytest.mark.parametrize("seed", range(4))
def test_events_array_row_matches_the_list_row(seed):
    # pairs as an (N, 2) float array keep the row as a float array: the same values by
    # repr, as Python floats, and the closed-form op counts: adds = sum of min(k, M)
    # over the events, muls = twice that plus one per event
    np = pytest.importorskip("numpy")
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    probs = [rng.choice(EDGE_PROBABILITIES + (rng.random(),)) for _ in range(n)]
    pairs = [(1.0 - p, p) for p in probs]
    table = np.array(pairs, dtype=float)
    for m in sorted({0, 1, 2, 50, n - 1, n, n + 1}):
        if m < 0:
            continue
        lists, list_counts = sd.instrumented(CATALOG["prob"])
        arrays, array_counts = sd.instrumented(CATALOG["prob"])
        want, got = sd.events_m_of_n(pairs, m, lists), sd.events_m_of_n(table, m, arrays)
        assert type(got) is float and type(want) is float, m
        assert repr(got) == repr(want), (m, probs)
        tops = sum(min(k, m) for k in range(1, n + 1)) if m <= n else 0
        closed = (tops, 2 * tops + n) if m <= n else (0, 0)
        assert (array_counts.add, array_counts.mul) == (list_counts.add, list_counts.mul) == closed


def test_events_array_row_keeps_nan_and_inf_silent():
    # weights outside [0, 1]: inf * 0 and inf - inf give nan, as Python floats do,
    # with no RuntimeWarning (which the test configuration turns into an error)
    np = pytest.importorskip("numpy")
    pairs = [(math.inf, 0.0), (0.0, math.inf), (-math.inf, 1e308), (1e308, 10.0), (-0.0, -1.0)]
    for m in range(len(pairs) + 1):
        want = sd.events_m_of_n(pairs, m, CATALOG["prob"])
        got = sd.events_m_of_n(np.array(pairs), m, CATALOG["prob"])
        assert repr(got) == repr(want), m


@pytest.mark.parametrize("name", ["minplus", "maxprod", "bottleneck", "softmax", "count"])
def test_events_array_pairs_over_other_semirings(name):
    # the min/max bases keep an array row too; a semiring without array rows reads
    # the array's weights as Python floats into its list row
    np = pytest.importorskip("numpy")
    s = CATALOG[name]
    pairs = [(0.5, 0.75), (1.0, 0.25), (0.25, 1.0), (-0.0, 0.0)]
    for m in range(len(pairs) + 2):
        listed, list_counts = sd.instrumented(s)
        arrayed, array_counts = sd.instrumented(s)
        got = sd.events_m_of_n(np.array(pairs), m, arrayed)
        assert repr(got) == repr(sd.events_m_of_n(pairs, m, listed)), m
        assert (array_counts.add, array_counts.mul) == (list_counts.add, list_counts.mul)


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


# the array route of ordered_subsequences against its list route: same values (by repr),
# witnesses and op counts, over weights with exact ties, near-ties within 1e-9, nan,
# infinities and signed zeros, and values with duplicates and signed zeros
CHAIN_SCORES = SEGMENT_SCORES
CHAIN_VALUES = (-1.0, -0.0, 0.0, 1.0, 1.5, 2.0, 3.0)
CHAIN_BASES = MINMAX_BASES


def chain_routes(values, weights, s, relation, monkeypatch):
    """ordered_subsequences over a list and over a float array: (repr, witness, counts) each."""
    np = pytest.importorskip("numpy")
    picked = []
    selection = semirings._array_selection
    monkeypatch.setattr(semirings, "_array_selection",
                        lambda *args: picked.append(1) or selection(*args))
    runs = []
    for route in (list(values), np.array(values, dtype=float)):
        counted, counts = sd.instrumented(s)
        got = sd.ordered_subsequences(route, counted, lambda k: weights[k - 1], relation)
        witness = got.witness if isinstance(got, sd.Scored) else None
        runs.append((repr(got), witness, counts.add, counts.mul))
    assert len(picked) == len(values)  # the array route picks each chain sum's winner
    return runs


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(CHAIN_VALUES), st.sampled_from(CHAIN_SCORES)),
                max_size=12),
       st.sampled_from(CHAIN_BASES), st.booleans(), st.sampled_from((operator.lt, operator.le)))
def test_chain_sums_over_score_arrays_are_the_list_route(items, base, witnessed, relation):
    with pytest.MonkeyPatch.context() as monkeypatch:
        values = [v for v, _ in items]
        s = CATALOG[base]
        weights = [x for _, x in items]
        if witnessed:
            s = sd.viterbi_simple_semiring(s)
            weights = [sd.Scored(x, (k,)) for k, x in enumerate(weights, start=1)]
        listed, arrayed = chain_routes(values, weights, s, relation, monkeypatch)
        assert listed == arrayed


@pytest.mark.parametrize("base", CHAIN_BASES)
def test_longest_chains_over_score_arrays_are_the_list_route(base, monkeypatch):
    # rows of hundreds of scores with many exact ties: a permutation, then its shifted
    # reverse, as lis sees it past the CLI's break-even
    rng = random.Random(61)
    half = list(range(150))
    rng.shuffle(half)
    values = [float(v) for v in half + [150 + v for v in reversed(half)]]
    unit = {"maxplus": 1.0, "minplus": -1.0, "maxprod": 2.0, "bottleneck": 0.5}[base]
    for relation in (operator.lt, operator.le):
        weights = [sd.Scored(unit, (k,)) for k in range(1, len(values) + 1)]
        vit = sd.viterbi_simple_semiring(CATALOG[base])
        listed, arrayed = chain_routes(values, weights, vit, relation, monkeypatch)
        assert listed == arrayed
        plain = chain_routes(values, [unit] * len(values), CATALOG[base], relation, monkeypatch)
        assert plain[0] == plain[1]


def test_ordered_subsequences_reads_each_weight_once():
    np = pytest.importorskip("numpy")
    values = [3.0, 1.0, 2.0, 2.0, 5.0, 4.0]
    vit = sd.viterbi_simple_semiring(MAXPLUS)
    for route in (values, np.array(values)):
        for s, relation in ((vit, operator.lt), (vit, operator.le), (COUNT, operator.lt)):
            reads = collections.Counter()

            def w(k):
                reads[k] += 1
                return sd.Scored(1.0, (k,)) if s is vit else 1

            sd.ordered_subsequences(route, s, w, relation)
            assert reads == collections.Counter(range(1, len(values) + 1))


def test_chain_sums_take_the_list_route_off_float_arrays_and_lt_le():
    np = pytest.importorskip("numpy")
    vit = sd.viterbi_simple_semiring(MAXPLUS)
    subset = lambda a, b: (int(a) | int(b)) == int(b)
    # int scores past 2**53 are told apart as Python ints, not as float64s
    big = lambda k: (2**53, 2**53 + 1, 2**53)[k - 1]
    cases = [(np.array([1.0, 3.0, 2.0, 7.0]), vit, lambda k: sd.Scored(1.0, (k,)), subset),
             (np.array([1, 3, 2, 7]), vit, lambda k: sd.Scored(1.0, (k,)), operator.lt),
             (np.array([0.0, 0.0, 1.0]), MAXPLUS, big, operator.lt),
             (np.array([1.0, 3.0, 2.0, 7.0]), COUNT, lambda k: 1, operator.lt)]
    for values, s, w, relation in cases:
        got = sd.ordered_subsequences(values, s, w, relation)
        assert got == sd.ordered_subsequences(list(values), s, w, relation)
        assert type(got) is type(sd.ordered_subsequences(list(values), s, w, relation))
    assert sd.ordered_subsequences(np.array([0.0, 0.0, 1.0]), MAXPLUS, big) == 2**54 + 1


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


def reference_nw_align(p, s, band=None, live=None):
    """The cell-by-cell fold; with ``band``, the cells (i, j) with |i - j| > band, and with
    ``live``, those where it is false, stay ``s.zero`` and make no ops, nor read a weight."""
    w = p.weight
    if live is None:
        live = lambda i, j: band is None or abs(i - j) <= band
    prev = [s.one]
    for j in range(1, p.cols + 1):
        prev.append(s.mul(prev[j - 1], w(0, j)) if live(0, j) else s.zero)
    for i in range(1, p.rows + 1):
        cur = [s.mul(prev[0], w(i, 0)) if live(i, 0) else s.zero]
        for j in range(1, p.cols + 1):
            if not live(i, j):
                cur.append(s.zero)
                continue
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


def reference_misalignment(p, kind, cap, base, band=None, live=None):
    """The constrained alignment over a lifted semiring whose add is one base add per entry,
    cell by cell over the cells within ``band`` of the diagonal where ``live`` holds (all,
    if both are None)."""
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
    return lifting.project(base, alg, reference_nw_align(edges, lifted, band, live))


def least_gaps(rows, cols):
    """F[i][j], the least summed gap of a path to (i, j), over every cell of the table."""
    least = [[0] * (cols + 1) for _ in range(rows + 1)]
    for i in range(rows + 1):
        for j in range(cols + 1):
            steps = [least[i - 1][j - 1] + abs(i - j)] if i and j else []
            steps += [least[i - 1][j] + i] if i else []
            steps += [least[i][j - 1] + j] if j else []
            least[i][j] = min(steps, default=0)
    return least


def gap_live(rows, cols, cap):
    """Whether some path reaches (i, j) with summed gap at most ``cap``."""
    least = least_gaps(rows, cols)
    return lambda i, j: least[i][j] <= cap


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
         lambda s: reference_misalignment(align, "sum", sum_cap, s,
                                          live=gap_live(rows, cols, sum_cap))),
        ("nw_align_max_constrained", lambda s: sd.nw_align_max_constrained(align, max_cap, s),
         lambda s: reference_misalignment(align, "max", max_cap, s),
         lambda s: reference_nw_align(filtered_moves(align, max_cap, s.zero), s, max_cap)),
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
                live = gap_live(rows, cols, cap)
                assert_same_fold(lambda s: sd.nw_align_sum_constrained(p, cap, s),
                                 lambda s: reference_misalignment(p, "sum", cap, s, live=live),
                                 base, (cap, *what))


@pytest.mark.parametrize("name", BLOCK_BASES)
def test_summed_gap_blocks_shift_by_every_key(name):
    # keys from -2 to past the carrier, one per cell of a block: a negative key
    # shifts down, as the scalar closed form does, with its values and op counts
    base = CATALOG[name]
    alg = sd.subset_size_algebra(3)
    rng = random.Random(137)
    keys = range(-2, alg.size + 2)
    for _ in range(10):
        vecs = [tuple(rng.choice(SPECIAL_WEIGHTS) for _ in range(alg.size)) for _ in keys]
        edges = [(rng.choice(SPECIAL_WEIGHTS), key) for key in keys]
        blocks, block_counts = sd.instrumented(base)
        lifted = lifting.edge_lifted_semiring(blocks, alg, lifting.subset_size_edge_product)
        got = lifted.mul_rows(lifted.row(vecs), edges)
        scalar, scalar_counts = sd.instrumented(base)
        want = [lifting.subset_size_edge_product(scalar, alg, vec, weight, key)
                for vec, (weight, key) in zip(vecs, edges)]
        assert repr([tuple(vec) for vec in got.tolist()]) == repr(want), (vecs, edges)
        assert (block_counts.add, block_counts.mul) == (scalar_counts.add, scalar_counts.mul)
    if name == "minplus":
        one = lifting.edge_lifted_semiring(base, alg, lifting.subset_size_edge_product)
        got = one.mul_rows(one.row([(1.0, 2.0, 3.0, 4.0)]), [(0.5, -1)])
        assert got.tolist() == [[2.5, 3.5, 4.5, math.inf]]


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
                     lambda s: reference_misalignment(p, "sum", 20, s,
                                                      live=gap_live(60, 60, 20)), base, name)


# --- summed gaps fold their live hull ---------------------------------------------------

# shapes with n != m, an empty side, and corners no capped path reaches: (9, 2) needs
# seven more deletions than insertions, each of gap its row, so its least summed gap is 42
HULL_SHAPES = ((0, 0), (0, 4), (4, 0), (1, 1), (3, 5), (5, 3), (6, 6), (9, 2), (2, 9), (7, 7))
HULL_WEIGHTS = {
    "count": (0, 1, 2, 3),
    "bool": (False, True),
    "prob": (0.0, 0.25, 0.5, 1.0),
    # -inf and nan are left out: zero (inf) times either is nan, which softmax's sums
    # carry where min does not, so the unrestricted fold turns nan at cells no capped
    # path reaches; align refuses such costs as data errors
    "softmax": (-0.0, 0.0, 0.25, 1.0, 2.5, math.inf),
    "expectation": ((0.0, 0.5), (0.5, 0.25), (0.0, 1.0), (1.0, 0.0)),
}
HULL_BASES = [(name, s, name) for name, s in CATALOG.items()]
HULL_BASES += [(f"viterbi-simple[{name}]", sd.viterbi_simple_semiring(CATALOG[name]), name)
               for name in ("bool", *BLOCK_BASES)]


def test_gap_hull_holds_the_live_cells_of_each_diagonal():
    for rows in range(10):
        for cols in range(10):
            least = least_gaps(rows, cols)
            for cap in (*range(rows + cols + 3), (rows + cols) * max(rows, cols)):
                hull = algorithms.gap_hull(rows, cols, cap)
                assert len(hull) == rows + cols + 1
                for d, (lo, hi) in enumerate(hull):
                    live = [i for i in range(max(0, d - cols), min(rows, d) + 1)
                            if least[i][d - i] <= cap]
                    assert live == list(range(lo, hi + 1)), (rows, cols, cap, d)
    # perfbench's sum190 call: 240 of the 5,998 band cells off the edges are live
    hull = algorithms.gap_hull(190, 190, 16)
    assert sum(max(0, min(hi, d - 1) - max(lo, 1) + 1) for d, (lo, hi) in enumerate(hull)) == 240


@pytest.mark.parametrize("name, s, base", HULL_BASES, ids=[b[0] for b in HULL_BASES])
def test_summed_gap_hull_gives_the_unrestricted_fold(name, s, base):
    # values by repr against every cell of the table, and op counts against the cells
    # a capped path reaches; the block form, where a base has one, and the lists
    grid, tupled = HULL_WEIGHTS.get(base, SPECIAL_WEIGHTS), name != base
    rng = random.Random(131)
    unreachable = 0
    for rows, cols in HULL_SHAPES:
        moves = {mv: rng.choice(grid) for mv in oracles.alignment_labels(rows, cols)}
        weight = (lambda i, j: sd.Scored(moves[i, j], ((i, j),))) if tupled else (
            lambda i, j: moves[i, j])
        p = sd.AlignmentProblem(rows, cols, weight)
        least = least_gaps(rows, cols)
        for cap in (*range(max(rows, cols) + 3), least[rows][cols],
                    (rows + cols) * max(rows, cols)):
            unreachable += least[rows][cols] > cap
            want = repr(reference_misalignment(p, "sum", cap, s))
            live = gap_live(rows, cols, cap)
            for blocks in (True, False):
                what = (rows, cols, cap, blocks, moves)
                got = sd.nw_align_sum_constrained(p, cap, s, blocks=blocks)
                assert repr(got) == want, what
                assert_same_fold(lambda c: sd.nw_align_sum_constrained(p, cap, c, blocks=blocks),
                                 lambda c: reference_misalignment(p, "sum", cap, c, live=live),
                                 s, what)
    assert unreachable > 0


def test_summed_gap_reads_the_hull_and_the_in_cap_edges_only():
    for rows, cols in ((0, 3), (4, 0), (3, 5), (6, 6), (9, 2), (12, 12)):
        for cap in range(max(rows, cols) + 3):
            live = gap_live(rows, cols, cap)
            want = collections.Counter(
                mv for mv in oracles.alignment_labels(rows, cols)
                if (live(*mv) if mv[0] and mv[1] else max(mv) <= cap))
            for s, blocks in ((COUNT, False), (MINPLUS, False), (MINPLUS, True)):
                reads = collections.Counter()

                def weight(i, j):
                    reads[i, j] += 1
                    return s.one

                sd.nw_align_sum_constrained(sd.AlignmentProblem(rows, cols, weight), cap, s,
                                            blocks=blocks)
                assert reads == want, (rows, cols, cap, s.name, blocks)


def test_nw_align_reads_each_move_weight_once():
    for rows, cols in ((0, 0), (0, 3), (4, 0), (3, 5), (6, 6)):
        reads = collections.Counter()

        def weight(i, j):
            reads[i, j] += 1
            return 1

        assert sd.nw_align(sd.AlignmentProblem(rows, cols, weight), COUNT) == sd.delannoy(rows, cols)
        assert reads == collections.Counter(oracles.alignment_labels(rows, cols))
        assert sum(reads.values()) == rows * cols + rows + cols


def test_a_gap_cap_reads_each_move_weight_within_it_once():
    for rows, cols in ((0, 3), (4, 0), (3, 5), (6, 6), (7, 4)):
        for cap in range(max(rows, cols) + 1):
            reads = collections.Counter()

            def weight(i, j):
                reads[i, j] += 1
                return 1

            want = collections.Counter(m for m in oracles.alignment_labels(rows, cols)
                                       if abs(m[0] - m[1]) <= cap)
            sd.nw_align_max_constrained(sd.AlignmentProblem(rows, cols, weight), cap, COUNT)
            assert reads == want, (rows, cols, cap)


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
                                 filtered_moves(p, cap, s.zero), term_by_term(s), cap),
                             vit, (cap, moves))


def move_table(rows, cols, moves):
    """``moves``, Scored weights each labelled with its own move, as a ``MoveTable``."""
    import numpy as np

    scores = lambda labels: np.array([moves[m].score for m in labels], dtype=float)
    match = scores([(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)])
    match = match.reshape(rows, cols)

    def diagonal(d, first, last):  # the scores of w(i, d - i), i = first..last
        i = np.arange(first, last + 1)
        return match[i - 1, d - i - 1]

    return algorithms.MoveTable(lambda i, j: moves[i, j], diagonal,
                                scores([(i, 0) for i in range(1, rows + 1)]),
                                scores([(0, j) for j in range(1, cols + 1)]))


@pytest.mark.parametrize("name", BLOCK_BASES)
def test_witness_block_route_is_the_term_by_term_fold_on_tie_heavy_moves(name):
    # below any size threshold: a move table takes the block route at every size
    base = CATALOG[name]
    grid = TIE_HEAVY_SCORES + (base.zero, base.one)
    vit = sd.viterbi_simple_semiring(base)
    rng = random.Random(107)
    for rows in range(7):
        for cols in range(7):
            moves = {mv: sd.Scored(rng.choice(grid), (mv,))
                     for mv in oracles.alignment_labels(rows, cols)}
            listed = sd.AlignmentProblem(rows, cols, lambda i, j: moves[i, j])
            p = sd.AlignmentProblem(rows, cols, move_table(rows, cols, moves))
            # the table route runs: its folds keep their moves in a code table
            assert p.moves(vit).codes is not None
            assert p.moves(sd.instrumented(vit)[0]).codes is not None
            cap = rng.randint(0, max(rows, cols))
            # repr spells the score bit for bit (-0.0, nan) and the witness out
            assert_same_fold(lambda s: sd.nw_align(p, s),
                             lambda s: reference_nw_align(listed, term_by_term(s)), vit, moves)
            assert_same_fold(lambda s: sd.nw_align(p, s), lambda s: sd.nw_align(listed, s),
                             vit, moves)
            assert_same_fold(lambda s: sd.nw_align_max_constrained(p, cap, s),
                             lambda s: reference_nw_align(
                                 filtered_moves(listed, cap, s.zero), term_by_term(s), cap),
                             vit, (cap, moves))


def test_the_walk_back_steps_over_capped_moves_and_stops_at_an_empty_cell():
    # no fold keeps a capped deletion in a live cell (its product is zero or nan, and a nan
    # running best takes the insertion after it), so these moves are set by hand
    codes = algorithms.MoveCodes(3, 3, 1, math.inf)
    path = {(3, 3): algorithms.INSERT, (3, 2): algorithms.DELETE, (2, 2): algorithms.MATCH,
            (1, 1): algorithms.DELETE, (0, 1): algorithms.INSERT}
    for (i, j), move in path.items():
        codes.codes[i * 4 + j] = move
    # (0, 3) and (3, 0) are past the cap of 1: stepped over, unlabelled
    assert codes.spell() == ((0, 1), (1, 0), (2, 2))
    codes.codes[1 * 4 + 1] = semirings.EMPTY
    assert codes.spell() == ((2, 2),)


def test_witness_block_route_past_simd_widths():
    # 61-cell diagonals, each on three live terms with ties, against the list route
    vit = sd.viterbi_simple_semiring(MINPLUS)
    rng = random.Random(109)
    moves = {mv: sd.Scored(rng.choice((0.0, 1.0, 1.0 + 5e-10, 2.0)), (mv,))
             for mv in oracles.alignment_labels(60, 60)}
    listed = sd.AlignmentProblem(60, 60, lambda i, j: moves[i, j])
    p = sd.AlignmentProblem(60, 60, move_table(60, 60, moves))
    assert_same_fold(lambda s: sd.nw_align(p, s), lambda s: sd.nw_align(listed, s), vit, None)
    for cap in (0, 7, 60):
        assert_same_fold(lambda s: sd.nw_align_max_constrained(p, cap, s),
                         lambda s: sd.nw_align_max_constrained(listed, cap, s), vit, cap)


def test_witness_block_route_under_a_narrow_cap():
    # a 250 x 250 table whose band at cap 5 is a twentieth of it: blocks, lists and
    # the banded cell-by-cell fold agree on every score, witness and op count
    vit = sd.viterbi_simple_semiring(MINPLUS)
    rng = random.Random(131)
    moves = {mv: sd.Scored(rng.choice((0.0, 1.0, 1.0 + 5e-10, 2.0)), (mv,))
             for mv in oracles.alignment_labels(250, 250)}
    listed = sd.AlignmentProblem(250, 250, lambda i, j: moves[i, j])
    p = sd.AlignmentProblem(250, 250, move_table(250, 250, moves))
    assert_same_fold(lambda s: sd.nw_align_max_constrained(p, 5, s),
                     lambda s: sd.nw_align_max_constrained(listed, 5, s), vit, "lists")
    assert_same_fold(lambda s: sd.nw_align_max_constrained(p, 5, s),
                     lambda s: reference_nw_align(filtered_moves(listed, 5, s.zero),
                                                  term_by_term(s), 5), vit, "cells")


def test_move_tables_fold_other_semirings_through_the_callable():
    moves = {mv: sd.Scored(1.0, (mv,)) for mv in oracles.alignment_labels(3, 4)}
    table = move_table(3, 4, moves)
    assert table(2, 3) is moves[2, 3]
    for s in (sd.viterbi_semiring(MINPLUS), sd.viterbi_simple_semiring(sd.Semiring(
            "custom-min", min, operator.add, math.inf, 0.0))):
        p = sd.AlignmentProblem(3, 4, table)
        assert type(p.moves(s).deletes) is list
        assert sd.nw_align(p, s) == sd.nw_align(sd.AlignmentProblem(3, 4, table.weight), s)


def test_a_replaced_weight_never_folds_from_the_table():
    # dataclasses.replace(problem, weight=...) must read the new weights, not the old table
    import dataclasses

    vit = sd.viterbi_simple_semiring(MINPLUS)
    moves = {mv: sd.Scored(1.0, (mv,)) for mv in oracles.alignment_labels(4, 4)}
    p = sd.AlignmentProblem(4, 4, move_table(4, 4, moves))
    cheap = {mv: sd.Scored(0.0 if mv[0] == mv[1] else 5.0, (mv,)) for mv in moves}
    replaced = dataclasses.replace(p, weight=lambda i, j: cheap[i, j])
    got = sd.nw_align(replaced, vit)
    assert (got.score, got.witness) == (0.0, ((1, 1), (2, 2), (3, 3), (4, 4)))
    assert sd.nw_align(p, vit).score == 4.0


def test_a_prefix_reads_the_top_left_corner_of_its_table():
    vit = sd.viterbi_simple_semiring(MAXPLUS)
    rng = random.Random(113)
    moves = {mv: sd.Scored(rng.choice((0.0, 1.0, 2.0, 3.0)), (mv,))
             for mv in oracles.alignment_labels(9, 7)}
    table = move_table(9, 7, moves)
    for rows, cols in ((0, 0), (1, 1), (4, 2), (9, 7), (5, 7)):
        got = sd.nw_align(sd.AlignmentProblem(rows, cols, table), vit)
        want = sd.nw_align(sd.AlignmentProblem(rows, cols, lambda i, j: moves[i, j]), vit)
        assert repr(got) == repr(want), (rows, cols)


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


# --- gap caps fold a band ------------------------------------------------------------

BAND_CASES = {
    "count": (COUNT, (0, 1, 2, 3)),
    "prob": (CATALOG["prob"], (0.0, 0.25, 0.5, 1.0)),
    "bool": (CATALOG["bool"], (False, True)),
    "minplus": (MINPLUS, (0.0, 1.0, 2.5, math.inf)),
    "viterbi:minplus": (sd.viterbi_simple_semiring(MINPLUS),
                        (0.0, 1.0, 1.0 + 5e-10, 2.0, math.inf)),
}


@pytest.mark.parametrize("name", BAND_CASES)
def test_gap_caps_give_the_unbanded_folds(name):
    # the banded folds against every cell of the table: a cell that diagonal d-2
    # left just below the band, read as f[i][j] on the band's edge, would show
    s, grid = BAND_CASES[name]
    tupled = isinstance(s.zero, sd.Scored)
    rng = random.Random(127)
    shapes = [(1, 7), (7, 1), (0, 5), (5, 0), (0, 0), (1, 1)]
    shapes += [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(14)]
    for rows, cols in shapes:
        for _ in range(3):
            moves = {}
            for mv in oracles.alignment_labels(rows, cols):
                x = rng.choice(grid)
                moves[mv] = sd.Scored(x, (mv,)) if tupled else x
            p = sd.AlignmentProblem(rows, cols, lambda i, j: moves[i, j])
            for cap in range(max(rows, cols) + 2):
                assert algorithms.band_cells(rows, cols, cap) == sum(
                    abs(i - j) <= cap for i in range(1, rows + 1) for j in range(1, cols + 1))
                filtered = filtered_moves(p, cap, s.zero)
                got = sd.nw_align_sum_constrained(p, cap, s)
                want = reference_misalignment(filtered, "sum", cap, s)
                assert repr(got) == repr(want), ("sum", cap, moves)
                if cap <= max(rows, cols):  # a larger largest-gap cap is refused
                    got = sd.nw_align_max_constrained(p, cap, s)
                    want = reference_nw_align(filtered, s)
                    assert repr(got) == repr(want), ("max", cap, moves)


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
    # a gap cap makes the ops of the cells within it, as the banded cell-by-cell
    # fold does, and the plain fold's once the band is the whole table
    p = sd.AlignmentProblem(10, 10, lambda i, j: 1)
    plain = count_ops(lambda s: sd.nw_align(p, s))
    for cap in range(11):
        banded = count_ops(lambda s: reference_nw_align(filtered_moves(p, cap, s.zero), s, cap))
        assert count_ops(lambda s: sd.nw_align_max_constrained(p, cap, s)) == banded, cap
        assert (banded == plain) == (cap >= 10), cap


def test_at_least_min_length_makes_the_plain_fold_ops():
    # every segment at least L long is an edge filter, not a lifting: segment_opt's
    # N(N+1)/2 adds and muls at every target (N=3: 6 and 6)
    for n in (3, 12):
        p = sd.SegmentationProblem(n, lambda i, j: 1)
        for target in range(1, n + 1):
            counted, counts = sd.instrumented(COUNT)
            sd.segment_min_length(p, target, counted, at_least=True)
            assert (counts.add, counts.mul) == (n * (n + 1) // 2,) * 2, (n, target)


@pytest.mark.parametrize("at_least", [False, True], ids=["exact", "at_least"])
def test_min_length_reads_no_shorter_segment(at_least):
    n = 7
    for target in range(1, n + 1):
        read = []
        p = sd.SegmentationProblem(n, lambda i, j: read.append((i, j)) or 1)
        sd.segment_min_length(p, target, COUNT, at_least=at_least)
        assert sorted(read) == sorted(
            (i, j) for i, j in oracles.segment_labels(n) if j - i + 1 >= target
        ), target


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


# the op counts of the band fold, every cell within the cap of the diagonal, at
# (16, 16, cap 16) and (32, 32, cap 32): the hull fold stays at or below them
SUMMED_GAP_BAND_OPS = {16: 16337, 32: 125345}


def test_nw_sum_constrained_op_scaling():
    # the fold grows as its hull entries do, the live cells times (cap + 1)
    ops, entries = {}, {}
    for n in (16, 32):
        ops[n] = count_ops(
            lambda s: sd.nw_align_sum_constrained(sd.AlignmentProblem(n, n, lambda i, j: 1), n, s)
        )
        entries[n] = sum(g <= n for row in least_gaps(n, n) for g in row) * (n + 1)
        assert ops[n] <= SUMMED_GAP_BAND_OPS[n], n
    ratio = entries[32] / entries[16]
    assert ratio * 0.75 <= ops[32] / ops[16] <= ratio * 1.25, (ops, entries)


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
        assert total <= c * n**2

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
