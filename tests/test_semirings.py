import contextlib
import dataclasses
import functools
import math
import operator
import random
from itertools import count, islice, repeat

import pytest

import semiring_dp as sd
from semiring_dp import lifting, semirings
from semiring_dp.semirings import SELECTIVE_SEMIRINGS
from semiring_dp.laws import (
    bool_values,
    catalog_samplers,
    int_values,
    law_failures,
    lifted_values,
    scored_sequences,
    scored_sets,
)

CATALOG = sd.standard_semirings()


def test_counting_examples():
    s = CATALOG["count"]
    assert s.add(2, 3) == 5
    assert s.mul(s.one, 7) == 7
    assert s.sum([1, 1, 1]) == 3


def test_counting_is_arbitrary_precision():
    s = CATALOG["count"]
    big = s.prod([10**18] * 4)
    assert big == 10**72  # cannot wrap


def test_standard_semiring_identities():
    assert CATALOG["bool"].zero is False and CATALOG["bool"].one is True
    assert CATALOG["minplus"].zero == math.inf and CATALOG["minplus"].one == 0.0
    assert CATALOG["maxplus"].zero == -math.inf
    assert CATALOG["softmax"].zero == math.inf
    assert CATALOG["bottleneck"].zero == 0.0 and CATALOG["bottleneck"].one == 1.0


def test_tropical_add_is_min():
    assert CATALOG["minplus"].add(3.0, 5.0) == 3.0


def test_softmax_identity_and_value():
    s = CATALOG["softmax"]
    assert s.add(2.5, math.inf) == 2.5
    assert abs(s.add(0.0, 0.0) - (-math.log(2.0))) < 1e-12


def test_softmax_stays_stable_for_large_magnitudes():
    s = CATALOG["softmax"]
    # the naive -ln(e^-x + e^-y) underflows to inf around x=y=750
    assert s.eq(s.add(1000.0, 1000.0), 1000.0 - math.log(2.0))
    assert s.eq(s.add(5.0, 5.0 + 40.0), 5.0)


def test_softmax_dominance():
    s = CATALOG["softmax"]
    rng = random.Random(3)
    for _ in range(200):
        x, y = rng.uniform(-30, 30), rng.uniform(-30, 30)
        assert s.add(x, y) <= min(x, y)
    x = rng.uniform(-5, 5)
    assert abs(s.add(x, x + 40.0) - x) < 1e-9


def test_expectation_identity_as_printed_fails():
    # The table-printed unit (1, 0) is not a unit under the printed
    # product (p*y + q*x, p*q); the worked substitution gives (0.5, 0).
    s = CATALOG["expectation"]
    assert s.mul((1.0, 0.0), (3.0, 0.5)) == (0.5, 0.0)
    assert not s.eq(s.mul((1.0, 0.0), (3.0, 0.5)), (3.0, 0.5))
    # The laws force (0, 1): it is a two-sided unit, and any unit must
    # have weight 1 (from the pq slot) and value 0 (from p*y + q*x).
    assert s.eq(s.mul(s.one, (3.0, 0.5)), (3.0, 0.5))
    assert s.eq(s.mul((3.0, 0.5), s.one), (3.0, 0.5))
    assert s.one == (0.0, 1.0)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_semiring_laws(name):
    sample = catalog_samplers()[name]
    assert law_failures(CATALOG[name], sample, trials=300, seed=11) == []


def _broken_laws(failures):
    # each failure reads "<semiring> <law>: <got> != <want> for ..."
    return {f.split(":", 1)[0].split(" ", 1)[1] for f in failures}


def test_law_failures_reports_the_laws_a_semiring_breaks():
    bad_one = dataclasses.replace(sd.expectation_semiring(), one=(1.0, 0.0))
    failures = law_failures(bad_one, catalog_samplers()["expectation"], trials=50)
    assert _broken_laws(failures) == {"mul-left-identity", "mul-right-identity"}
    minus = sd.Semiring("minus", operator.sub, operator.mul, 0, 1)
    assert "add-commutativity" in _broken_laws(law_failures(minus, int_values(), trials=50))
    assert len(law_failures(minus, int_values(), trials=50, limit=3)) == 3


def test_generator_semiring_laws():
    gen = sd.generator_semiring()

    def sample(rng):
        return sd.PathSet(
            tuple(rng.choice("abc") for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(0, 3))
        )

    assert law_failures(gen, sample, trials=300, seed=5) == []


def test_viterbi_semiring_laws():
    vit = sd.viterbi_semiring(sd.maxplus_semiring())
    assert law_failures(vit, scored_sets(), trials=300, seed=7) == []


def test_viterbi_simple_semiring_laws_on_distinct_scores():
    vit = sd.viterbi_simple_semiring(sd.maxplus_semiring())
    assert law_failures(vit, scored_sequences(), trials=300, seed=9) == []


def test_viterbi_examples():
    vit = sd.viterbi_semiring(sd.maxplus_semiring())
    a = sd.Scored(3.0, frozenset({("a",)}))
    b = sd.Scored(5.0, frozenset({("b",)}))
    assert vit.eq(vit.add(a, b), b)
    tie = vit.add(sd.Scored(4.0, frozenset({("a",)})), sd.Scored(4.0, frozenset({("b",)})))
    assert tie == sd.Scored(4.0, frozenset({("a",), ("b",)}))
    prod = vit.mul(sd.Scored(2.0, frozenset({("a",)})), sd.Scored(3.0, frozenset({("b",)})))
    assert prod == sd.Scored(5.0, frozenset({("a", "b")}))


def test_viterbi_simple_examples():
    vit = sd.viterbi_simple_semiring(sd.maxplus_semiring())
    tie = vit.add(sd.Scored(4.0, ("a",)), sd.Scored(4.0, ("b",)))
    assert tie == sd.Scored(4.0, ("a",))  # ties keep the left operand
    assert vit.mul(vit.one, sd.Scored(7.0, ("x",))) == sd.Scored(7.0, ("x",))
    folded = vit.prod(
        [sd.Scored(1.0, ("d1",)), sd.Scored(2.0, ("d2",)), sd.Scored(3.0, ("d3",))]
    )
    assert folded == sd.Scored(6.0, ("d1", "d2", "d3"))


def test_viterbi_simple_add_near_ties_are_relative_and_keep_the_left_operand():
    vit = sd.viterbi_simple_semiring(sd.minplus_semiring())
    left = sd.Scored(1.0, ("left",))
    assert vit.add(left, sd.Scored(1.0 - 1e-10, ("right",))) is left  # within 1e-9 relative
    right = sd.Scored(1.0 - 1e-8, ("right",))
    assert vit.add(left, right) is right
    # no absolute floor: scores far below 1e-12 still rank
    tiny, tinier = sd.Scored(2e-15, ("a",)), sd.Scored(1e-15, ("b",))
    assert vit.add(tiny, tinier) is tinier
    assert vit.add(tinier, tiny) is tinier


def test_viterbi_simple_deep_trail_flattens_without_recursion():
    vit = sd.viterbi_simple_semiring(sd.minplus_semiring())
    n = 10**5
    folded = vit.prod(sd.Scored(1.0, (k,)) for k in range(n))
    assert folded.score == float(n)
    assert type(folded.witness) is tuple
    assert folded.witness == tuple(range(n))
    assert folded == sd.Scored(float(n), tuple(range(n)))
    assert hash(folded) == hash(sd.Scored(float(n), tuple(range(n))))


def test_joined_witness_equals_and_hashes_as_its_flat_tuple():
    vit = sd.viterbi_simple_semiring(sd.maxplus_semiring())
    joined = vit.mul(sd.Scored(1.0, ("a",)), sd.Scored(2.0, ("b", "c")))
    flat = sd.Scored(3.0, ("a", "b", "c"))
    assert type(joined.witness) is tuple
    assert joined.witness == ("a", "b", "c")
    assert joined == flat and flat == joined
    assert not joined != flat
    assert hash(joined) == hash(flat)
    assert {joined: "found"}[flat] == "found"
    assert joined != sd.Scored(3.0, ("a", "b"))
    assert joined != sd.Scored(4.0, ("a", "b", "c"))
    assert repr(joined) == "Scored(score=3.0, witness=('a', 'b', 'c'))"
    # ordering is the flat tuples' ordering too, ties on score included
    later = sd.Scored(3.0, ("b",))
    assert joined < later and later > joined and joined <= flat and flat >= joined
    assert sorted([later, joined]) == [flat, later]


def test_viterbi_simple_mul_with_an_empty_witness_keeps_the_other_side():
    vit = sd.viterbi_simple_semiring(sd.maxplus_semiring())
    x = sd.Scored(2.0, ("x", "y"))
    assert vit.mul(vit.one, x).trail is x.trail
    assert vit.mul(x, sd.Scored(1.0, ())).trail is x.trail
    # a user's 2-tuple of label tuples is a two-label witness, never a join
    pair = sd.Scored(1.0, (("a",), ("b",)))
    assert pair.witness == (("a",), ("b",))
    assert vit.mul(pair, x).witness == (("a",), ("b",), "x", "y")


def test_viterbi_score_matches_plain_fold():
    # tupling must not change the score component
    rng = random.Random(21)
    base = sd.maxplus_semiring()
    vit = sd.viterbi_simple_semiring(base)
    for _ in range(50):
        weights = [rng.uniform(-3, 3) for _ in range(6)]
        plain = base.sum(base.prod(weights[:k]) for k in range(1, 7))
        tupled = vit.sum(
            vit.prod(sd.Scored(w, (i,)) for i, w in enumerate(weights[:k]))
            for k in range(1, 7)
        )
        assert base.eq(plain, tupled.score)
        # re-evaluating the witness reproduces the score
        rebuilt = base.prod(weights[i] for i in tupled.witness)
        assert base.eq(rebuilt, tupled.score)


def test_lifted_vector_laws_spot_check():
    base = CATALOG["count"]
    alg = sd.subset_size_algebra(3)
    lifted = sd.lifted_semiring(base, alg)
    sample = lifted_values(catalog_samplers()["count"], alg.size)
    assert law_failures(lifted, sample, trials=150, seed=13) == []


def test_instrumented_counts_operations():
    s, counts = sd.instrumented(CATALOG["count"])
    s.sum([1, 2, 3])
    s.prod([1, 2])
    assert counts.add == 3
    assert counts.mul == 2
    counts.reset()
    assert counts.total() == 0


# --- row operations ----------------------------------------------------------------

ONE_SCAN_BASES = ("minplus", "maxplus", "maxprod", "bottleneck")


def left_sum(s, values):
    acc = s.zero
    for v in values:
        acc = s.add(acc, v)
    return acc


def left_dot(s, xs, ys):
    acc = s.zero
    for x, y in zip(xs, ys):
        acc = s.add(acc, s.mul(x, y))
    return acc


def score_rows(base):
    """Score rows where a one-scan selection could go wrong; every score is in [0, 1]."""
    chain = [1.0, 1.0 - 6e-10, 1.0 - 1.2e-9]  # each step a near-tie, the ends are not
    tiny = [2e-15, 1e-15, 2e-15 * (1 - 5e-10)]  # far below any absolute tolerance
    rows = [
        chain, chain[::-1], [0.5] + chain + [0.5], chain[::-1] + [0.25, 1.0],
        tiny, tiny[::-1],
        [0.5, 0.25, 0.5, 0.25, 0.75, 0.75], [0.75, 0.75, 0.75], [0.0, 0.0, 0.5, 0.0],
        [math.nan, 0.5, 0.25], [0.5, math.nan, 0.25], [0.25, 0.5, math.nan],
        [math.nan, math.nan],
        [base.zero] * 3, [base.zero, 0.5, base.zero], [],
        [0.5 * (1 + 5e-10), 0.5, 0.5 * (1 - 5e-10)],  # the winner's near-ties on both sides
    ]
    rng = random.Random(31)
    grid = (0.0, 0.25, 0.5, 0.5 * (1 + 4e-10), 0.75, 1.0, base.zero)
    rows += [[rng.choice(grid) for _ in range(rng.randint(1, 12))] for _ in range(200)]
    return rows


def same_float(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1, a) == math.copysign(1, b)


@pytest.mark.parametrize("name", ONE_SCAN_BASES)
def test_selective_base_rows_equal_their_left_folds(name):
    base = CATALOG[name]
    for scores in score_rows(base):
        weights = [base.one] * len(scores)
        assert same_float(base.sum(scores), left_sum(base, scores)), scores
        assert same_float(base.sum(iter(scores)), left_sum(base, scores)), scores
        assert same_float(base.dot(scores, weights), left_dot(base, scores, weights)), scores
        assert same_float(base.dot(weights, scores), left_dot(base, weights, scores)), scores


@pytest.mark.parametrize("name", ONE_SCAN_BASES)
def test_selective_rows_fold_from_a_replaced_zero(name):
    # the rows once kept the catalog zero: minplus with zero 5.0 summed [6.0] to 6.0
    base = dataclasses.replace(CATALOG[name], zero=0.5)
    assert base.sum([]) == 0.5
    for scores in score_rows(base):
        weights = [base.one] * len(scores)
        assert same_float(base.sum(scores), left_sum(base, scores)), scores
        assert same_float(base.dot(scores, weights), left_dot(base, scores, weights)), scores
    capped = dataclasses.replace(CATALOG["minplus"], zero=5.0)
    assert capped.sum([6.0]) == capped.dot([6.0], [0.0]) == left_sum(capped, [6.0]) == 5.0


def test_a_semiring_is_its_six_fields():
    assert [f.name for f in dataclasses.fields(sd.Semiring)] == [
        "name", "add", "mul", "zero", "one", "eq"
    ]


@pytest.mark.parametrize("name", ONE_SCAN_BASES)
def test_witness_rows_equal_their_left_folds_in_score_and_witness(name):
    base = CATALOG[name]
    vit = sd.viterbi_simple_semiring(base)
    rng = random.Random(37)
    for scores in score_rows(base):
        row = [sd.Scored(x, (("x", k),)) for k, x in enumerate(scores)]
        # the other factor of each product: one, or a score that keeps ties tied
        ys = [sd.Scored(rng.choice((base.one, base.one, 0.5)), (("y", k),))
              for k in range(len(row))]
        for got, want in (
            (vit.sum(row), left_sum(vit, row)),
            (vit.sum(x for x in row), left_sum(vit, row)),
            (vit.dot(row, ys), left_dot(vit, row, ys)),
            (vit.dot(ys, row), left_dot(vit, ys, row)),
        ):
            assert type(got) is sd.Scored
            assert same_float(got.score, want.score), scores
            assert got.witness == want.witness, scores


@pytest.mark.parametrize("name", ONE_SCAN_BASES)
def test_score_rows_sum_to_the_left_folds_of_their_entries(name):
    np = pytest.importorskip("numpy")
    rng = random.Random(41)
    both_infinities = [[math.inf, -math.inf, 0.5], [-math.inf, 0.5, math.inf, math.inf]]
    for base in (CATALOG[name], dataclasses.replace(CATALOG[name], zero=0.5)):
        vit = sd.viterbi_simple_semiring(base)
        for scores in score_rows(base) + both_infinities:
            # the row is over the positions a mask keeps, as a chain sum's is
            at = np.array([rng.random() < 0.7 for _ in scores], dtype=bool).nonzero()[0]
            kept = [scores[k] for k in at]
            row = semirings.ScoreRow(np.array(scores)[at], lambda c: scores[at.item(c)])
            assert same_float(base.sum(row), left_sum(base, kept)), (scores, at)
            counted, counts = sd.instrumented(base)
            assert same_float(counted.sum(row), left_sum(base, kept)), (scores, at)
            assert counts.add == len(kept) == len(row) == len(list(row))
            values = [sd.Scored(x, (k,)) for k, x in enumerate(scores)]
            got = vit.sum(semirings.ScoreRow(np.array(scores)[at], lambda c: values[at.item(c)]))
            want = left_sum(vit, [values[k] for k in at])
            assert same_float(got.score, want.score) and got.witness == want.witness, scores


@pytest.mark.parametrize("name", ONE_SCAN_BASES)
def test_a_score_row_sum_reads_one_entry_where_the_pick_settles(name):
    np = pytest.importorskip("numpy")
    base = CATALOG[name]
    vit = sd.viterbi_simple_semiring(base)
    # the first row's pick settles; a nan and the winner's near-ties make the others fold
    for scores, folds in (([0.25, 0.75, 0.5], False), ([0.25, math.nan, 0.5], True),
                          ([0.5 * (1 + 5e-10), 0.5, 0.5 * (1 - 5e-10)], True)):
        for s, value in ((base, scores.__getitem__), (vit, lambda k: sd.Scored(scores[k], (k,)))):
            for run, counts in ((s, None), sd.instrumented(s)):
                reads = []
                got = run.sum(semirings.ScoreRow(np.array(scores),
                                                 lambda k: reads.append(k) or value(k)))
                want = left_sum(s, map(value, range(len(scores))))
                if s is vit:
                    assert got.witness == want.witness, (scores, run)
                    got, want = got.score, want.score
                assert same_float(got, want), (scores, run)
                assert reads == ([0, 1, 2] if folds else [scores.index(want)]), (scores, run)
                assert counts is None or counts.add == 3


@pytest.mark.parametrize("name", ONE_SCAN_BASES)
def test_one_term_score_row_dots_are_their_left_folds(name, monkeypatch):
    np = pytest.importorskip("numpy")

    def no_selection(*args):
        raise AssertionError("a one-term dot picked from its scores")

    monkeypatch.setattr(semirings, "_array_selection", no_selection)
    for base in (CATALOG[name], dataclasses.replace(CATALOG[name], zero=0.5)):
        vit = sd.viterbi_simple_semiring(base)
        # nan, both infinities, the zero's score and the near-ties of one and of the 0.5 zero
        entries = (*FLOAT_SPECIALS, base.zero, 0.5 * (1 + 4e-10), 0.5 * (1 - 4e-10), 1e-300)
        for x in entries:
            for y in entries:
                row = lambda v: semirings.ScoreRow(np.array([v]), [v].__getitem__)
                assert same_float(base.dot(row(x), row(y)), left_dot(base, [x], [y])), (x, y)
                scored = lambda v, tag: semirings.ScoreRow(
                    np.array([v]), lambda k: sd.Scored(v, ((tag, k),)))
                got = vit.dot(scored(x, "x"), scored(y, "y"))
                want = left_dot(vit, [sd.Scored(x, (("x", 0),))], [sd.Scored(y, (("y", 0),))])
                assert same_float(got.score, want.score) and got.witness == want.witness, (x, y)
                counted, counts = sd.instrumented(vit)
                counted.dot(scored(x, "x"), scored(y, "y"))
                assert (counts.add, counts.mul) == (1, 1)
        empty = semirings.ScoreRow(np.array([]), [].__getitem__)
        assert base.dot(empty, empty) == base.zero and vit.dot(empty, empty) == vit.zero


def test_only_the_one_scan_bases_have_row_scores():
    for name, s in CATALOG.items():
        want = name in ONE_SCAN_BASES
        assert (s.row_score is not None) is want, name
        assert (sd.instrumented(s)[0].row_score is not None) is want, name
    vit = sd.viterbi_simple_semiring(CATALOG["maxplus"])
    assert vit.row_score(sd.Scored(2.0, (1,))) == 2.0
    assert sd.instrumented(vit)[0].row_score is vit.row_score
    assert sd.viterbi_semiring(CATALOG["maxplus"]).row_score is None


def test_near_tie_chain_is_not_the_first_score_near_the_best():
    # the fold keeps 1.0 over 1 - 6e-10, then loses it to 1 - 1.2e-9: the last entry
    vit = sd.viterbi_simple_semiring(sd.minplus_semiring())
    row = [sd.Scored(x, (k,)) for k, x in enumerate([1.0, 1.0 - 6e-10, 1.0 - 1.2e-9])]
    assert vit.sum(row).witness == (2,)
    # exact ties keep the first
    tied = [sd.Scored(x, (k,)) for k, x in enumerate([3.0, 2.0, 2.0, 2.0])]
    assert vit.sum(tied).witness == (1,)


def test_rows_of_the_other_entries_are_their_left_folds():
    rng = random.Random(41)
    for name, s in CATALOG.items():
        sample = catalog_samplers()[name]
        for _ in range(30):
            xs = [sample(rng) for _ in range(rng.randint(0, 6))]
            ys = [sample(rng) for _ in xs]
            assert s.eq(s.sum(xs), left_sum(s, xs)), name
            assert s.eq(s.dot(xs, ys), left_dot(s, xs, ys)), name


def test_instrumented_rows_count_one_op_per_term():
    for name, s in [*CATALOG.items(), ("viterbi", sd.viterbi_simple_semiring(CATALOG["minplus"]))]:
        counted, counts = sd.instrumented(s)
        xs = [s.one] * 5
        counted.sum(x for x in xs)
        assert (counts.add, counts.mul) == (5, 0), name
        counted.dot(xs[:3], xs[:3])
        assert (counts.add, counts.mul) == (8, 3), name
        counted.sum([])
        counted.dot([], [])
        assert (counts.add, counts.mul) == (8, 3), name


def elementwise_cases():
    """(name, semiring, sampler) for every kind of semiring the folds run over."""
    cases = [(name, s, catalog_samplers()[name]) for name, s in CATALOG.items()]
    cases += [
        ("viterbi-simple", sd.viterbi_simple_semiring(CATALOG["minplus"]),
         scored_sequences()),
        ("viterbi", sd.viterbi_semiring(CATALOG["minplus"]), scored_sets()),
        ("paths", sd.generator_semiring(),
         lambda rng: sd.PathSet([tuple(rng.choice("xy") for _ in range(rng.randint(0, 2)))
                                 for _ in range(rng.randint(0, 2))])),
    ]
    alg = sd.subset_size_algebra(3)
    edge_lifted = lifting.edge_lifted_semiring(
        CATALOG["minplus"], alg, lifting.subset_size_edge_product
    )
    cases += [
        ("lifted", sd.lifted_semiring(CATALOG["count"], alg),
         lifted_values(catalog_samplers()["count"], alg.size)),
        # its mul takes a lifted edge (weight, key) on the right, as the broadcast tests draw
        ("edge-lifted", edge_lifted, lifted_values(catalog_samplers()["minplus"], alg.size)),
    ]
    return cases


ELEMENTWISE = elementwise_cases()


@pytest.mark.parametrize("name, s, sample", ELEMENTWISE, ids=[case[0] for case in ELEMENTWISE])
def test_elementwise_rows_are_their_per_entry_ops(name, s, sample):
    rng = random.Random(43)
    for size in (0, 1, 2, 5):
        xs = [sample(rng) for _ in range(size)]
        ys = [sample(rng) for _ in range(size)]
        y = (rng.uniform(0, 3), rng.randint(0, 4)) if name == "edge-lifted" else sample(rng)
        zs = [(rng.uniform(0, 3), rng.randint(0, 4)) for _ in xs] if name == "edge-lifted" else ys
        assert s.add_rows(xs, ys) == [s.add(a, b) for a, b in zip(xs, ys)], name
        assert s.mul_rows(xs, zs) == [s.mul(a, b) for a, b in zip(xs, zs)], name
        assert s.mul_rows(xs, repeat(y)) == [s.mul(x, y) for x in xs], name
        # iterators in, lists out: the lifted edge products pass islice views
        assert s.add_rows(iter(xs), islice(ys, None)) == [s.add(a, b) for a, b in zip(xs, ys)]
        assert s.mul_rows(iter(xs), islice(zs, None)) == [s.mul(a, b) for a, b in zip(xs, zs)]
        assert s.mul_rows(islice(xs, 1, None), repeat(y)) == [s.mul(x, y) for x in xs[1:]], name


def test_instrumented_tallies_each_entry_of_an_elementwise_row():
    for name, s, sample in ELEMENTWISE:
        rng = random.Random(47)
        xs = [sample(rng) for _ in range(4)]
        y = (1.0, 1) if name == "edge-lifted" else sample(rng)
        counted, counts = sd.instrumented(s)
        assert counted.add_rows(xs, xs[::-1]) == s.add_rows(xs, xs[::-1]), name
        assert (counts.add, counts.mul) == (4, 0), name
        broadcast = counted.mul_rows(islice(xs, 1, None), repeat(y))
        assert broadcast == s.mul_rows(xs[1:], repeat(y)), name
        assert (counts.add, counts.mul) == (4, 3), name
        assert counted.mul_rows(xs[:2], [y, y]) == s.mul_rows(xs[:2], [y, y]), name
        assert (counts.add, counts.mul) == (4, 5), name
        counted.add_rows([], [])
        counted.mul_rows([], [])
        counted.mul_rows([], repeat(y))
        assert (counts.add, counts.mul) == (4, 5), name


@pytest.mark.parametrize("name", ["minplus", "maxplus", "maxprod", "bottleneck"])
def test_selective_rows_of_float_arrays_are_the_builtin_per_entry_ops(name):
    import numpy as np

    s = CATALOG[name]
    specials = (-0.0, 0.0, 0.5, 2.0, math.inf, -math.inf, math.nan)
    xs, ys = zip(*((x, y) for x in specials for y in specials))
    for op, rows in ((s.add, s.add_rows), (s.mul, s.mul_rows)):
        got = rows(np.array(xs), np.array(ys))
        assert isinstance(got, np.ndarray)
        # repr tells -0.0 from 0.0: numpy's minimum / maximum would differ here
        assert list(map(repr, got.tolist())) == [repr(op(x, y)) for x, y in zip(xs, ys)]
    counted, counts = sd.instrumented(s)
    counted.add_rows(np.array(xs), np.array(ys))
    counted.mul_rows(np.array(xs[:5]), np.array(ys[:5]))
    assert (counts.add, counts.mul) == (len(xs), 5)


def test_the_min_max_bases_and_prob_take_array_rows():
    for name, s in CATALOG.items():
        want = name in ("prob", "minplus", "maxplus", "maxprod", "bottleneck")
        assert s.array_rows is want, name
        assert sd.instrumented(s)[0].array_rows is want, name
    assert sd.viterbi_simple_semiring(CATALOG["minplus"]).array_rows is False
    # prob's sums still fold left, over lists: no score to pick a winner by
    assert CATALOG["prob"].row_score is None


def test_prob_rows_of_float_arrays_are_the_builtin_per_entry_ops():
    import numpy as np

    s = CATALOG["prob"]
    specials = (-0.0, 0.0, 5e-324, 1 - 1e-16, 0.5, 2.0, 1e308, math.inf, -math.inf, math.nan)
    xs, ys = zip(*((x, y) for x in specials for y in specials))
    for quiet in (False, True):  # warnings off per op, or once for the block
        with semirings.quiet_arrays() if quiet else contextlib.nullcontext():
            for op, rows in ((s.add, s.add_rows), (s.mul, s.mul_rows)):
                got = rows(np.array(xs), np.array(ys))
                assert isinstance(got, np.ndarray)
                assert list(map(repr, got.tolist())) == [repr(op(x, y)) for x, y in zip(xs, ys)]
                for y in specials:  # one float times (or plus) every entry
                    got = rows(np.array(xs), y)
                    assert list(map(repr, got.tolist())) == [repr(op(x, y)) for x in xs]
    counted, counts = sd.instrumented(s)
    counted.add_rows(np.array(xs), np.array(ys))
    counted.mul_rows(np.array(xs[:5]), 0.5)
    assert (counts.add, counts.mul) == (len(xs), 5)
    assert not semirings._QUIET.get()  # the block is left as it was entered


def test_dot_refuses_rows_of_unequal_length():
    minplus = CATALOG["minplus"]
    for s in (CATALOG["count"], minplus, sd.instrumented(minplus)[0],
              sd.viterbi_simple_semiring(minplus)):
        with pytest.raises(ValueError, match="lengths 2 and 1"):
            s.dot([s.one, s.one], [s.one])


@pytest.mark.parametrize("name", ["count", "prob", "softmax", "expectation"])
def test_witness_tupling_refuses_non_selective_catalog_bases(name):
    # viterbi-simple over count once scored a 3 x 3 alignment 1, not its 63 paths
    with pytest.raises(ValueError, match=name):
        sd.viterbi_simple_semiring(CATALOG[name])
    with pytest.raises(ValueError, match=name):
        sd.viterbi_semiring(CATALOG[name])


def test_witness_tupling_accepts_semirings_outside_the_catalog():
    custom = sd.Semiring("shortest", min, lambda a, b: a + b, math.inf, 0.0)
    vit = sd.viterbi_simple_semiring(custom)
    row = [sd.Scored(x, (k,)) for k, x in enumerate([3.0, 1.0, 1.0 + 1e-12, 2.0])]
    assert vit.sum(row) == left_sum(vit, row) == row[1]
    assert sd.viterbi_semiring(custom).zero.score == math.inf


def test_witness_rows_keep_a_zero_that_the_winner_nearly_ties():
    # over a min base whose zero is finite, a score within 1e-9 below zero does not win
    capped = sd.Semiring("capped", min, lambda a, b: a + b, 5.0, 0.0)
    vit = sd.viterbi_simple_semiring(capped)
    row = [sd.Scored(x, (k,)) for k, x in enumerate([6.0, 5.0 * (1 - 5e-10)])]
    assert vit.sum(row) == left_sum(vit, row) == vit.zero


# --- fused row sums of products ------------------------------------------------------

# ties, near-ties (within 1e-9 relative of 1.0), signed zeros, infinities and nan
FLOAT_SPECIALS = (-0.0, 0.0, 0.5, 1.0, 1.0 + 5e-10, 1.0 - 1.2e-9, 2.0, math.inf, -math.inf, math.nan)


def reference_dot_rows(s, xss, yss):
    """What ``dot_rows`` fuses: ``add_rows`` folded over the ``mul_rows`` of each pair."""
    return functools.reduce(s.add_rows, map(s.mul_rows, xss, yss))


def tie_heavy(base):
    """A sampler of ``base`` values, mostly from a small grid of special scores."""
    if base.zero is False:
        return bool_values()
    grid = FLOAT_SPECIALS + (base.zero, base.one, base.zero, base.one)
    return lambda rng: rng.choice(grid)


def witnesses(score_sample):
    """Scored values whose witnesses are empty or one label never drawn before."""
    labels = count()
    return lambda rng: sd.Scored(score_sample(rng), () if rng.random() < 0.2 else (next(labels),))


def either(first, second):
    """A sampler drawing from ``first`` or ``second`` with even odds."""
    return lambda rng: (first if rng.random() < 0.5 else second)(rng)


def dot_rows_cases():
    """(name, semiring, left sampler, right sampler) for every kind of semiring."""
    floats = ("prob", "minplus", "maxplus", "maxprod", "softmax", "bottleneck")
    cases = []
    for name, s in CATALOG.items():
        sample = catalog_samplers()[name]
        if name in floats:  # half the draws from the specials
            sample = either(sample, tie_heavy(s))
        cases.append((name, s, sample, sample))
    capped = sd.Semiring("capped", min, operator.add, 5.0, 0.0)  # a min base outside the catalog
    for name in (*SELECTIVE_SEMIRINGS, "capped"):
        base = capped if name == "capped" else CATALOG[name]
        sample = witnesses(tie_heavy(base))
        cases.append((f"viterbi-simple[{name}]", sd.viterbi_simple_semiring(base), sample, sample))
    paths = lambda rng: sd.PathSet([tuple(rng.choice("xy") for _ in range(rng.randint(0, 2)))
                                    for _ in range(rng.randint(0, 2))])
    alg = sd.subset_size_algebra(3)
    edge_lifted = lifting.edge_lifted_semiring(
        CATALOG["minplus"], alg, lifting.subset_size_edge_product
    )
    vectors = lifted_values(tie_heavy(CATALOG["minplus"]), alg.size)
    cases += [
        ("paths", sd.generator_semiring(), paths, paths),
        ("lifted", sd.lifted_semiring(CATALOG["count"], alg),
         lifted_values(catalog_samplers()["count"], alg.size),
         lifted_values(catalog_samplers()["count"], alg.size)),
        # its mul takes a lifted edge (weight, key) on the right
        ("edge-lifted", edge_lifted, vectors,
         lambda rng: (rng.choice(FLOAT_SPECIALS), rng.randint(0, 4))),
    ]
    return cases


DOT_ROWS = dot_rows_cases()


@pytest.mark.parametrize("name, s, left, right", DOT_ROWS, ids=[case[0] for case in DOT_ROWS])
def test_dot_rows_is_the_fold_of_its_product_rows(name, s, left, right):
    rng = random.Random(53)
    for k in (1, 2, 3):
        for size in (0, 1, 2, 7, 40):
            for _ in range(4):
                xss = [[left(rng) for _ in range(size)] for _ in range(k)]
                yss = [[right(rng) for _ in range(size)] for _ in range(k)]
                counted, counts = sd.instrumented(s)
                folded, folded_counts = sd.instrumented(s)
                want = repr(reference_dot_rows(folded, xss, yss))
                # repr tells -0.0 from 0.0 and spells a witness out
                assert repr(counted.dot_rows(xss, yss)) == want, (name, xss, yss)
                assert (counts.add, counts.mul) == (folded_counts.add, folded_counts.mul)
                assert (counts.add, counts.mul) == ((k - 1) * size, k * size), name
                assert repr(s.dot_rows(xss, yss)) == want, name
                # iterators in, a list out
                got = s.dot_rows((iter(xs) for xs in xss), map(iter, yss))
                assert type(got) is list and repr(got) == want, name
                assert repr(counted.dot_rows(iter(xss), yss)) == want, name


def test_dot_rows_refuses_no_rows():
    for s in (CATALOG["count"], sd.instrumented(CATALOG["minplus"])[0],
              sd.viterbi_simple_semiring(CATALOG["minplus"])):
        with pytest.raises(ValueError, match="no rows"):
            s.dot_rows([], [])


def test_witness_dot_rows_build_the_surviving_product_only():
    vit = sd.viterbi_simple_semiring(CATALOG["minplus"])
    made = []
    picked = dataclasses.replace(vit, mul=lambda a, b: made.append((a, b)) or vit.mul(a, b))
    def row(*terms):
        return [sd.Scored(score, (label,)) for score, label in terms]

    xss = [row((1.0, "a"), (2.0, "b"), (math.inf, "c")),
           row((1.0 - 5e-10, "d"), (1.0, "e"), (math.inf, "f")),
           row((2.0, "g"), (1.0, "h"), (math.inf, "i"))]
    ys = row((0.0, "y"), (0.0, "y"), (0.0, "y"))
    # a near-tie and an exact tie keep the left term; inf + 0 is zero's score
    got = picked.dot_rows(xss, [ys, ys, ys])
    assert [g.witness for g in got] == [("a", "y"), ("e", "y"), ()]
    assert got[2] is vit.zero
    assert len(made) == 3
    assert repr(got) == repr(reference_dot_rows(vit, xss, [ys, ys, ys]))


@pytest.mark.parametrize("name", ONE_SCAN_BASES)
def test_witness_dot_rows_of_blocks_is_the_fold_of_their_product_rows(name):
    import numpy as np

    base = CATALOG[name]
    vit = sd.viterbi_simple_semiring(base)
    assert vit.block_rows and sd.instrumented(vit)[0].block_rows
    rng = random.Random(61)
    # tie-heavy scores, and scores with no nan or near-tie, which the first pass settles
    settled = (-0.0, 0.0, 0.5, 1.0, 2.0, math.inf, -math.inf, base.zero, base.one)
    for sample in (tie_heavy(base), lambda rng: rng.choice(settled)):
        for k in (1, 2, 3):
            for size in (0, 1, 2, 7, 40):
                scores = [[sample(rng) for _ in range(size)] for _ in range(2 * k)]
                blocks = [semirings.WitnessBlock(np.array(row, dtype=float)) for row in scores]
                # each pair labelled by its term, so a witness names the term it kept
                rows = [[sd.Scored(x, (t % k,)) for x in row] for t, row in enumerate(scores)]
                counted, counts = sd.instrumented(vit)
                folded, folded_counts = sd.instrumented(vit)
                got = counted.dot_rows(blocks[:k], blocks[k:])
                assert type(got) is semirings.WitnessBlock and len(got) == size
                want = reference_dot_rows(folded, rows[:k], rows[k:])
                # repr tells -0.0 from 0.0; a score equal to zero keeps no term
                assert repr(got.scores.tolist()) == repr([w.score for w in want]), (name, scores)
                assert got.kept.tolist() == [w.witness[0] if w.witness else semirings.EMPTY
                                             for w in want], (name, scores)
                assert (counts.add, counts.mul) == (folded_counts.add, folded_counts.mul)


@pytest.mark.parametrize("pick", [min, max])
def test_moved_is_keeps_left_negated_entry_by_entry(pick):
    # math.isclose's formula over arrays: exact and near ties within 1e-9 relative keep
    # the left score, right at the bound too; nan, infinities, signed zeros, subnormals
    # and gaps that overflow as the builtin rule settles them
    import numpy as np

    rng = random.Random(71)
    values = FLOAT_SPECIALS + (5e-324, -5e-324, 1e308, -1e308, 3.0, -3.0, 1e-300, -0.25)
    nudges = (0.0, 5e-10, -5e-10, 1e-9, -1e-9, 1.1e-9, -1.1e-9, 2e-9, 1e-16)
    left = [rng.choice(values) for _ in range(4000)]
    right = [x * (1 + rng.choice(nudges)) if rng.random() < 0.6 else rng.choice(values)
             for x in left]
    with semirings.quiet_arrays():
        got = semirings._moved(pick, np.array(left), np.array(right))
    want = [not semirings._keeps_left(pick, x, y) for x, y in zip(left, right)]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("name", ONE_SCAN_BASES + ("prob",))
def test_shift_rows_of_arrays_and_blocks_is_the_list_update(name):
    # one event of the M-of-N fold in place: an array row gives the list row's entries;
    # a block gives the witness row's scores and, per entry, the term it kept (0 stay,
    # 1 move) or EMPTY where its score is the base zero
    import numpy as np

    base = CATALOG[name]
    vit = None if name == "prob" else sd.viterbi_simple_semiring(base)
    rng = random.Random(67)
    sample = tie_heavy(base)
    for size in (1, 2, 9, 40):
        for _ in range(25):
            row, stay, move = [sample(rng) for _ in range(size)], sample(rng), sample(rng)
            counted, counts = sd.instrumented(base)
            listed, list_counts = sd.instrumented(base)
            array = np.array(row, dtype=float)
            assert counted.shift_rows(array, stay, move) is array
            assert repr(array.tolist()) == repr(listed.shift_rows(list(row), stay, move))
            assert (counts.add, counts.mul) == (list_counts.add, list_counts.mul)
            assert (counts.add, counts.mul) == (size - 1, 2 * size - 1)
            if vit is None:
                continue
            counted, counts = sd.instrumented(vit)
            block = semirings.WitnessBlock(np.array(row, dtype=float), np.zeros(size, np.int8))
            assert counted.shift_rows(block, stay, move) is block
            # entry k labelled k, and the move term "move": a witness names what it kept
            scored = [sd.Scored(x, (k,)) for k, x in enumerate(row)]
            want = vit.shift_rows(scored, sd.Scored(stay, ()), sd.Scored(move, ("move",)))
            assert repr(block.scores.tolist()) == repr([w.score for w in want]), (row, stay, move)
            codes = [semirings.EMPTY if not w.witness else 0 if w.witness == (k,) else 1
                     for k, w in enumerate(want)]
            assert block.kept.tolist() == codes, (row, stay, move)
            assert (counts.add, counts.mul) == (size - 1, 2 * size - 1)


@pytest.mark.parametrize("name", ONE_SCAN_BASES)
def test_dot_rows_of_arrays_and_blocks_is_the_fold_of_their_product_rows(name):
    import numpy as np

    base = CATALOG[name]
    rng = random.Random(59)
    sample = tie_heavy(base)
    alg = sd.subset_size_algebra(3)
    for k in (1, 2, 3):
        for size in (0, 1, 9):
            xss = [np.array([sample(rng) for _ in range(size)]) for _ in range(k)]
            yss = [np.array([sample(rng) for _ in range(size)]) for _ in range(k)]
            counted, counts = sd.instrumented(base)
            folded, folded_counts = sd.instrumented(base)
            got = counted.dot_rows(xss, yss)
            assert isinstance(got, np.ndarray)
            assert repr(got.tolist()) == repr(reference_dot_rows(folded, xss, yss).tolist())
            assert (counts.add, counts.mul) == (folded_counts.add, folded_counts.mul)
            assert (counts.add, counts.mul) == ((k - 1) * size, k * size)
            # summed-gap lifting over the counted base, each cell's vector one float array,
            # against the tuple form: the same entries and op counts
            vectors = [[tuple(sample(rng) for _ in range(alg.size)) for _ in range(size)]
                       for _ in range(k)]
            edges = [[(sample(rng), rng.randint(-1, 4)) for _ in range(size)] for _ in range(k)]
            counted, counts = sd.instrumented(base)
            folded, folded_counts = sd.instrumented(base)
            lifted = lifting.summed_gap_arrays(counted, alg)
            got = lifted.dot_rows([[np.array(v) for v in vs] for vs in vectors], edges)
            assert type(got) is list and all(isinstance(v, np.ndarray) for v in got)
            tupled = lifting.edge_lifted_semiring(folded, alg, lifting.subset_size_edge_product)
            want = tupled.dot_rows(vectors, edges)
            assert repr([tuple(v.tolist()) for v in got]) == repr(want)
            assert (counts.add, counts.mul) == (folded_counts.add, folded_counts.mul)


# --- selectivity ---------------------------------------------------------------------


@pytest.mark.parametrize("name", SELECTIVE_SEMIRINGS)
def test_selective_catalog_entries_keep_one_operand(name):
    sample = catalog_samplers()[name]
    assert law_failures(CATALOG[name], sample, trials=300, seed=11, selective=True) == []


@pytest.mark.parametrize("name", ["prob", "count", "softmax"])
def test_summing_catalog_entries_fail_selectivity_only_when_asked(name):
    s, sample = CATALOG[name], catalog_samplers()[name]
    assert law_failures(s, sample, trials=300, seed=11) == []
    failures = law_failures(s, sample, trials=300, seed=11, selective=True)
    assert _broken_laws(failures) == {"add-selectivity"}
    assert "is neither operand" in failures[0]


def test_witness_tupling_is_selective_only_with_a_single_witness():
    maxplus = CATALOG["maxplus"]
    vit = sd.viterbi_simple_semiring(maxplus)
    assert law_failures(vit, scored_sequences(), trials=300, seed=9, selective=True) == []
    # tied scores merge their witness sets: neither operand
    sets = law_failures(sd.viterbi_semiring(maxplus), scored_sets(), trials=300, seed=7,
                        selective=True)
    assert _broken_laws(sets) == {"add-selectivity"}
