import gc
import operator
import random
from dataclasses import replace
from functools import reduce

import pytest

import semiring_dp as sd

GEN = sd.generator_semiring()


def paths(*seqs):
    return sd.PathSet(seqs)


def test_cross_join_example():
    x = paths(("a", "b"), ("c",))
    y = paths(("d",), ("e",))
    assert GEN.mul(x, y) == paths(
        ("a", "b", "d"), ("a", "b", "e"), ("c", "d"), ("c", "e")
    )


def test_identities():
    x = paths(("a",))
    assert GEN.mul(x, GEN.one) == x
    assert GEN.mul(GEN.one, x) == x
    y = paths(("a",), ("b",))
    assert GEN.add(y, GEN.zero) == y


def test_set_semantics_deduplicates():
    x = paths(("a",), ("a",))
    assert len(x) == 1
    # cross-join results that collide are merged
    joined = GEN.mul(paths(("a",), ()), paths((), ("a",)))
    assert joined == paths(("a",), (), ("a", "a"))


def test_iteration_is_sorted():
    x = paths((2, 1), (1,), (1, 3))
    assert list(x) == [(1,), (1, 3), (2, 1)]


def test_budget_guard():
    wide = paths(*[(i, i, i) for i in range(10)])
    with pytest.raises(sd.PathBudgetError):
        sd.generator_semiring(50).mul(wide, wide)


def test_budget_belongs_to_one_semiring():
    small = sd.generator_semiring(50)
    default = sd.generator_semiring()
    wide = paths(*[(i, i, i) for i in range(10)])
    with pytest.raises(sd.PathBudgetError, match="over the budget of 50"):
        small.mul(wide, wide)
    assert len(default.mul(wide, wide)) == 100
    with pytest.raises(sd.PathBudgetError):
        small.mul(wide, wide)  # the default semiring left the small budget alone
    with pytest.raises(ValueError):
        sd.generator_semiring(0)


def test_evaluate_counting_example():
    ps = paths(("a",), ("b", "c"))
    assert sd.evaluate_paths(sd.counting_semiring(), lambda e: 1, ps) == 2


def test_evaluate_minplus_example():
    ps = paths(("a",), ("b", "c"))
    w = {"a": 3.0, "b": 1.0, "c": 1.0}
    assert sd.evaluate_paths(sd.minplus_semiring(), w, ps) == 2.0


def test_evaluate_empty_set_is_zero():
    for s in sd.standard_semirings().values():
        assert s.eq(sd.evaluate_paths(s, lambda e: s.one, sd.PathSet()), s.zero)


def test_evaluate_missing_label_names_it():
    with pytest.raises(KeyError, match="'b'"):
        sd.evaluate_paths(sd.counting_semiring(), {"a": 1}, paths(("a", "b")))


def test_evaluate_is_structure_preserving_idempotent_add():
    # union maps to add and cross-join to mul; with an idempotent add
    # (min) the laws hold for arbitrary, even overlapping, path sets
    rng = random.Random(17)
    s = sd.minplus_semiring()
    weights = {lab: round(rng.uniform(0, 3), 3) for lab in "abcd"}

    def sample():
        return sd.PathSet(
            tuple(rng.choice("abcd") for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(0, 3))
        )

    for _ in range(200):
        x, y = sample(), sample()
        hx = sd.evaluate_paths(s, weights, x)
        hy = sd.evaluate_paths(s, weights, y)
        assert s.eq(sd.evaluate_paths(s, weights, GEN.add(x, y)), s.add(hx, hy))
        assert s.eq(sd.evaluate_paths(s, weights, GEN.mul(x, y)), s.mul(hx, hy))


def test_evaluate_is_structure_preserving_counting():
    # for a non-idempotent add the laws apply to disjoint unions and
    # collision-free joins, which DP runs produce; disjoint alphabets
    # force both here
    rng = random.Random(19)
    s = sd.counting_semiring()
    weights = {lab: rng.randint(1, 4) for lab in "abcd"}

    def sample(alphabet):
        return sd.PathSet(
            tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3))
        )

    for _ in range(200):
        x, y = sample("ab"), sample("cd")
        hx = sd.evaluate_paths(s, weights, x)
        hy = sd.evaluate_paths(s, weights, y)
        assert sd.evaluate_paths(s, weights, GEN.add(x, y)) == s.add(hx, hy)
        assert sd.evaluate_paths(s, weights, GEN.mul(x, y)) == s.mul(hx, hy)


def test_constraint_fold_examples():
    count_len = sd.subset_size_algebra(10, label_map=lambda e: 1)
    assert sd.constraint_fold(count_len, ("a", "b", "c")) == 3
    assert sd.constraint_fold(count_len, ()) == 0

    min_len = sd.min_count_algebra(10)
    assert sd.constraint_fold(min_len, (4, 2, 7)) == 2
    assert sd.constraint_fold(min_len, ()) == 10  # the fold identity


def test_constraint_fold_identityless_rejects_empty():
    alg = sd.ordering_algebra([1.0, 2.0])
    with pytest.raises(ValueError):
        sd.constraint_fold(alg, ())


def test_filter_length_example():
    ps = paths((), ("a",), ("a", "b"))
    alg = sd.subset_size_algebra(5, label_map=lambda e: 1, accept=lambda m: m == 1)
    assert sd.filter_paths(alg, ps) == paths(("a",))


def test_filter_accept_all_and_none():
    ps = paths((), ("a",), ("a", "b"))
    alg = sd.subset_size_algebra(5, label_map=lambda e: 1)
    assert sd.filter_paths(replace(alg, accept=lambda m: True), ps) == ps
    assert sd.filter_paths(replace(alg, accept=lambda m: False), ps) == sd.PathSet()


def test_filter_identityless_drops_empty_path():
    ps = paths((), (1,), (1, 2))
    alg = sd.ordering_algebra([1.0, 2.0])
    assert sd.filter_paths(alg, ps) == paths((1,), (1, 2))


# --- differential checks against plain frozensets -------------------------------------


LABELS = [("a", 1000), ("a", 2000), ("b", 1000), ("b", 3000)]


def fresh(label):
    """An equal label that is not the same object."""
    return (label[0], int(str(label[1])))


def random_paths(rng):
    """Sequences with prefixes of one another, the empty path, duplicates and fresh equal labels."""
    seqs = []
    for _ in range(rng.randint(0, 6)):
        seq = tuple(rng.choice(LABELS) for _ in range(rng.randint(0, 4)))
        seqs.append(seq)
        if seq and rng.random() < 0.5:
            seqs.append(seq[: rng.randint(0, len(seq) - 1)])  # a prefix of it
        if rng.random() < 0.3:
            seqs.append(tuple(map(fresh, seq)))  # a duplicate of equal, distinct labels
    if rng.random() < 0.3:
        seqs.append(())
    return seqs


def reference_join(x, y):
    return frozenset(a + b for a in x for b in y)


def test_path_sets_are_their_plain_frozensets():
    rng = random.Random(25)
    for _ in range(300):
        xs, ys = random_paths(rng), random_paths(rng)
        x, y = sd.PathSet(xs), sd.PathSet(ys)
        fx, fy = frozenset(xs), frozenset(ys)
        for got, want in ((x, fx), (GEN.add(x, y), fx | fy), (GEN.mul(x, y), reference_join(fx, fy))):
            assert got.paths == want and len(got) == len(want)
            assert got.labels_stored == sum(len(p) for p in want)
            assert list(got) == got.sorted_paths() == sorted(want)
            assert repr(got) == "PathSet([" + ", ".join(repr(list(p)) for p in sorted(want)) + "])"
            assert all(p in got for p in want) and all(list(p) in got for p in want)
            assert hash(got) == hash(want)
        assert (("z", 0),) not in x and x.paths - fx == set()


def test_path_set_equality_and_hash_ignore_insertion_order():
    rng = random.Random(26)
    for _ in range(200):
        seqs = random_paths(rng)
        shuffled = seqs[:]
        rng.shuffle(shuffled)
        x, y = sd.PathSet(seqs), sd.PathSet(reversed(shuffled))
        assert x == y and hash(x) == hash(y)
        # the semiring's own results, built in other orders, too
        assert GEN.add(x, GEN.one) == GEN.add(GEN.one, y)
        assert hash(GEN.add(x, GEN.one)) == hash(GEN.add(GEN.one, y))
    assert sd.PathSet([("a",)]) != frozenset({("a",)})


def naive_evaluate(s, weights, paths):
    """Each sequence's product from ``one``, summed in sorted order."""
    total = s.zero
    for path in sorted(paths):
        total = s.add(total, reduce(s.mul, (weights[label] for label in path), s.one))
    return total


def test_evaluation_is_the_naive_sorted_sum_of_products():
    rng = random.Random(27)
    s = sd.probability_semiring()
    weights = {label: rng.uniform(0.1, 3.0) for label in LABELS}
    for _ in range(300):
        x, y = sd.PathSet(random_paths(rng)), sd.PathSet(random_paths(rng))
        for ps in (x, GEN.add(x, y), GEN.mul(x, y), GEN.mul(GEN.mul(x, y), x)):
            assert repr(sd.evaluate_paths(s, weights, ps)) == repr(naive_evaluate(s, weights, ps.paths))


def test_evaluation_weighs_a_shared_prefix_once():
    calls = []

    def weight(label):
        calls.append(label)
        return 2

    a, b, c, d = LABELS
    ps = GEN.mul(paths((a, b)), paths((), (c,), (d,), (c, d)))
    assert sd.evaluate_paths(sd.counting_semiring(), weight, ps) == 4 + 8 + 8 + 16
    # sorted: a b, a b c, a b c d, a b d; each label after the shared prefix once
    assert calls == [a, b, c, d, d]
    # equal labels that are distinct objects share no products, and give the same value
    calls.clear()
    apart = sd.PathSet([(a, b), (fresh(a), fresh(b), c)])
    assert sd.evaluate_paths(sd.counting_semiring(), weight, apart) == 4 + 8
    assert calls == [a, b, a, b, c]


def test_budget_estimates_and_messages():
    rng = random.Random(28)
    for _ in range(100):
        x, y = sd.PathSet(random_paths(rng)), sd.PathSet(random_paths(rng))
        fx, fy = frozenset(x.paths), frozenset(y.paths)
        labels = lambda f: sum(len(p) for p in f)
        union = labels(fx) + labels(fy)
        join = len(fy) * labels(fx) + len(fx) * labels(fy)
        for op, estimate in (("add", union), ("mul", join)):
            if estimate < 1:
                continue
            assert getattr(sd.generator_semiring(estimate), op)(x, y) is not None
            if estimate > 1:
                message = (f"path-set operation needs ~{estimate} stored labels, "
                           f"over the budget of {estimate - 1}")
                with pytest.raises(sd.PathBudgetError) as caught:
                    getattr(sd.generator_semiring(estimate - 1), op)(x, y)
                assert str(caught.value) == message


def test_a_missing_weight_after_a_shared_prefix_names_its_label():
    ps = paths(("a", "b"), ("a", "b", ("c", 1000)))
    with pytest.raises(KeyError, match=r"\('c', 1000\)"):
        sd.evaluate_paths(sd.counting_semiring(), {"a": 1, "b": 2}, ps)


def test_a_type_error_in_combine_propagates():
    def combine(i, j):
        raise TypeError("combine refused")

    for alg in (replace(sd.ordering_algebra([1.0, 2.0]), combine=combine),
                replace(sd.subset_size_algebra(5), combine=combine)):
        with pytest.raises(TypeError, match="combine refused"):
            sd.constraint_fold(alg, (1, 2))
        with pytest.raises(TypeError, match="combine refused"):
            sd.filter_paths(alg, paths((1,), (1, 2)))
    identityless = replace(sd.ordering_algebra([1.0, 2.0]), combine=combine)
    assert sd.constraint_fold(identityless, (2,)) == 2  # one label: combine is never called
    with pytest.raises(ValueError, match="no identity"):
        sd.constraint_fold(identityless, ())


def test_filtering_is_the_plain_per_path_filter():
    rng = random.Random(29)
    length = sd.subset_size_algebra(3, label_map=lambda e: 1, accept=lambda m: m >= 2)
    keyed = sd.max_count_algebra(3000, label_map=lambda e: e[1], accept=lambda m: m < 3000)
    for _ in range(200):
        seqs = random_paths(rng)
        for alg in (length, keyed):
            want = {p for p in seqs if alg.accepts(naive_fold(alg, p))}
            assert sd.filter_paths(alg, sd.PathSet(seqs)).paths == want


def naive_fold(alg, path):
    acc = alg.identity
    for label in path:
        acc = alg.combine(acc, alg.label_map(label))
    return acc


def test_relabelling_by_sorted_rank_keeps_values_and_kept_paths():
    # the CLI's oracle codes each label by its rank in the sorted alphabet: a map that keeps
    # label order keeps path order, so evaluation sums the same products in the same order
    rng = random.Random(30)
    ranked = sorted(set(LABELS))
    code = {label: rank for rank, label in enumerate(ranked)}
    relabel = lambda seqs: [tuple(code[label] for label in p) for p in seqs]
    decode = lambda ps: {tuple(ranked[c] for c in p) for p in ps.paths}
    with_identity = sd.max_count_algebra(3000, label_map=lambda e: e[1], accept=lambda m: m < 3000)
    position = {label: k for k, label in enumerate(ranked, start=1)}  # values 1, 2, 2, 3
    identityless = replace(sd.ordering_algebra([1, 2, 2, 3], operator.le),
                           label_map=position.__getitem__)
    semirings = (sd.probability_semiring(), sd.counting_semiring(), sd.minplus_semiring())
    for _ in range(300):
        xs, ys = random_paths(rng), random_paths(rng)
        pairs = [(sd.PathSet(xs), sd.PathSet(relabel(xs))), (sd.PathSet(ys), sd.PathSet(relabel(ys)))]
        (x, cx), (y, cy) = pairs
        pairs += [(GEN.add(x, y), GEN.add(cx, cy)), (GEN.mul(x, y), GEN.mul(cx, cy))]
        for s in semirings:
            draw = (lambda: rng.randint(0, 3)) if s.name == "count" else (lambda: rng.uniform(0.1, 3.0))
            weights = {label: draw() for label in ranked}
            table = [weights[label] for label in ranked]
            for ps, coded in pairs:
                assert decode(coded) == set(ps.paths)
                assert (repr(sd.evaluate_paths(s, table.__getitem__, coded))
                        == repr(sd.evaluate_paths(s, weights, ps)))
        for alg in (with_identity, identityless):
            mapped = replace(alg, label_map=[alg.label_map(label) for label in ranked].__getitem__)
            for ps, coded in pairs:
                assert decode(sd.filter_paths(mapped, coded)) == set(sd.filter_paths(alg, ps).paths)


# --- the filter's transition table against the per-path definition --------------------


def reference_filter(alg, order):
    """The definition, path by path: the empty path only with an identity, then the fold's verdict."""
    return [p for p in order
            if (p or alg.identity is not None) and alg.accepts(sd.constraint_fold(alg, p))]


# int labels for the maps below; 10**20 is outside every carrier at bound 2 and every chain
MAPPED = {("a", 1000): 0, ("a", 2000): 1, ("b", 1000): 2, ("b", 3000): 10**20}


def as_ints(seqs):
    """``seqs`` over MAPPED's ints: 0, 1 and 2 are shared objects, each 10**20 a fresh equal one."""
    return [tuple(int(str(MAPPED[fresh(label)])) for label in p) for p in seqs]


def filter_algebras():
    """(algebra, whether its labels are the int values or LABELS) for each algebra checked."""
    position = {label: k for k, label in enumerate(sorted(MAPPED), start=1)}
    for alg in sd.algebra_catalog(2).values():
        yield alg, True
        yield replace(alg, label_map=MAPPED.__getitem__), False
        yield replace(alg, label_map=lambda e: e[1] // 1000 - 1), False
    for relation in (operator.lt, operator.le):
        chain = sd.ordering_algebra([1, 2, 2, 3], relation)
        yield chain, True
        yield replace(chain, label_map=position.__getitem__), False


def filter_inputs(rng):
    x, y = sd.PathSet(random_paths(rng)), sd.PathSet(random_paths(rng))
    return [x, y, GEN.add(x, y), GEN.mul(x, y), GEN.add(GEN.mul(x, y), GEN.one)]


def test_the_filter_table_keeps_the_per_path_definition_and_its_order():
    rng = random.Random(31)
    algebras = list(filter_algebras())
    for _ in range(150):
        for ps in filter_inputs(rng):
            coded = sd.PathSet(as_ints(ps.paths))
            for alg, ints in algebras:
                order = coded if ints else ps
                assert list(sd.filter_paths(alg, order).paths) == reference_filter(alg, order.paths)


def test_the_filter_table_raises_what_the_per_path_fold_raises():
    def combine(a, b):
        if b == 2:
            raise TypeError(f"combine refused {a!r} and {b!r}")
        return a + b

    partial = {label: value for label, value in MAPPED.items() if label != ("b", 3000)}
    algebras = [replace(sd.subset_size_algebra(2), combine=combine, label_map=lambda e: e[1] // 1000),
                replace(sd.max_count_algebra(2), label_map=partial.__getitem__),
                replace(sd.ordering_algebra([1, 2, 3]), combine=combine,
                        label_map=lambda e: e[1] // 1000)]
    rng = random.Random(32)
    raised = 0
    for _ in range(150):
        for ps in filter_inputs(rng):
            for alg in algebras:
                try:
                    want = reference_filter(alg, ps.paths)
                except (TypeError, KeyError) as exc:
                    with pytest.raises(type(exc)) as caught:
                        sd.filter_paths(alg, ps)
                    assert caught.value.args == exc.args
                    raised += 1
                else:
                    assert list(sd.filter_paths(alg, ps).paths) == want
    assert raised > 100


def test_the_filter_table_leaves_no_reference_cycles():
    # the CLI's oracle pauses the cyclic collector while it filters
    rng = random.Random(33)
    inputs = [ps for _ in range(20) for ps in filter_inputs(rng)]
    algebras = list(filter_algebras())
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for ps in inputs:
            coded = sd.PathSet(as_ints(ps.paths))
            for alg, ints in algebras:
                sd.filter_paths(alg, coded if ints else ps)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
