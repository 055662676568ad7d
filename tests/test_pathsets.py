import random

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
    assert sd.filter_paths(alg, ps, accept=lambda m: True) == ps
    assert sd.filter_paths(alg, ps, accept=lambda m: False) == sd.PathSet()


def test_filter_identityless_drops_empty_path():
    ps = paths((), (1,), (1, 2))
    alg = sd.ordering_algebra([1.0, 2.0])
    assert sd.filter_paths(alg, ps) == paths((1,), (1, 2))

