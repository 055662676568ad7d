import itertools
import random
from dataclasses import replace

import pytest

import semiring_dp as sd
from semiring_dp.laws import catalog_samplers, law_failures, lifted_values
from semiring_dp.lifting import (
    CLOSED_FORM_EDGE_PRODUCTS,
    edge_lifted_semiring,
    ordering_edge_product,
)

CATALOG = sd.standard_semirings()
COUNT = CATALOG["count"]

# algebras the generic lifted semiring accepts: associative with identity
LIFTABLE = ("subset_size", "min_count", "max_count", "exists", "forall")


def small_algebras(bound=4):
    return sd.algebra_catalog(bound)


# each check names what is wrong: (call, message)
ARGUMENT_CHECKS = [
    (lambda: sd.ConstraintAlgebra("twice", (0, 0), max, 0), "twice: carrier has duplicate elements"),
    (lambda: sd.lifted_semiring(COUNT, sd.abs_difference_algebra(2)),
     "abs-difference[2]: combine is not associative; only per-edge products apply"),
    (lambda: sd.min_count_algebra(0), "bound must be at least 1"),
    (lambda: sd.max_count_algebra(-1), "bound must be non-negative"),
    (lambda: sd.abs_difference_algebra(-1), "bound must be non-negative"),
]


@pytest.mark.parametrize("call, message", ARGUMENT_CHECKS)
def test_argument_checks_name_what_is_wrong(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


# --- algebra invariants --------------------------------------------------------


@pytest.mark.parametrize("name", LIFTABLE)
def test_combine_associative_exhaustively(name):
    alg = small_algebras()[name]
    assert alg.associative
    for a, b, c in itertools.product(alg.carrier, repeat=3):
        assert alg.combine(alg.combine(a, b), c) == alg.combine(a, alg.combine(b, c))


def test_abs_difference_not_associative():
    alg = small_algebras()["abs_difference"]
    assert not alg.associative
    assert alg.combine(alg.combine(1, 2), 3) != alg.combine(1, alg.combine(2, 3))


@pytest.mark.parametrize("name", sorted(small_algebras()))
def test_identity_laws(name):
    alg = small_algebras()[name]
    for m in alg.carrier:
        assert alg.combine(alg.identity, m) == m
        assert alg.combine(m, alg.identity) == m


def test_group_inverse_law():
    alg = small_algebras()["subset_size"]
    assert alg.group_like
    for m, mp in itertools.product(alg.carrier, repeat=2):
        recovered = alg.combine(mp, alg.combine(alg.inverse(mp), m))
        assert recovered == m


@pytest.mark.parametrize("name", [*sorted(small_algebras()), "ordering"])
def test_algebra_built_without_accept_accepts_exactly_its_carrier(name):
    if name == "ordering":
        alg = sd.ordering_algebra([1.0, 3.0, 2.0, 4.0])
    else:
        alg = small_algebras()[name]
    assert alg.accept is None
    assert all(alg.accepts(m) for m in alg.carrier)
    outside = [m for m in (*range(-2, 8), 0.5, sd.ORDER_BLOCKED) if m not in alg.carrier]
    assert sd.ORDER_BLOCKED in outside and len(outside) >= 6
    assert not any(alg.accepts(m) for m in outside), name


def test_replacing_the_carrier_replaces_the_default_acceptance():
    alg = replace(sd.subset_size_algebra(3), carrier=tuple(range(6)))
    assert sd.project(COUNT, alg, (1,) * 6) == 6
    kept = sd.filter_paths(alg, sd.PathSet([(5,), (2, 3), (2, 4)]))
    assert kept.sorted_paths() == [(2, 3), (5,)]
    assert alg.accepts(5) and not alg.accepts(6)
    # a replaced accept still wins over carrier membership
    odd = replace(alg, accept=lambda m: m % 2 == 1)
    assert sd.project(COUNT, odd, (1,) * 6) == 3


def test_ordering_algebra_shape():
    alg = sd.ordering_algebra([1.0, 3.0, 2.0])
    assert alg.identity is None and not alg.associative
    assert alg.combine(1, 2) == 2  # 1 < 2 and u1 < u2
    assert alg.combine(2, 3) == sd.ORDER_BLOCKED  # u2=3 not < u3=2
    assert alg.combine(sd.ORDER_BLOCKED, 3) == sd.ORDER_BLOCKED
    with pytest.raises(ValueError):
        sd.lifted_semiring(COUNT, alg)


def test_algebra_constructor_validation():
    with pytest.raises(ValueError):
        sd.subset_size_algebra(-1)
    with pytest.raises(ValueError):
        sd.ConstraintAlgebra("bad", (1, 2), min, identity=9, accept=lambda m: True)


# --- lifted vectors: examples from the contracts -------------------------------


def test_lifted_one_is_unit():
    rng = random.Random(1)
    alg = sd.subset_size_algebra(3)
    lifted = sd.lifted_semiring(COUNT, alg)
    for _ in range(20):
        x = tuple(rng.randint(0, 9) for _ in range(alg.size))
        assert lifted.mul(lifted.one, x) == x
        assert lifted.mul(x, lifted.one) == x


def test_lifted_product_truncates():
    alg = sd.subset_size_algebra(1)  # carrier {0, 1}
    lifted = sd.lifted_semiring(COUNT, alg)
    # index-2 mass is dropped
    assert lifted.mul((1, 1), (1, 1)) == (1, 2)


def test_lifted_zero_annihilates():
    alg = sd.subset_size_algebra(3)
    lifted = sd.lifted_semiring(COUNT, alg)
    x = (1, 2, 3, 4)
    assert lifted.mul(lifted.zero, x) == lifted.zero
    assert lifted.mul(x, lifted.zero) == lifted.zero


def test_lift_edge_places_weight():
    alg = sd.subset_size_algebra(3)  # size 4
    assert sd.lift_edge(COUNT, alg, 5, 2) == (0, 0, 5, 0)
    with pytest.raises(ValueError):
        sd.lift_edge(COUNT, alg, 5, 9)


def test_lift_edge_disjoint_support():
    alg = sd.subset_size_algebra(3)
    a = sd.lift_edge(COUNT, alg, 5, 1)
    b = sd.lift_edge(COUNT, alg, 7, 2)
    assert all(x == 0 or y == 0 for x, y in zip(a, b))


def test_lift_edge_matches_singleton_evaluation():
    # evaluating the one-step path set in the lifted semiring IS the edge vector
    alg = sd.subset_size_algebra(3)
    lifted = sd.lifted_semiring(COUNT, alg)
    w_m = lambda e: sd.lift_edge(COUNT, alg, 5, 2)
    got = sd.evaluate_paths(lifted, w_m, sd.PathSet([("e",)]))
    assert got == sd.lift_edge(COUNT, alg, 5, 2)


def test_project_examples():
    alg = sd.subset_size_algebra(3)
    x = (4, 5, 6, 7)
    assert sd.project(COUNT, replace(alg, accept=lambda m: m == 3), x) == 7
    assert sd.project(COUNT, replace(alg, accept=lambda m: 1 <= m <= 2), x) == 11
    assert sd.project(COUNT, replace(alg, accept=lambda m: False), x) == 0


def test_exists_lifted_one_is_unit_at_false():
    alg = sd.exists_algebra()
    assert sd.lifted_one(COUNT, alg) == (1, 0)


def test_lifted_semiring_requires_identity():
    alg = sd.ordering_algebra([1.0])
    with pytest.raises(ValueError):
        sd.lifted_one(COUNT, alg)


def test_subset_size_edge_shift():
    alg = sd.subset_size_algebra(3)
    c = (3, 4, 0, 0)
    shifted = sd.mul_by_lifted_edge_group(COUNT, alg, c, 5, 1)
    assert shifted == (0, 15, 20, 0)


# --- fast-path equivalence ------------------------------------------------------


def random_vector(rng, sampler, size):
    return tuple(sampler(rng) for _ in range(size))


@pytest.mark.parametrize("base_name", ("count", "minplus"))
def test_group_product_matches_general(base_name):
    base = CATALOG[base_name]
    sampler = catalog_samplers()[base_name]
    alg = sd.subset_size_algebra(5)
    lifted = sd.lifted_semiring(base, alg)
    rng = random.Random(23)
    for _ in range(200):
        x = random_vector(rng, sampler, alg.size)
        y = random_vector(rng, sampler, alg.size)
        assert lifted.eq(sd.mul_group(base, alg, x, y), lifted.mul(x, y))


@pytest.mark.parametrize("base_name", ("count", "minplus"))
@pytest.mark.parametrize("alg_name", sorted(small_algebras()))
def test_edge_products_match_general_product(base_name, alg_name):
    # the O(size) iterative edge product and, where group-like, the
    # O(1)-per-entry shift both agree with the full convolution against
    # a unit vector
    base = CATALOG[base_name]
    sampler = catalog_samplers()[base_name]
    alg = small_algebras()[alg_name]
    rng = random.Random(29)
    for _ in range(200):
        c = random_vector(rng, sampler, alg.size)
        key = rng.choice(alg.carrier)
        weight = sampler(rng)
        via_loop = sd.mul_by_lifted_edge_general(base, alg, c, weight, key)
        # reference: the defining double sum against the unit vector,
        # written out directly so it works for non-associative combines
        reference = [base.zero] * alg.size
        edge = sd.lift_edge(base, alg, weight, key)
        for i, m1 in enumerate(alg.carrier):
            for j, m2 in enumerate(alg.carrier):
                k = alg.index_of(alg.combine(m1, m2))
                if k is not None:
                    reference[k] = base.add(reference[k], base.mul(c[i], edge[j]))
        reference = tuple(reference)
        ok = all(base.eq(a, b) for a, b in zip(via_loop, reference))
        assert ok, (alg_name, base_name, c, key, weight, via_loop, reference)
        if alg.group_like:
            via_group = sd.mul_by_lifted_edge_group(base, alg, c, weight, key)
            assert all(base.eq(a, b) for a, b in zip(via_group, reference))


@pytest.mark.parametrize("alg_name", sorted(CLOSED_FORM_EDGE_PRODUCTS))
def test_closed_form_edge_products(alg_name):
    base = COUNT
    sampler = catalog_samplers()["count"]
    alg = small_algebras()[alg_name]
    closed = CLOSED_FORM_EDGE_PRODUCTS[alg_name]
    rng = random.Random(31)
    for _ in range(200):
        c = random_vector(rng, sampler, alg.size)
        key = rng.choice(alg.carrier)
        weight = sampler(rng)
        want = sd.mul_by_lifted_edge_general(base, alg, c, weight, key)
        assert closed(base, alg, c, weight, key) == want


@pytest.mark.parametrize("alg_name", ("subset_size", "max_count"))
def test_closed_form_edge_products_past_the_carrier(alg_name):
    # a key past the carrier kills every entry, as the general product
    # does, with no base operations
    alg = small_algebras()[alg_name]
    closed = CLOSED_FORM_EDGE_PRODUCTS[alg_name]
    vec = tuple(range(1, alg.size + 1))
    counted, counts = sd.instrumented(COUNT)
    for key in (alg.size, alg.size + 3):
        assert sd.mul_by_lifted_edge_general(COUNT, alg, vec, 5, key) == sd.lifted_zero(COUNT, alg)
        assert closed(counted, alg, vec, 5, key) == sd.lifted_zero(COUNT, alg)
    assert (counts.add, counts.mul) == (0, 0)


def _outside_keys(alg_name):
    # (algebra, keys): the catalog algebra and one whose carrier dataclasses.replace
    # swapped, each with keys below its least value and above its greatest
    if alg_name == "ordering":  # positions 1..5: keys -1, 0 and 6 name no value
        alg = sd.ordering_algebra([0.3, 0.1, 0.4, 0.2, 0.5])
        return [(alg, range(-1, 7)), (replace(alg, carrier=(1, 2, 4)), range(-1, 7))]
    alg = small_algebras()[alg_name]
    if alg_name == "min_count":  # a min reads values, not indices: gaps and offsets too
        narrowed = replace(alg, carrier=(2, 3, 5), identity=5)
    else:  # the shifts read value m at index m
        narrowed = replace(alg, carrier=(0, 1, 2))
    return [(a, range(min(a.carrier) - 2, max(a.carrier) + 3)) for a in (alg, narrowed)]


@pytest.mark.parametrize("alg_name", ("min_count", "max_count", "subset_size", "ordering"))
def test_closed_form_edge_products_outside_the_carrier(alg_name):
    # a key outside the carrier (or a carrier replaced under the form) gets
    # what the general product gives: no collapsed entry, nothing out of place
    closed = CLOSED_FORM_EDGE_PRODUCTS.get(alg_name, ordering_edge_product)
    rng = random.Random(43)
    for alg, keys in _outside_keys(alg_name):
        for key in keys:
            for _ in range(20):
                vec = tuple(rng.randint(0, 9) for _ in range(alg.size))
                want = sd.mul_by_lifted_edge_general(COUNT, alg, vec, 3, key)
                assert closed(COUNT, alg, vec, 3, key) == want, (alg.carrier, key, vec)


@pytest.mark.parametrize("bound", range(1, 7))
def test_min_count_edge_product_folds_only_the_collapsed_suffix(bound):
    # entries below the key are one mul each; the key's entry folds the
    # entries from the key onward (one add each) and multiplies once
    alg = sd.min_count_algebra(bound)
    vec = tuple(range(1, alg.size + 1))
    for i, key in enumerate(alg.carrier):
        counted, counts = sd.instrumented(COUNT)
        got = CLOSED_FORM_EDGE_PRODUCTS["min_count"](counted, alg, vec, 5, key)
        assert got == sd.mul_by_lifted_edge_general(COUNT, alg, vec, 5, key)
        assert (counts.add, counts.mul) == (alg.size - i, i + 1), key


@pytest.mark.parametrize("bound", range(0, 7))
@pytest.mark.parametrize(
    "algebra, product, adds",
    [
        # one mul per entry the shift keeps
        (sd.subset_size_algebra, CLOSED_FORM_EDGE_PRODUCTS["subset_size"], lambda key: 0),
        # the key's entry folds the prefix 0..key (one add each); one mul per entry from the key on
        (sd.max_count_algebra, CLOSED_FORM_EDGE_PRODUCTS["max_count"], lambda key: key + 1),
    ],
    ids=["subset_size", "max_count"],
)
def test_shift_edge_product_op_counts(bound, algebra, product, adds):
    alg = algebra(bound)
    vec = tuple(range(1, alg.size + 1))
    for key in alg.carrier:
        counted, counts = sd.instrumented(COUNT)
        assert product(counted, alg, vec, 5, key) == sd.mul_by_lifted_edge_general(COUNT, alg, vec, 5, key)
        assert (counts.add, counts.mul) == (adds(key), alg.size - key), key


@pytest.mark.parametrize("alg_name", sorted(CLOSED_FORM_EDGE_PRODUCTS))
def test_edge_lifted_recurrence_matches_dense_lifting(alg_name):
    # nw_align over sparse (weight, key) edges gives the same vector with
    # the closed form, the general edge product and, where the algebra
    # lifts, the dense lifted semiring over lift_edge weights
    alg = small_algebras()[alg_name]
    rng = random.Random(53)
    edges = {(i, j): (rng.randint(1, 4), rng.choice(alg.carrier))
             for i in range(4) for j in range(4)}
    sparse = sd.AlignmentProblem(3, 3, lambda i, j: edges[i, j])
    run = lambda product: sd.nw_align(sparse, edge_lifted_semiring(COUNT, alg, product))
    closed = run(CLOSED_FORM_EDGE_PRODUCTS[alg_name])
    assert closed == run(sd.mul_by_lifted_edge_general)
    if alg.associative:
        dense = sd.AlignmentProblem(3, 3, lambda i, j: sd.lift_edge(COUNT, alg, *edges[i, j]))
        assert closed == sd.nw_align(dense, sd.lifted_semiring(COUNT, alg))


def test_ordering_edge_product_matches_general():
    rng = random.Random(37)
    values = [rng.uniform(0, 1) for _ in range(5)]
    alg = sd.ordering_algebra(values)
    sampler = catalog_samplers()["count"]
    for _ in range(200):
        c = random_vector(rng, sampler, alg.size)
        key = rng.choice(alg.carrier)
        weight = sampler(rng)
        want = sd.mul_by_lifted_edge_general(COUNT, alg, c, weight, key)
        assert ordering_edge_product(COUNT, alg, c, weight, key) == want


def test_abs_difference_printed_form_discrepancies():
    # The tabulated two-branch form for the |x - y| algebra, read as
    # charitably as possible (its first branch indexes below zero as
    # printed, so take distance-below), still disagrees with the
    # general product in exactly two places for key >= 1: it misses the
    # m'=0 solution at m == key, and double-counts c[key] at m == 0.
    alg = small_algebras()["abs_difference"]
    bound = alg.carrier[-1]

    def printed(c, weight, key):
        out = []
        for m in alg.carrier:
            first = 0 if m > key - 1 else c[key - m] * weight
            second = 0 if m > bound - key else c[key + m] * weight
            out.append(first + second)
        return tuple(out)

    rng = random.Random(41)
    mismatch_positions = set()
    for _ in range(300):
        c = tuple(rng.randint(1, 5) for _ in range(alg.size))
        key = rng.choice(alg.carrier)
        weight = rng.randint(1, 4)
        want = sd.mul_by_lifted_edge_general(COUNT, alg, c, weight, key)
        got = printed(c, weight, key)
        for m, (g, w) in enumerate(zip(got, want)):
            if g != w:
                mismatch_positions.add((m, key))
    # every mismatch is at m == 0 or m == key, with key >= 1, and both
    # failure modes really occur
    assert mismatch_positions
    assert all(m in (0, key) and key >= 1 for m, key in mismatch_positions)
    assert any(m == 0 for m, _ in mismatch_positions)
    assert any(m == key and m != 0 for m, key in mismatch_positions)


def test_mul_group_requires_inverse():
    alg = small_algebras()["min_count"]
    with pytest.raises(ValueError):
        sd.mul_group(COUNT, alg, (0,) * alg.size, (0,) * alg.size)
    with pytest.raises(ValueError):
        sd.mul_by_lifted_edge_group(COUNT, alg, (0,) * alg.size, 1, 1)


# --- lifted semiring laws over base x algebra pairs -----------------------------


@pytest.mark.parametrize("base_name", sorted(CATALOG))
@pytest.mark.parametrize("alg_name", LIFTABLE)
def test_lifted_semiring_laws(base_name, alg_name):
    base = CATALOG[base_name]
    alg = small_algebras()[alg_name]
    assert alg.size <= 8
    lifted = sd.lifted_semiring(base, alg)
    sample = lifted_values(catalog_samplers()[base_name], alg.size)
    assert law_failures(lifted, sample, trials=40, seed=43) == []


# --- filter/evaluate fusion per constraint value --------------------------------


@pytest.mark.parametrize(
    "alg_name", ("subset_size", "min_count", "max_count", "exists", "forall", "abs_difference")
)
def test_per_value_filter_matches_lifted_evaluation(alg_name):
    # filtering to one constraint value then evaluating equals reading
    # the lifted evaluation at that value's index
    rng = random.Random(47)
    alg = small_algebras(3)[alg_name]
    base = COUNT
    labels = ["a", "b", "c"]
    for _ in range(60):
        v_map = {lab: rng.choice(alg.carrier) for lab in labels}
        w_map = {lab: rng.randint(1, 4) for lab in labels}
        alg_mapped = sd.ConstraintAlgebra(
            alg.name,
            alg.carrier,
            alg.combine,
            alg.identity,
            alg.accept,
            inverse=alg.inverse,
            label_map=v_map.__getitem__,
            associative=alg.associative,
        )
        ps = sd.PathSet(
            tuple(rng.choice(labels) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(0, 4))
        )
        # lifted evaluation, written with per-edge products so the
        # non-associative algebra is exercised too
        def eval_lifted(path):
            vec = sd.lifted_one(base, alg)
            for lab in path:
                vec = sd.mul_by_lifted_edge_general(
                    base, alg, vec, w_map[lab], v_map[lab]
                )
            return vec

        total = sd.lifted_zero(base, alg)
        for path in ps:
            total = tuple(x + y for x, y in zip(total, eval_lifted(path)))
        for idx, m in enumerate(alg.carrier):
            kept = sd.filter_paths(replace(alg_mapped, accept=lambda v, m=m: v == m), ps)
            direct = sd.evaluate_paths(base, w_map, kept)
            assert direct == total[idx], (alg_name, m, ps)


# --- operation-count contracts ---------------------------------------------------


def test_general_product_mul_budget():
    alg = sd.subset_size_algebra(7)
    counted, counts = sd.instrumented(COUNT)
    lifted = sd.lifted_semiring(counted, alg)
    x = tuple(range(alg.size))
    lifted.mul(x, x)
    assert counts.mul <= alg.size**2


def test_group_edge_product_mul_budget():
    alg = sd.subset_size_algebra(7)
    counted, counts = sd.instrumented(COUNT)
    sd.mul_by_lifted_edge_group(counted, alg, tuple(range(alg.size)), 3, 2)
    assert counts.mul <= alg.size
