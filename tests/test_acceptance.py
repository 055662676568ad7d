"""Acceptance suite: one test per shipping criterion, each printing a
pass line (run with -s to see them).  Tolerances are pinned here, not
configurable."""

import itertools
import json
import math
import operator
import random
import time
from dataclasses import replace

import numpy as np
import pytest

import semiring_dp as sd
import oracles
from semiring_dp.laws import (
    catalog_samplers,
    law_failures,
    scored_sequences,
    scored_sets,
)

CATALOG = sd.standard_semirings()
COUNT = CATALOG["count"]
MINPLUS = CATALOG["minplus"]
PROB = CATALOG["prob"]


def _report(num, name):
    print(f"[acceptance] criterion {num:02d} {name}: PASS", flush=True)


def test_criterion_01_semiring_law_suite():
    started = time.perf_counter()
    samplers = catalog_samplers()
    for name, s in CATALOG.items():
        assert law_failures(s, samplers[name], trials=1000, seed=101) == []

    gen = sd.generator_semiring()

    def path_sample(rng):
        return sd.PathSet(
            tuple(rng.choice("abc") for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(0, 3))
        )

    assert law_failures(gen, path_sample, trials=1000, seed=103) == []
    assert (
        law_failures(
            sd.viterbi_semiring(sd.maxplus_semiring()), scored_sets(), trials=1000, seed=105
        )
        == []
    )
    assert (
        law_failures(
            sd.viterbi_simple_semiring(sd.maxplus_semiring()),
            scored_sequences(),
            trials=1000,
            seed=107,
        )
        == []
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"law suite took {elapsed:.2f}s"
    _report(1, "semiring law suite (1000 checks per catalog entry)")


def fusion_instances():
    rng = random.Random(109)
    yield "dag", oracles.adapter_dag(oracles.random_dag(rng, 8))
    yield "dag", oracles.adapter_dag(oracles.random_dag(rng, 6))
    yield "subsequences", oracles.adapter_subsequences(8)
    yield "nonempty-subsequences", oracles.adapter_nonempty_subsequences(8)
    yield "combinations", oracles.adapter_combinations(8, 3)
    yield "combinations", oracles.adapter_combinations(8, 0)
    yield "segment", oracles.adapter_segment_opt(7)
    yield "segment-fixed-count", oracles.adapter_segment_fixed(7, 2, 4)
    yield "segment-min-length", oracles.adapter_segment_minlen(6, 2)
    yield "segment-min-length-ge", oracles.adapter_segment_minlen(6, 2, at_least=True)
    yield "nw", oracles.adapter_nw(5, 5)
    yield "nw", oracles.adapter_nw(4, 5)
    yield "nw-sum", oracles.adapter_nw_sum(4, 4, 6)
    yield "nw-max", oracles.adapter_nw_max(4, 4, 2)
    yield "events", oracles.adapter_events(8, 3)
    yield "ordered", oracles.adapter_ordered([0.62, 0.11, 0.85, 0.47, 0.93, 0.30, 0.51])


def test_criterion_02_fusion_theorem():
    started = time.perf_counter()
    for seed, (name, (labels, run)) in enumerate(fusion_instances(), start=211):
        oracles.check_fusion(labels, run, semiring_names=oracles.FUSION_SEMIRINGS, seed=seed)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"fusion sweep took {elapsed:.2f}s"
    _report(2, "direct runs equal generate-then-evaluate for all recurrences")


def test_criterion_03_constrained_fusion():
    # every standard constraint algebra, paired with the recurrence that
    # consumes it, at the criterion sizes
    n = 8
    labels, generate = oracles.adapter_subsequences(n)
    alg = sd.subset_size_algebra(n, label_map=lambda e: 1, accept=lambda m: m == 3)
    oracles.check_constrained_fusion(
        labels, generate, alg, oracles.adapter_combinations(n, 3)[1], seed=301
    )

    seg_labels, seg_generate = oracles.adapter_segment_opt(7)
    alg = sd.subset_size_algebra(7, label_map=lambda e: 1, accept=lambda m: 2 <= m <= 4)
    oracles.check_constrained_fusion(
        seg_labels, seg_generate, alg, oracles.adapter_segment_fixed(7, 2, 4)[1], seed=302
    )

    seg6_labels, seg6_generate = oracles.adapter_segment_opt(6)
    length = lambda e: e[1] - e[0] + 1
    alg = sd.min_count_algebra(6, label_map=length, accept=lambda m: m == 2)
    oracles.check_constrained_fusion(
        seg6_labels, seg6_generate, alg, oracles.adapter_segment_minlen(6, 2)[1], seed=303
    )
    alg = sd.min_count_algebra(6, label_map=length, accept=lambda m: m >= 2)
    oracles.check_constrained_fusion(
        seg6_labels,
        seg6_generate,
        alg,
        oracles.adapter_segment_minlen(6, 2, at_least=True)[1],
        seed=304,
    )

    nw_labels, nw_generate = oracles.adapter_nw(4, 4)
    gap = lambda e: abs(e[0] - e[1])
    alg = sd.subset_size_algebra(6, label_map=gap, accept=lambda m: m <= 6)
    oracles.check_constrained_fusion(
        nw_labels, nw_generate, alg, oracles.adapter_nw_sum(4, 4, 6)[1], seed=305
    )
    alg = sd.max_count_algebra(4, label_map=gap, accept=lambda m: m <= 2)
    oracles.check_constrained_fusion(
        nw_labels, nw_generate, alg, oracles.adapter_nw_max(4, 4, 2)[1], seed=306
    )

    ev_labels = oracles.event_labels(7)

    def ev_generate(gen, w):
        acc = gen.one
        for k in range(1, 8):
            acc = gen.mul(acc, gen.add(w((0, k)), w((1, k))))
        return acc

    alg = sd.subset_size_algebra(7, label_map=lambda e: e[0], accept=lambda m: m == 3)
    oracles.check_constrained_fusion(
        ev_labels, ev_generate, alg, oracles.adapter_events(7, 3)[1], seed=307
    )

    # existence: the non-empty subsequence recurrence is the lifted,
    # already-simplified form of subsequences + "any element present"
    sub_labels, sub_generate = oracles.adapter_subsequences(8)
    alg = sd.exists_algebra(label_map=lambda e: True, accept=lambda m: m is True)
    oracles.check_constrained_fusion(
        sub_labels, sub_generate, alg, oracles.adapter_nonempty_subsequences(8)[1], seed=308
    )

    # universal flag: generic lifting of subsequences over the and-algebra
    rng = random.Random(309)
    flags = {k: rng.random() < 0.6 for k in range(1, 9)}
    alg = sd.forall_algebra(label_map=flags.__getitem__, accept=lambda m: m is True)
    for base_name in oracles.FUSION_SEMIRINGS:
        base = CATALOG[base_name]
        table = oracles.weight_table(sub_labels, base_name, 310)
        direct = oracles.run_subsequences_lifted(8, base, alg, flags.__getitem__, table)
        paths = sub_generate(sd.generator_semiring(), sd.singleton_weights)
        kept = sd.filter_paths(alg, paths)
        want = sd.evaluate_paths(base, table.__getitem__, kept)
        assert base.eq(direct, want), (base_name, direct, want)

    # absolute difference: edge-product consumption over the cover recurrence
    rng = random.Random(311)
    n_seg = 6
    seg_labels6 = oracles.segment_labels(n_seg)
    bound = n_seg
    v_map = {lab: lab[1] - lab[0] + 1 for lab in seg_labels6}
    alg_base = sd.abs_difference_algebra(bound, label_map=v_map.__getitem__)
    for base_name in ("count", "minplus"):
        base = CATALOG[base_name]
        table = oracles.weight_table(seg_labels6, base_name, 312)
        paths = oracles.adapter_segment_opt(n_seg)[1](
            sd.generator_semiring(), sd.singleton_weights
        )
        for target in alg_base.carrier:
            alg = replace(alg_base, accept=lambda m, t=target: m == t)
            direct = oracles.run_segment_lifted_edges(
                n_seg, base, alg, table, v_map.__getitem__
            )
            kept = sd.filter_paths(alg, paths)
            want = sd.evaluate_paths(base, table.__getitem__, kept)
            assert base.eq(direct, want), (base_name, target, direct, want)

    # sequential ordering: the ordered-subsequence recurrence
    u = [0.62, 0.11, 0.85, 0.47, 0.93, 0.30, 0.51]
    ne_labels, ne_generate = oracles.adapter_nonempty_subsequences(len(u))
    oracles.check_constrained_fusion(
        ne_labels, ne_generate, sd.ordering_algebra(u),
        oracles.adapter_ordered(u)[1], seed=313,
    )
    _report(3, "generate-filter-evaluate equals lift-evaluate-project, all algebras")


def test_criterion_04_fast_path_equivalence():
    algebras = sd.algebra_catalog(5)
    rng = random.Random(401)
    for base_name in ("count", "minplus"):
        base = CATALOG[base_name]
        sampler = catalog_samplers()[base_name]
        for alg_name, alg in algebras.items():
            lifted_mul = None
            if alg.associative:
                lifted_mul = sd.lifted_semiring(base, alg).mul
            closed = sd.CLOSED_FORM_EDGE_PRODUCTS.get(alg_name)
            for _ in range(200):
                c = tuple(sampler(rng) for _ in range(alg.size))
                key = rng.choice(alg.carrier)
                weight = sampler(rng)
                want = sd.mul_by_lifted_edge_general(base, alg, c, weight, key)
                if lifted_mul is not None:
                    edge = sd.lift_edge(base, alg, weight, key)
                    full = lifted_mul(c, edge)
                    assert all(base.eq(a, b) for a, b in zip(full, want))
                if alg.group_like:
                    got = sd.mul_by_lifted_edge_group(base, alg, c, weight, key)
                    assert all(base.eq(a, b) for a, b in zip(got, want))
                    y = tuple(sampler(rng) for _ in range(alg.size))
                    grp = sd.mul_group(base, alg, c, y)
                    ref = sd.lifted_semiring(base, alg).mul(c, y)
                    assert all(base.eq(a, b) for a, b in zip(grp, ref))
                if closed is not None:
                    got = closed(base, alg, c, weight, key)
                    assert all(base.eq(a, b) for a, b in zip(got, want))
    _report(4, "group/monoid fast paths match the general product (200 cases each)")


def test_criterion_05_delannoy():
    for n in range(11):
        p = sd.AlignmentProblem(n, n, lambda i, j: 1)
        assert sd.delannoy(n, n) == sd.nw_align(p, COUNT)
    for n in range(8, 13):
        ratio = sd.delannoy(n + 1, n + 1) / sd.delannoy(n, n)
        assert 5.4 <= ratio <= 6.0, (n, ratio)
    _report(5, "alignment counts are the lattice-path numbers, growth ~5.8^N")


def test_criterion_06_combinations_counts():
    for n in range(13):
        for m in range(n + 1):
            brute = sum(1 for _ in itertools.combinations(range(n), m))
            assert sd.combinations(n, m, COUNT, lambda k: 1) == brute
    _report(6, "combination counts equal brute-force enumeration, N <= 12")


def test_criterion_07_segmentation_optima():
    rng = np.random.default_rng(701)
    y12 = rng.normal(0, 2, 12)
    ts12 = sd.TimeSeries(y12)
    model = sd.SegmentCostModel(kind="constant")
    costs12 = sd.SegmentCosts(ts12, model)
    covers12 = oracles.all_segmentations(12)
    for L in range(1, 13):
        got_cost, segments = sd.segment_series(ts12, model, count=L)
        want = min(
            sum(costs12.cost(i, j) for i, j in cover)
            for cover in covers12
            if len(cover) == L
        )
        assert abs(got_cost - want) <= 1e-9 * max(1.0, abs(want))
        assert len(segments) == L
        assert segments[0][0] == 1 and segments[-1][1] == 12
        assert all(a[1] + 1 == b[0] for a, b in zip(segments, segments[1:]))

    y9 = rng.normal(0, 2, 9)
    ts9 = sd.TimeSeries(y9)
    costs9 = sd.SegmentCosts(ts9, model)
    covers9 = oracles.all_segmentations(9)
    problem9 = sd.SegmentationProblem(9, costs9.weight)
    for L in range(1, 10):
        exact_candidates = [
            sum(costs9.cost(i, j) for i, j in cover)
            for cover in covers9
            if min(j - i + 1 for i, j in cover) == L
        ]
        want_exact = min(exact_candidates) if exact_candidates else math.inf
        got_exact = sd.segment_min_length(problem9, L, MINPLUS)
        assert MINPLUS.eq(got_exact, want_exact)

        got_ge, segments = sd.segment_series(ts9, model, min_length=L)
        want_ge = min(
            sum(costs9.cost(i, j) for i, j in cover)
            for cover in covers9
            if min(j - i + 1 for i, j in cover) >= L
        )
        assert abs(got_ge - want_ge) <= 1e-9 * max(1.0, abs(want_ge))
        assert min(j - i + 1 for i, j in segments) >= L
        assert segments[0][0] == 1 and segments[-1][1] == 9
        assert all(a[1] + 1 == b[0] for a, b in zip(segments, segments[1:]))
    _report(7, "segmentation optima equal exhaustive minima; witnesses are valid covers")


def test_criterion_08_events():
    rng = random.Random(801)
    for n in (1, 4, 9, 15):
        probs = [round(rng.uniform(0.02, 0.98), 4) for _ in range(n)]
        pairs = [(1 - p, p) for p in probs]
        for m in range(n + 1):
            want = oracles.brute_poisson_binomial(probs, m)
            got = sd.events_m_of_n(pairs, m, PROB)
            assert abs(got - want) <= 1e-12, (n, m, got, want)

    base = sd.max_product_semiring()
    vit = sd.viterbi_simple_semiring(base)
    cases = []
    for n in (5, 9, 12):
        cases.append([round(rng.uniform(0.05, 0.95), 3) for _ in range(n)])
    cases.append([0.5] * 10)  # exact ties everywhere
    for probs in cases:
        n = len(probs)
        for m in range(0, n + 1, max(1, n // 3)):
            pairs = [
                (sd.Scored(1 - p, ()), sd.Scored(p, (k,)))
                for k, p in enumerate(probs, start=1)
            ]
            got = sd.events_m_of_n(pairs, m, vit)
            want_p, want_subset = oracles.brute_best_event_subset(probs, m)
            assert base.eq(got.score, want_p)
            assert list(got.witness) == want_subset
    # with uniform probabilities the leftmost m-subset wins outright
    pairs = [(sd.Scored(0.5, ()), sd.Scored(0.5, (k,))) for k in range(1, 11)]
    assert list(sd.events_m_of_n(pairs, 4, vit).witness) == [1, 2, 3, 4]
    _report(8, "event probabilities exact vs subset sums; best subsets match brute force")


def test_criterion_09_longest_increasing_subsequence():
    rng = random.Random(901)
    for _ in range(500):
        n = rng.randint(0, 15)
        u = [round(rng.uniform(0, 1), 6) for _ in range(n)]
        length, witness = sd.lis(u)
        assert length == oracles.max_chain_length(u, operator.lt)
        assert len(witness) == length
        assert oracles.is_strictly_increasing(witness)
    _report(9, "longest increasing subsequence matches exhaustive search, 500 sequences")


def test_criterion_10_operation_count_scaling():
    started = time.perf_counter()

    def ops(run):
        counted, counts = sd.instrumented(COUNT)
        run(counted)
        return counts.total()

    small = ops(lambda s: sd.combinations(60, 8, s, lambda k: 1))
    large = ops(lambda s: sd.combinations(120, 8, s, lambda k: 1))
    assert 1.8 <= large / small <= 2.3, large / small

    small = ops(lambda s: sd.nw_align(sd.AlignmentProblem(30, 30, lambda i, j: 1), s))
    large = ops(lambda s: sd.nw_align(sd.AlignmentProblem(60, 60, lambda i, j: 1), s))
    assert 4 * 0.8 <= large / small <= 4 * 1.2, large / small

    def hull_entries(n, cap):
        # (cap + 1) per cell that a path reaches with summed gap at most cap: the
        # least summed gap F, where a match adds |i - j|, a deletion i, an insertion j
        least = {}
        for i in range(n + 1):
            for j in range(n + 1):
                steps = [least[i - 1, j - 1] + abs(i - j)] if i and j else []
                steps += [least[i - 1, j] + i] if i else []
                steps += [least[i, j - 1] + j] if j else []
                least[i, j] = min(steps, default=0)
        return sum(g <= cap for g in least.values()) * (cap + 1)

    small = ops(
        lambda s: sd.nw_align_sum_constrained(
            sd.AlignmentProblem(16, 16, lambda i, j: 1), 16, s
        )
    )
    large = ops(
        lambda s: sd.nw_align_sum_constrained(
            sd.AlignmentProblem(32, 32, lambda i, j: 1), 32, s
        )
    )
    # the band fold's op counts at these sizes, every cell within the cap of the diagonal
    assert small <= 16337 and large <= 125345, (small, large)
    ratio = hull_entries(32, 32) / hull_entries(16, 16)
    assert ratio * 0.75 <= large / small <= ratio * 1.25, (large / small, ratio)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"scaling checks took {elapsed:.2f}s"
    _report(10, "operation counts scale as N*M, N^2, and the summed-gap hull entries")


def test_criterion_11_synthetic_breakpoint_recovery(tmp_path):
    from semiring_dp.cli import main

    n = 300
    true_breaks = (100, 200)
    sigma = 4.0  # segment means 0/25/50: gaps of 25 > 4*sigma
    x = np.arange(1, n + 1, dtype=float)
    signal = np.where(
        x <= 100,
        0.04 * (x - 50),
        np.where(x <= 200, 25 + 0.04 * (x - 150), 50 + 0.04 * (x - 250)),
    )
    hits = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(1100 + seed)
        y = signal + rng.normal(0, sigma, n)
        data = tmp_path / f"trial_{seed}.csv"
        data.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        out = tmp_path / f"trial_{seed}.json"
        code = main(
            ["segment", str(data), "--count", "3", "--model", "linear",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        found = doc["breakpoints"]
        if len(found) == 2 and all(
            abs(f - t) <= 3 for f, t in zip(found, true_breaks)
        ):
            hits += 1
    assert hits >= 95, f"recovered breakpoints in only {hits}/100 trials"
    _report(11, f"3-piece breakpoint recovery within +/-3 samples in {hits}/100 trials")
