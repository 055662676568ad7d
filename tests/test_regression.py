import math
import random

import numpy as np
import pytest

import semiring_dp as sd
import oracles


def series(values):
    return sd.TimeSeries(values)


def test_time_series_validation():
    with pytest.raises(ValueError):
        sd.TimeSeries([])
    with pytest.raises(ValueError):
        sd.TimeSeries([1.0, math.nan])
    with pytest.raises(ValueError):
        sd.TimeSeries([[1.0, 2.0]])


def test_model_validation():
    with pytest.raises(ValueError):
        sd.SegmentCostModel(kind="quadratic")
    with pytest.raises(ValueError):
        sd.SegmentCostModel(error_exponent=0)
    with pytest.raises(ValueError):
        sd.SegmentCostModel(regularization=-1)


def test_perfect_fits_cost_zero():
    const = sd.SegmentCostModel(kind="constant")
    assert sd.SegmentCosts(series([2.0, 2.0, 2.0]), const).cost(1, 3) == 0.0
    linear = sd.SegmentCostModel(kind="linear")
    assert abs(sd.SegmentCosts(series([1.0, 2.0, 3.0]), linear).cost(1, 3)) < 1e-12


def test_constant_cost_hand_value():
    const = sd.SegmentCostModel(kind="constant")
    # mean 1, residuals (-1, 1), cost (1/2) * (1 + 1) = 1
    assert abs(sd.SegmentCosts(series([0.0, 2.0]), const).cost(1, 2) - 1.0) < 1e-12


def test_single_point_linear_segment_is_free():
    linear = sd.SegmentCostModel(kind="linear")
    assert sd.SegmentCosts(series([4.0, 9.0]), linear).cost(2, 2) == 0.0


def test_cost_bounds_checked():
    costs = sd.SegmentCosts(series([1.0, 2.0, 3.0]), sd.SegmentCostModel())
    with pytest.raises(ValueError):
        costs.cost(0, 2)
    with pytest.raises(ValueError):
        costs.cost(2, 4)
    with pytest.raises(ValueError):
        costs.cost(3, 2)


def direct_cost(y, i, j, kind, p):
    seg = np.asarray(y[i - 1 : j], dtype=float)
    x = np.arange(i, j + 1, dtype=float)
    if kind == "constant" or seg.size == 1:
        fit = np.full(seg.size, seg.mean())
    else:
        coeffs = np.polyfit(x, seg, 1)
        fit = np.polyval(coeffs, x)
    return float(np.sum(np.abs(seg - fit) ** p)) / p


@pytest.mark.parametrize("kind", ("constant", "linear"))
def test_prefix_costs_match_direct_summation(kind):
    rng = np.random.default_rng(7)
    y = rng.normal(0, 3, 200) + np.linspace(0, 5, 200)
    ts = series(y)
    costs = sd.SegmentCosts(ts, sd.SegmentCostModel(kind=kind))
    rand = random.Random(11)
    for _ in range(300):
        i = rand.randint(1, 200)
        j = rand.randint(i, 200)
        want = direct_cost(y, i, j, kind, 2.0)
        got = costs.cost(i, j)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_non_quadratic_exponent_direct_path():
    y = [0.0, 2.0, 1.0, 5.0]
    model = sd.SegmentCostModel(kind="constant", error_exponent=1.5)
    costs = sd.SegmentCosts(series(y), model)
    assert abs(costs.cost(1, 4) - direct_cost(y, 1, 4, "constant", 1.5)) < 1e-12


def test_long_segment_guard_uses_direct_path(monkeypatch):
    import semiring_dp.regression as reg

    rng = np.random.default_rng(13)
    y = rng.normal(0, 1, 50)
    model = sd.SegmentCostModel(kind="linear")
    baseline = sd.SegmentCosts(series(y), model).cost(1, 50)
    monkeypatch.setattr(reg, "LONG_SEGMENT_DIRECT", 10)
    guarded = sd.SegmentCosts(series(y), model).cost(1, 50)
    assert abs(guarded - baseline) <= 1e-9 * max(1.0, abs(baseline))


@pytest.mark.parametrize("n", [1, 2, 5, 420])
@pytest.mark.parametrize("kind", ["constant", "linear"])
@pytest.mark.parametrize("lam", [0.0, 0.75])
def test_weight_table_is_the_scalar_cost_bit_for_bit(n, kind, lam):
    rng = np.random.default_rng(n)
    y = rng.normal(0, 3, n) + np.linspace(0, 5, n) + 1e3
    costs = sd.SegmentCosts(series(y), sd.SegmentCostModel(kind=kind, regularization=lam))
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            got = costs.weight(i, j)
            assert type(got) is float
            assert got.hex() == float(costs.cost(i, j) + lam).hex(), (i, j)


@pytest.mark.parametrize("kind", ["constant", "linear"])
def test_weights_read_out_of_column_order_are_the_scalar_cost(kind):
    # reads that hop between columns, and come back to one, rebuild the column they need
    y = np.random.default_rng(7).normal(0, 2, 30)
    costs = sd.SegmentCosts(series(y), sd.SegmentCostModel(kind=kind, regularization=0.5))
    cells = [(i, j) for j in range(1, 31) for i in range(1, j + 1)]
    order = np.random.default_rng(8).permutation(len(cells))
    for k in [*order, *order[:50]]:
        i, j = cells[k]
        assert costs.weight(i, j).hex() == float(costs.cost(i, j) + 0.5).hex(), (i, j)


@pytest.mark.parametrize("untabled", ["exponent", "long"])
def test_untabled_weight_is_the_scalar_cost_plus_regularization(monkeypatch, untabled):
    import semiring_dp.regression as reg

    y = np.random.default_rng(11).normal(0, 2, 30)
    exponent = 1.5 if untabled == "exponent" else 2.0
    if untabled == "long":
        monkeypatch.setattr(reg, "LONG_SEGMENT_DIRECT", 10)  # read at construction
    model = sd.SegmentCostModel(kind="linear", error_exponent=exponent, regularization=0.25)
    costs = sd.SegmentCosts(series(y), model)
    for j in range(1, 31):
        for i in range(1, j + 1):
            assert costs.weight(i, j).hex() == (costs.cost(i, j) + 0.25).hex(), (i, j)


def test_weight_bounds_checked():
    costs = sd.SegmentCosts(series([1.0, 2.0, 3.0]), sd.SegmentCostModel())
    for i, j in [(0, 2), (2, 4), (3, 2), (-1, 3)]:
        with pytest.raises(ValueError):
            costs.weight(i, j)


def test_regularized_weights():
    y = [1.0, 2.0, 2.0, 1.0]
    plain = sd.SegmentCosts(series(y), sd.SegmentCostModel(kind="constant")).weight
    reg = sd.SegmentCosts(
        series(y), sd.SegmentCostModel(kind="constant", regularization=2.5)
    ).weight
    assert abs(reg(1, 4) - plain(1, 4) - 2.5) < 1e-12


def test_large_regularization_forces_one_segment():
    rng = np.random.default_rng(17)
    y = rng.normal(0, 1, 12)
    ts = series(y)
    model = sd.SegmentCostModel(kind="constant", regularization=1e6)
    cost, segments = sd.segment_series(ts, model)
    assert segments == [(1, 12)]


def test_zero_regularization_linear_collapses_to_free_cover():
    # with no penalty, short segments fit exactly and the best cover
    # costs nothing
    rng = np.random.default_rng(19)
    y = rng.normal(0, 5, 10)
    cost, segments = sd.segment_series(series(y), sd.SegmentCostModel(kind="linear"))
    assert abs(cost) < 1e-9
    assert len(segments) >= 5  # pieces of at most two samples fit exactly


def test_segment_series_forced_single_segment():
    y = [float(v) for v in range(1, 9)]
    ts = series(y)
    model = sd.SegmentCostModel(kind="constant")
    cost, segments = sd.segment_series(ts, model, count=1)
    assert segments == [(1, 8)]
    cost, segments = sd.segment_series(ts, model, min_length=8)
    assert segments == [(1, 8)]


def test_segment_series_recovers_step():
    y = [0.0] * 10 + [5.0] * 10
    ts = series(y)
    cost, segments = sd.segment_series(ts, sd.SegmentCostModel(kind="constant"), count=2)
    assert segments == [(1, 10), (11, 20)]
    assert abs(cost) < 1e-12


@pytest.mark.parametrize("base", [sd.bottleneck_semiring, sd.max_product_semiring])
def test_segment_series_keeps_a_witness_scoring_near_zero(base):
    # the best cover costs 1.4e-14, within float_eq's absolute floor of the
    # maximizing bases' zero; only a score of exactly zero means no cover
    ts = series([1.0, 2.0, 3.0000001, 4.0, 5.0, 6.0])
    cost, segments = sd.segment_series(ts, sd.SegmentCostModel(), base=base())
    assert 0.0 < cost < 1e-12
    assert segments == [(1, 6)]


def test_segment_series_validation():
    ts = series([1.0, 2.0, 3.0])
    model = sd.SegmentCostModel()
    with pytest.raises(ValueError):
        sd.segment_series(ts, model, count=4)
    with pytest.raises(ValueError):
        sd.segment_series(ts, model, count=1, min_length=2)
    with pytest.raises(ValueError):
        sd.segment_series(ts, model, count_range=(2, 1))


def test_segment_series_witness_covers_and_matches_exhaustive():
    rng = np.random.default_rng(23)
    y = rng.normal(0, 2, 11)
    ts = series(y)
    model = sd.SegmentCostModel(kind="constant")
    costs = sd.SegmentCosts(ts, model)
    covers = oracles.all_segmentations(len(y))
    for L in (1, 2, 3, 5):
        got_cost, segments = sd.segment_series(ts, model, count=L)
        assert len(segments) == L
        assert segments[0][0] == 1 and segments[-1][1] == len(y)
        assert all(a[1] + 1 == b[0] for a, b in zip(segments, segments[1:]))
        want = min(
            sum(costs.cost(i, j) for i, j in cover)
            for cover in covers
            if len(cover) == L
        )
        assert abs(got_cost - want) <= 1e-9 * max(1.0, abs(want))
        rebuilt = sum(costs.cost(i, j) for i, j in segments)
        assert abs(rebuilt - got_cost) <= 1e-9 * max(1.0, abs(got_cost))


def test_segment_series_min_length_matches_exhaustive():
    rng = np.random.default_rng(29)
    y = rng.normal(0, 2, 9)
    ts = series(y)
    model = sd.SegmentCostModel(kind="constant")
    costs = sd.SegmentCosts(ts, model)
    covers = oracles.all_segmentations(len(y))
    for L in (1, 2, 3, 4, 9):
        got_cost, segments = sd.segment_series(ts, model, min_length=L)
        assert min(j - i + 1 for i, j in segments) >= L
        want = min(
            sum(costs.cost(i, j) for i, j in cover)
            for cover in covers
            if min(j - i + 1 for i, j in cover) >= L
        )
        assert abs(got_cost - want) <= 1e-9 * max(1.0, abs(want))


def test_fixed_count_beats_random_valid_segmentations():
    rng = np.random.default_rng(31)
    rand = random.Random(37)
    y = rng.normal(0, 3, 30)
    ts = series(y)
    model = sd.SegmentCostModel(kind="linear")
    costs = sd.SegmentCosts(ts, model)
    L = 4
    best, segments = sd.segment_series(ts, model, count=L)
    n = len(y)
    for _ in range(1000):
        cuts = sorted(rand.sample(range(1, n), L - 1))
        bounds = [0] + cuts + [n]
        sample_cost = sum(
            costs.cost(a + 1, b) for a, b in zip(bounds, bounds[1:])
        )
        assert best <= sample_cost + 1e-9


def test_fixed_count_cost_monotone_in_segment_count():
    rng = np.random.default_rng(41)
    y = rng.normal(0, 2, 16)
    ts = series(y)
    model = sd.SegmentCostModel(kind="constant")
    previous = math.inf
    for L in range(1, 17):
        cost, _ = sd.segment_series(ts, model, count=L)
        assert cost <= previous + 1e-9
        previous = cost


def test_piecewise_values_follow_segment_means():
    y = [1.0, 1.0, 5.0, 5.0]
    ts = series(y)
    model = sd.SegmentCostModel(kind="constant")
    fit = sd.piecewise_values(ts, model, [(1, 2), (3, 4)])
    assert np.allclose(fit, [1.0, 1.0, 5.0, 5.0])
