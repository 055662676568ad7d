import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiring_dp as sd
import oracles


def series(values):
    return sd.TimeSeries(values)


def test_time_series_validation():
    with pytest.raises(ValueError):
        sd.TimeSeries([])
    with pytest.raises(ValueError):
        sd.TimeSeries([1.0, math.nan])
    class OneElement:  # what a one-element array is to float() on numpy before 2.4
        ndim = 1

        def __float__(self):
            return 1.0

    for nested in ([[1.0, 2.0]], np.ones((3, 1)), [np.ones(1)], [OneElement()], 5.0, "12", b"12"):
        with pytest.raises(ValueError, match="flat array"):
            sd.TimeSeries(nested)
    # np.array refuses what is not a sequence or an array, and so does TimeSeries
    for unordered in ((x for x in (1.0, 2.0)), {1.0, 2.0}, {1.0: 2.0}):
        with pytest.raises(ValueError, match="flat array"):
            sd.TimeSeries(unordered)
    for flat in ([1, 2.5], (1.0, 2.0), range(1, 3), np.arange(2.0), ["1", "2.5"]):
        assert sd.TimeSeries(flat).values.tolist() == np.array(flat, dtype=float).tolist()
    with pytest.raises(ValueError, match="finite"):
        sd.TimeSeries(np.array([1.0, np.inf]))


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


@st.composite
def closed_form_series(draw):
    """Runs of one value, single samples among them, scaled up to the overflow guard's limit."""
    runs = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(1, 6)), min_size=1,
                         max_size=10))
    y = [value for value, repeat in runs for _ in range(repeat)]
    n = len(y)
    # |y| <= 1 keeps n * sum(n^2) * sum(y^2), which the guard bounds, below the largest float
    top = math.sqrt(sys.float_info.max / (n * n * (n * (n + 1) * (2 * n + 1) / 6)))
    scale = draw(st.sampled_from([1.0, 1e-150, top, top / 3]) | st.floats(1e-3, 1e3))
    offset = draw(st.sampled_from([0.0, 1e3, -1e6]))
    return [offset + scale * v for v in y]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(closed_form_series(), st.sampled_from(["constant", "linear"]),
       st.sampled_from([0.0, 0.75, 1e-300]))
def test_scalar_cost_is_the_column_entry_bit_for_bit(y, kind, lam):
    # the scalar closed form on Python-float sums and the column form on arrays of them
    # make the same operations in the same order
    costs = sd.SegmentCosts(series(y), sd.SegmentCostModel(kind=kind, regularization=lam))
    for j in range(1, len(y) + 1):
        column, weights = costs._cost_column(j), costs.weights(j)
        for i in range(1, j + 1):
            assert costs.cost(i, j).hex() == column[i - 1].hex(), (i, j)
            assert costs.weight(i, j).hex() == weights[i - 1].hex(), (i, j)


@pytest.mark.parametrize("kind", ["constant", "linear"])
def test_weights_read_out_of_column_order_are_the_scalar_cost(kind):
    # reads that hop between columns, and come back to one, give the same bits
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
        monkeypatch.setattr(reg, "LONG_SEGMENT_DIRECT", 10)  # read at each query
    model = sd.SegmentCostModel(kind="linear", error_exponent=exponent, regularization=0.25)
    costs = sd.SegmentCosts(series(y), model)
    for j in range(1, 31):
        for i in range(1, j + 1):
            assert costs.weight(i, j).hex() == (costs.cost(i, j) + 0.25).hex(), (i, j)


@pytest.mark.parametrize("untabled", ["closed form", "exponent", "long"])
@pytest.mark.parametrize("kind", ["constant", "linear"])
@pytest.mark.parametrize("lam", [0.0, 0.25])
def test_weight_columns_are_the_scalar_weight_bit_for_bit(monkeypatch, untabled, kind, lam):
    # a fold over a ColumnTable reads weights(j) whole, so every entry must be the scalar
    # weight's bits, the entries cost computes directly (off p=2, or long) included
    import semiring_dp.regression as reg

    y = np.random.default_rng(15).normal(0, 2, 30) + np.linspace(0, 4, 30)
    if untabled == "long":
        monkeypatch.setattr(reg, "LONG_SEGMENT_DIRECT", 5)  # read at each column
    exponent = 1.5 if untabled == "exponent" else 2.0
    model = sd.SegmentCostModel(kind=kind, error_exponent=exponent, regularization=lam)
    costs = sd.SegmentCosts(series(y), model)
    for j in range(1, 31):
        column = costs.weights(j)
        assert column.dtype == float and column.shape == (j,)
        for i in range(1, j + 1):
            assert column[i - 1].hex() == (costs.cost(i, j) + lam).hex(), (i, j)


def test_long_segment_limit_is_read_at_each_query(monkeypatch):
    import semiring_dp.regression as reg

    y = np.random.default_rng(14).normal(0, 2, 30)
    costs = sd.SegmentCosts(series(y), sd.SegmentCostModel(regularization=0.25))
    closed_form = costs.cost(1, 30)
    monkeypatch.setattr(reg, "LONG_SEGMENT_DIRECT", 10)  # after construction
    direct = costs._direct_cost(1, 30)
    assert costs.cost(1, 30).hex() == direct.hex() != closed_form.hex()
    assert costs.weight(1, 30).hex() == (direct + 0.25).hex()
    assert costs.cost(21, 30).hex() == costs._cost_column(30)[20].hex()  # 10 long: a column read


def test_cost_and_untabled_weight_are_python_floats(monkeypatch):
    # a fold mixing numpy.float64 into its floats is slower: the closed form and the
    # direct sums both give Python floats
    import semiring_dp.regression as reg

    y = np.random.default_rng(12).normal(0, 2, 5)
    costs = sd.SegmentCosts(series(y), sd.SegmentCostModel())
    for j in range(1, 6):
        for i in range(1, j + 1):
            assert type(costs.cost(i, j)) is float, (i, j)
    monkeypatch.setattr(reg, "LONG_SEGMENT_DIRECT", 10)  # read at each query
    y = np.random.default_rng(13).normal(0, 2, 30)
    assert type(sd.SegmentCosts(series(y), sd.SegmentCostModel()).weight(1, 5)) is float


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


def test_segment_series_scoring_the_base_zero_has_no_segments():
    # a constant series fits every segment exactly, so each cover's product is
    # max-product's zero, 0.0: no cover, and no witness to check
    ts = series([2.0] * 6)
    assert sd.segment_series(ts, sd.SegmentCostModel(kind="constant"),
                             base=sd.max_product_semiring()) == (0.0, [])


@pytest.mark.parametrize("witness, message", [
    (((1, 2), (4, 6)), "solver returned a non-contiguous cover: [(1, 2), (4, 6)]"),
    (((1, 2), (3, 5)), "solver returned an incomplete cover: [(1, 2), (3, 5)]"),
])
def test_a_cover_that_is_gapped_or_short_is_refused(monkeypatch, witness, message):
    from semiring_dp import regression

    monkeypatch.setattr(regression, "segment_opt", lambda p, s: sd.Scored(1.0, witness))
    with pytest.raises(RuntimeError) as raised:
        sd.segment_series(series([1.0, 2.0, 4.0, 8.0, 0.5, 1.5]), sd.SegmentCostModel())
    assert str(raised.value) == message


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
