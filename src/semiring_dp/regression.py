"""Least-squares segment costs wired into the segmentation recurrences.

Interval fit costs come from cumulative sums kept as Python floats: one
cost is an O(1) closed form on them, and a column of costs, every segment
ending at j, the same formula over them as numpy arrays.  The
segmentation solvers combine the costs with a score-and-witness semiring,
so the optimal cost and its breakpoints come out of one forward pass.
numpy is imported by the functions that use it: the cost columns, the
direct sums (long segments, other exponents) and the fitted values.  So
importing the package, or folding scalar costs, does not load it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple

from .algorithms import (
    ColumnTable,
    SegmentationProblem,
    segment_fixed_count,
    segment_min_length,
    segment_opt,
)
from .semirings import Semiring, minplus_semiring, viterbi_simple_semiring

# past this segment length, costs are recomputed directly on centered
# data instead of differenced cumulative sums (cancellation guard)
LONG_SEGMENT_DIRECT = 10_000


class TimeSeries:
    """A finite sequence of real samples, indexed 1..N.

    ``samples`` holds them as a tuple of Python floats; ``values`` is the
    same samples as a read-only float array, built on first read.
    """

    __slots__ = ("samples", "_values")

    def __init__(self, values):
        samples = ()
        # samples come as a flat array or a sequence (a string is one sample, not its
        # characters), and a sample with an ndim of its own is nested: float() of a
        # one-element array is no error on every numpy, so ndim is read, not trusted
        if (getattr(values, "ndim", 0) == 1
                or isinstance(values, Sequence) and not isinstance(values, (str, bytes))):
            if not any(map(getattr, values, repeat("ndim"), repeat(0))):
                try:
                    samples = tuple(map(float, values))
                except TypeError:  # a nested sample without an ndim, a list say
                    pass
        if not samples:
            raise ValueError("a time series is a non-empty flat array of samples")
        if not all(map(math.isfinite, samples)):
            raise ValueError("time series samples must be finite")
        self.samples = samples
        self._values = None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            import numpy as np
            self._values = np.array(self.samples)
            self._values.setflags(write=False)
        return self._values

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return f"TimeSeries(n={len(self)})"


@dataclass(frozen=True)
class SegmentCostModel:
    """Per-segment model: constant mean or linear trend.

    Parameters are always fit by least squares; the reported cost is
    (1/p) * sum |residual|^p with p = ``error_exponent`` (closed form
    from cumulative sums when p == 2, direct summation otherwise).
    ``regularization`` is the per-segment penalty added when building
    recurrence weights.
    """

    kind: str = "linear"
    error_exponent: float = 2.0
    regularization: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "linear"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not self.error_exponent > 0:  # also refuses nan
            raise ValueError("error_exponent must be positive")
        if not self.regularization >= 0:
            raise ValueError("regularization must be non-negative")


class SegmentCosts:
    """Interval fit costs for one series/model pair.

    Builds the cumulative sums of (y, y^2, n, n^2, n*y) once, as lists of
    Python floats, by the left fold numpy's ``cumsum`` makes too.
    ``cost(i, j)`` is the p=2 closed form on them, O(1) in any read
    order, so a list-route fold reads its weights without numpy.
    ``weights(j)`` gives column j, the weights of every segment ending at
    j, as a float array, which a segmentation fold over a ``ColumnTable``
    reads whole: the same operations in the same order over the sums as
    arrays (made on the first column read), so each entry is the scalar
    weight's bits.  Non-quadratic exponents and segments longer than
    LONG_SEGMENT_DIRECT fall back to an O(j - i) centered computation, in
    ``weights`` too.
    """

    def __init__(self, ts: TimeSeries, model: SegmentCostModel):
        y = ts.samples
        n = tuple(map(float, range(1, len(y) + 1)))
        self.model = model
        self._series, self._size = ts, len(y)
        # read on every query, so held here (a model is frozen)
        self._exponent, self._regularization = model.error_exponent, model.regularization
        self._linear = model.kind == "linear"
        # each sum before sample i at index i - 1: zero, then the running sums
        self._sums = tuple([0.0, *accumulate(terms)] for terms in (
            y, map(mul, y, y), n, map(mul, n, n), map(mul, n, y)))
        self._arrays = None  # the sums as float arrays, for the columns
        _, syy, _, snn, _ = self._sums
        # bounds every sum and product a cost query forms (Cauchy-Schwarz)
        if not math.isfinite(len(y) * snn[-1] * syy[-1]):
            raise ValueError("sample magnitudes overflow the cost model's sums; rescale the series")

    @property
    def length(self) -> int:
        return self._size

    def _fit(self, i: int, j: int) -> np.ndarray:
        """Least-squares fitted values over [i, j] (1-based, inclusive)."""
        import numpy as np
        y = self._series.values[i - 1 : j]
        if self.model.kind == "constant" or y.size == 1:
            return np.full(y.size, y.mean())
        x = np.arange(i, j + 1, dtype=float)
        xc = x - x.mean()
        denom = float(xc @ xc)
        slope = float(xc @ (y - y.mean())) / denom if denom > 0 else 0.0
        return y.mean() + slope * xc

    def _direct_cost(self, i: int, j: int) -> float:
        import numpy as np
        residuals = np.abs(self._series.values[i - 1 : j] - self._fit(i, j))
        p = self.model.error_exponent
        return float(np.sum(residuals**p)) / p

    def cost(self, i: int, j: int) -> float:
        """Best-fit cost of the interval [i, j], 1-based inclusive."""
        if not 1 <= i <= j <= self._size:
            raise ValueError(f"interval ({i}, {j}) outside 1..{self.length}")
        if j - i >= LONG_SEGMENT_DIRECT or self._exponent != 2.0:
            return self._direct_cost(i, j)
        sy_, syy_, sn_, snn_, sny_ = self._sums
        s, length = i - 1, float(j - i + 1)  # the sums before i, and the length
        sy = sy_[j] - sy_[s]
        rss = syy_[j] - syy_[s] - sy * sy / length  # the constant fit's, and any length-1 one
        if self._linear and length > 1.0:
            sn = sn_[j] - sn_[s]
            sxx = snn_[j] - snn_[s] - sn * sn / length
            if sxx > 0:
                sxy = sny_[j] - sny_[s] - sn * sy / length
                rss -= sxy * sxy / sxx
        return (0.0 if rss < 0.0 else rss) / 2.0

    def weight(self, i: int, j: int) -> float:
        """The recurrence weight of segment [i, j]: ``cost(i, j) + regularization``."""
        return self.cost(i, j) + self._regularization

    def weights(self, j: int) -> np.ndarray:
        """weight(i, j) for i = 1..j as a new float array, entry for entry the scalar's."""
        costs = self._cost_column(j)
        # the entries cost computes directly: every one off p=2, else the long segments
        last = j if self._exponent != 2.0 else j - LONG_SEGMENT_DIRECT
        for i in range(1, last + 1):
            costs[i - 1] = self._direct_cost(i, j)
        return costs + self._regularization

    def _cost_column(self, j: int) -> np.ndarray:
        """cost(i, j) for i = 1..j by the p=2 closed form, as a new float array."""
        import numpy as np
        if self._arrays is None:
            self._arrays = tuple(map(np.array, self._sums))
        sy_, syy_, sn_, snn_, sny_ = self._arrays
        start = slice(0, j)  # the sums before i, for i = 1..j
        length = np.arange(float(j), 0.0, -1.0)  # j - i + 1: j, ..., 1
        sy = sy_[j] - sy_[start]
        syy = syy_[j] - syy_[start]
        syy_c = syy - sy * sy / length  # the constant fit's rss, and any length-1 rss
        rss = syy_c
        if self._linear:
            sn = sn_[j] - sn_[start]
            snn = snn_[j] - snn_[start]
            sny = sny_[j] - sny_[start]
            sxx = snn - sn * sn / length
            sxy = sny - sn * sy / length
            with np.errstate(divide="ignore", invalid="ignore"):  # where sxx > 0 fails
                fitted = syy_c - sxy * sxy / sxx
            rss = np.where((length > 1) & (sxx > 0), fitted, syy_c)
        return np.where(rss < 0.0, 0.0, rss) / 2.0


class SegmentationResult(NamedTuple):
    cost: float
    segments: list[tuple[int, int]]


def _check_cover(segments, n: int) -> None:
    expected_start = 1
    for i, j in segments:
        if i != expected_start or j < i:
            raise RuntimeError(f"solver returned a non-contiguous cover: {segments}")
        expected_start = j + 1
    if expected_start != n + 1:
        raise RuntimeError(f"solver returned an incomplete cover: {segments}")


def segment_series(
    ts: TimeSeries,
    model: SegmentCostModel,
    *,
    count: int | None = None,
    count_range: tuple[int, int] | None = None,
    min_length: int | None = None,
    base: Semiring | None = None,
) -> SegmentationResult:
    """Optimal segmentation of ``ts``: (cost, list of (i, j) segments).

    At most one constraint applies: ``count`` fixes the number of
    segments, ``count_range`` bounds it, ``min_length`` requires every
    segment to span at least that many samples.  ``base`` is the
    selection semiring scoring the fit costs (min-plus by default); the
    witness comes from score-and-witness tupling, so no backtracking
    pass exists.  The folds read the costs as a ``ColumnTable``, a whole
    column at a time where ``base`` allows it (see
    ``SegmentationProblem``), at any length.  An unsatisfiable
    constraint yields the base zero score with no segments.
    """
    n = len(ts)
    given = [c for c in (count, count_range, min_length) if c is not None]
    if len(given) > 1:
        raise ValueError("choose at most one of count, count_range, min_length")
    if count is not None:
        count_range = (count, count)

    base = base if base is not None else minplus_semiring()
    vit = viterbi_simple_semiring(base)
    costs = SegmentCosts(ts, model)
    problem = SegmentationProblem(n, ColumnTable(costs.weight, costs.weights, labelled=True))
    if min_length is not None:
        result = segment_min_length(problem, min_length, vit, at_least=True)
    elif count_range is not None:
        result = segment_fixed_count(problem, count_range[0], count_range[1], vit)
    else:
        result = segment_opt(problem, vit)
    if result.score == base.zero:  # exact: a score within eq's tolerance of zero is live
        return SegmentationResult(result.score, [])
    segments = list(result.witness)
    _check_cover(segments, n)
    return SegmentationResult(result.score, segments)


def piecewise_values(
    ts: TimeSeries, model: SegmentCostModel, segments
) -> np.ndarray:
    """Fitted value at every sample for a given segment cover."""
    import numpy as np
    costs = SegmentCosts(ts, model)
    out = np.empty(len(ts))
    for i, j in segments:
        out[i - 1 : j] = costs._fit(i, j)
    return out
