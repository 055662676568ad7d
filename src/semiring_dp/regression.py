"""Least-squares segment costs wired into the segmentation recurrences.

Interval fit costs come from cumulative sums in O(1) per query after an
O(N) build; the segmentation solvers combine them with a
score-and-witness semiring so the optimal cost and its breakpoints come
out of one forward pass.  numpy is imported by the functions that use it,
so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .algorithms import (
    SegmentationProblem,
    segment_fixed_count,
    segment_min_length,
    segment_opt,
)
from .semirings import Scored, Semiring, minplus_semiring, viterbi_simple_semiring

# past this segment length, costs are recomputed directly on centered
# data instead of differenced cumulative sums (cancellation guard)
LONG_SEGMENT_DIRECT = 10_000


class TimeSeries:
    """A finite sequence of real samples, indexed 1..N."""

    __slots__ = ("values",)

    def __init__(self, values):
        import numpy as np
        arr = np.array(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a time series is a non-empty flat array of samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("time series samples must be finite")
        arr.setflags(write=False)
        self.values = arr

    def __len__(self) -> int:
        return int(self.values.size)

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

    Builds cumulative sums of (1, n, n^2, y, n*y, y^2) once; each p=2
    cost query is then O(1).  Non-quadratic exponents and very long
    segments fall back to an O(j - i) centered computation.

    ``weight`` (cost plus the regularization) reads p=2 weights from a
    column of float64 values when N <= LONG_SEGMENT_DIRECT: column j, the
    weights of every segment ending at j, is computed with numpy when a
    weight ending at j is asked for and the column held is another one,
    by the same float operations as ``cost``, so it matches
    ``cost(i, j) + regularization`` bit for bit.  Only the latest column
    is kept (N floats, 8 bytes each): the segmentation folds read column
    j only while computing their row j, so each column is built once per
    fold.  Past LONG_SEGMENT_DIRECT samples ``cost`` switches method for
    long segments, which the column formula does not follow.
    """

    def __init__(self, ts: TimeSeries, model: SegmentCostModel):
        import numpy as np
        y = ts.values
        n = np.arange(1, y.size + 1, dtype=float)
        zero = np.zeros(1)
        self.model = model
        self._y = y
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
            self._sy = np.concatenate([zero, np.cumsum(y)])
            self._syy = np.concatenate([zero, np.cumsum(y * y)])
            self._sn = np.concatenate([zero, np.cumsum(n)])
            self._snn = np.concatenate([zero, np.cumsum(n * n)])
            self._sny = np.concatenate([zero, np.cumsum(n * y)])
            # bounds every sum and product a cost query forms (Cauchy-Schwarz)
            bound = y.size * self._snn[-1] * self._syy[-1]
        if not np.isfinite(bound):
            raise ValueError("sample magnitudes overflow the cost model's sums; rescale the series")
        self._tabled = model.error_exponent == 2.0 and y.size <= LONG_SEGMENT_DIRECT
        # (j, column): weight(i, j) at index i - 1 of the column, for the last j asked
        self._column = (0, None)

    @property
    def length(self) -> int:
        return self._y.size

    def _fit(self, i: int, j: int) -> np.ndarray:
        """Least-squares fitted values over [i, j] (1-based, inclusive)."""
        import numpy as np
        y = self._y[i - 1 : j]
        if self.model.kind == "constant" or y.size == 1:
            return np.full(y.size, y.mean())
        x = np.arange(i, j + 1, dtype=float)
        xc = x - x.mean()
        denom = float(xc @ xc)
        slope = float(xc @ (y - y.mean())) / denom if denom > 0 else 0.0
        return y.mean() + slope * xc

    def _direct_cost(self, i: int, j: int) -> float:
        import numpy as np
        residuals = np.abs(self._y[i - 1 : j] - self._fit(i, j))
        p = self.model.error_exponent
        return float(np.sum(residuals**p)) / p

    def cost(self, i: int, j: int) -> float:
        """Best-fit cost of the interval [i, j], 1-based inclusive."""
        if not 1 <= i <= j <= self.length:
            raise ValueError(f"interval ({i}, {j}) outside 1..{self.length}")
        length = j - i + 1
        if self.model.error_exponent != 2.0 or length > LONG_SEGMENT_DIRECT:
            return self._direct_cost(i, j)
        sy = self._sy[j] - self._sy[i - 1]
        syy = self._syy[j] - self._syy[i - 1]
        if self.model.kind == "constant" or length == 1:
            rss = syy - sy * sy / length
        else:
            sn = self._sn[j] - self._sn[i - 1]
            snn = self._snn[j] - self._snn[i - 1]
            sny = self._sny[j] - self._sny[i - 1]
            sxx = snn - sn * sn / length
            sxy = sny - sn * sy / length
            syy_c = syy - sy * sy / length
            rss = syy_c - sxy * sxy / sxx if sxx > 0 else syy_c
        return float(max(rss, 0.0) / 2.0)

    def weight(self, i: int, j: int) -> float:
        """``cost(i, j) + regularization``, as a Python float when read from the table."""
        if not self._tabled:
            return self.cost(i, j) + self.model.regularization
        if not 1 <= i <= j <= self._y.size:
            raise ValueError(f"interval ({i}, {j}) outside 1..{self.length}")
        end, column = self._column
        if end != j:
            column = self._weight_column(j)
            self._column = (j, column)
        return column.item(i - 1)

    def _weight_column(self, j: int) -> np.ndarray:
        """weight(i, j) for i = 1..j: ``cost``'s p=2 branch with i as an array."""
        import numpy as np
        start = np.arange(j)  # i - 1
        length = j - start
        sy = self._sy[j] - self._sy[start]
        syy = self._syy[j] - self._syy[start]
        syy_c = syy - sy * sy / length  # the constant fit's rss, and any length-1 rss
        rss = syy_c
        if self.model.kind == "linear":
            sn = self._sn[j] - self._sn[start]
            snn = self._snn[j] - self._snn[start]
            sny = self._sny[j] - self._sny[start]
            sxx = snn - sn * sn / length
            sxy = sny - sn * sy / length
            with np.errstate(divide="ignore", invalid="ignore"):  # where sxx > 0 fails
                fitted = syy_c - sxy * sxy / sxx
            rss = np.where((length > 1) & (sxx > 0), fitted, syy_c)
        return np.where(rss < 0.0, 0.0, rss) / 2.0 + self.model.regularization


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
    pass exists.  An unsatisfiable constraint yields the base zero
    score with no segments.
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
    problem = SegmentationProblem(
        n, lambda i, j: Scored(costs.weight(i, j), ((i, j),))
    )
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
