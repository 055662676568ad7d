"""Least-squares segment costs wired into the segmentation recurrences.

Interval fit costs come from cumulative sums, one O(N) column of them
per segment end; the segmentation solvers combine them with a
score-and-witness semiring so the optimal cost and its breakpoints come
out of one forward pass.  numpy is imported by the functions that use it,
so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    Builds cumulative sums of (1, n, n^2, y, n*y, y^2) once.  Column j,
    the costs of every segment ending at j, is computed with numpy from
    the sums.  ``weights(j)`` gives it as a float array of the weights,
    which a segmentation fold over a ``ColumnTable`` reads whole.  A
    scalar p=2 cost is read from the column as Python floats: it is built
    when a cost ending at j is asked for and the column held is another
    one, and only the latest is kept (N floats), so a list-route fold,
    which reads column j only while computing its row j, builds each
    column once.  Reads out of column order (the ``--verify`` oracle,
    tests) build one column per change of j.  Non-quadratic exponents and
    segments longer than LONG_SEGMENT_DIRECT fall back to an O(j - i)
    centered computation, in ``weights`` too.
    """

    def __init__(self, ts: TimeSeries, model: SegmentCostModel):
        import numpy as np
        y = ts.values
        n = np.arange(1, y.size + 1, dtype=float)
        zero = np.zeros(1)
        self.model = model
        # read on every query, so held here (a model is frozen)
        self._exponent, self._regularization = model.error_exponent, model.regularization
        self._y, self._n = y, n
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
        # (j, column): cost(i, j) at index i - 1 of the column, for the last j asked
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
        if not 1 <= i <= j <= self._y.size:
            raise ValueError(f"interval ({i}, {j}) outside 1..{self.length}")
        if j - i >= LONG_SEGMENT_DIRECT or self._exponent != 2.0:
            return self._direct_cost(i, j)
        end, column = self._column
        if end != j:
            column = self._cost_column(j).tolist()
            self._column = (j, column)
        return column[i - 1]

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
        start = slice(0, j)  # the sums before i, for i = 1..j
        length = self._n[j - 1 :: -1]  # j - i + 1: j, ..., 1
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
    column at a time where the series and ``base`` allow it (see
    ``SegmentationProblem``).  An unsatisfiable constraint yields the
    base zero score with no segments.
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
