"""Semiring-polymorphic dynamic-programming recurrences.

Every function takes the semiring as an argument and runs unchanged
over any catalog entry, including the exhaustive path-set semiring.
Indices in the public interfaces are 1-based (weight maps receive
1-based positions); internal tables are 0-based.

Row-shaped recurrences take each sum of products through the
semiring's row operations, ``s.sum(values)`` and ``s.dot(xs, ys)``, the
``sum`` of the products.  Each equals the left fold of ``add`` from
``zero`` and counts one op per term, so the values and op counts are
those of the term-by-term fold; semirings that can pick a row's winner
in one scan (the min/max bases and score-and-witness tupling over them)
do so inside those calls.  Given its values as a float array,
``ordered_subsequences`` hands ``s.sum`` each chain as a ``ScoreRow``
over the positions one array comparison keeps, and those semirings pick
its winner from f's scores, kept in a float array beside f; the
segmentation folds over a ``ColumnTable`` likewise hand ``s.dot`` f and
each weight column as ``ScoreRow``s, whose ``dot`` is the ``sum`` of
their products' ``ScoreRow``.  Rows updated
elementwise (``combinations``, ``events_m_of_n`` and the lifted vectors
of the constrained folds) go through ``s.add_rows(xs, ys)`` and
``s.mul_rows(xs, ys)``, whose entries are the per-term ``add`` and
``mul`` and which count one op per entry; a row times one weight ``y``
is ``s.mul_rows(xs, repeat(y))``, or ``s.mul_rows(xs, y)`` for the float
array row ``events_m_of_n`` keeps given a float array of pairs.  An
anti-diagonal of ``nw_align`` is one ``s.dot_rows(xss, yss)``, whose
entries are the three-term sums of products of the cell recurrence,
folded left from the first product; a score-and-witness semiring builds
the one product that survives.  Over a ``MoveTable`` (min/max bases) it
takes each diagonal as one block of scores and gives the term each cell
kept, which the fold records in a ``MoveCodes`` table, one int8 per
cell, and spells into the witness by one walk back.

The constrained variants are the plain recurrences lifted over a
constraint algebra cut down to the values acceptance can tell apart,
and accept exactly what that algebra accepts: a summed gap runs
``nw_align`` over closed-form edge products, a largest gap ``nw_align``
with zero on the moves past the cap, and a minimum segment length
``segment_opt`` with zero on the segments shorter than it (an exact
minimum lifted over ``exists``: some segment of that length).  Under a
largest gap the alignment folds only the band of cells within the cap,
under a summed gap only the cells some capped path reaches.  A
segment count stays a shifted table by hand, since ``segment_opt`` over
lifted vectors measured slower, as its docstring shows.  The oracle
tests check each form against generate-filter-evaluate.
"""

from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Any, Callable, NamedTuple, Sequence

from . import lifting
from .semirings import (
    EMPTY,
    Scored,
    ScoreRow,
    Semiring,
    WitnessBlock,
    maxplus_semiring,
    quiet_arrays,
    viterbi_simple_semiring,
)

Weight = Callable[[int], Any]


@dataclass(frozen=True)
class Dag:
    """DAG on nodes 1..N whose numbering is already topological.

    ``parents[v-1]`` lists the parents of node v; node 1 is the unique
    source.  Every parent index must be smaller than its child, which
    is also what guarantees acyclicity.
    """

    parents: tuple

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(tuple(p) for p in self.parents))
        if not self.parents:
            raise ValueError("a DAG needs at least one node")
        if self.parents[0]:
            raise ValueError("node 1 is the source and cannot have parents")
        for v, ps in enumerate(self.parents[1:], start=2):
            if not ps:
                raise ValueError(f"node {v} has no parents; node 1 must be the only source")
            for p in ps:
                if not 1 <= p < v:
                    raise ValueError(f"edge ({p}, {v}) breaks the topological numbering")

    @property
    def node_count(self) -> int:
        return len(self.parents)

    def edges(self):
        for v, ps in enumerate(self.parents, start=1):
            for p in ps:
                yield (p, v)


def dag_bellman(dag: Dag, s: Semiring, w) -> Any:
    """Fold all source-to-sink paths: f[v] = sum over parents p of f[p] * w((p, v)).

    Edge labels are (parent, child) pairs.  Returns f at node N.
    """
    f = [s.one]
    for v in range(2, dag.node_count + 1):
        ps = dag.parents[v - 1]
        f.append(s.dot([f[p - 1] for p in ps], [w((p, v)) for p in ps]))
    return f[-1]


def subsequences(n: int, s: Semiring, w: Weight) -> Any:
    """Value over all 2^n index subsequences: product of (one + w(k))."""
    if n < 0:
        raise ValueError("n must be non-negative")
    acc = s.one
    for k in range(1, n + 1):
        acc = s.mul(acc, s.add(s.one, w(k)))
    return acc


def nonempty_subsequences(n: int, s: Semiring, w: Weight) -> Any:
    """Value over the 2^n - 1 non-empty subsequences, O(n) operations."""
    if n < 0:
        raise ValueError("n must be non-negative")
    acc = s.zero
    for k in range(1, n + 1):
        acc = s.add(s.add(acc, s.mul(acc, w(k))), w(k))
    return acc


def combinations(n: int, k: int, s: Semiring, w: Weight) -> Any:
    """Value over all subsequences of exactly k of n items, O(n*k) operations.

    Row update: f[m] = f[m] + f[m-1] * w(item), one ``add_rows`` of the
    row with its shifted ``mul_rows`` by ``repeat(w(item))`` per item, so
    w(item) is read once per item.  k > n yields zero (no such
    subsequences), reported as an ordinary value.
    """
    if n < 0 or k < 0:
        raise ValueError("sizes must be non-negative")
    if k > n:
        return s.zero
    row = [s.one] + [s.zero] * k
    for item in range(1, n + 1):
        top = min(item, k)
        row[1 : top + 1] = s.add_rows(row[1 : top + 1], s.mul_rows(row[:top], repeat(w(item))))
    return row[k]


# A segmentation of at least this many samples whose weight is a ColumnTable reads
# it a column at a time as score arrays, over a semiring that takes them.  An array
# dot costs about 8 us whatever its length, a list dot about 0.25 us a term plus a
# weight read.  In process (the costs have loaded numpy already) on a shared 2-CPU
# host, the array fold broke even near N = 20 for segment_opt and N = 37 for a count
# of 3, whose m = 1 dots are one term long.
COLUMN_SAMPLES = 30


class ColumnTable:
    """Segment weights read from float columns of their scores, each segment its own label.

    ``cost(i, j)`` is the score of segment (i, j), and ``scores(j)`` a new
    float array of cost(1, j), ..., cost(j, j).  The weight of (i, j) is
    ``value(cost(i, j), i, j)``: the score itself, or with ``labelled``
    the score with the trail ((i, j),).  Called, it is that weight map.
    """

    def __init__(self, cost, scores, labelled: bool):
        self.cost = cost
        self.scores = scores
        self.labelled = labelled

    def __call__(self, i, j):
        return self.value(self.cost(i, j), i, j)

    def value(self, score, i, j):
        return Scored(score, ((i, j),)) if self.labelled else score


class _ScoredRow:
    """A fold's row of f: its values, with their scores in a float array beside them.

    Indexed, it gives a value; sliced, a ``ScoreRow`` over the values and
    a view of their scores.  ``size`` bounds the values appended.
    """

    __slots__ = ("values", "scores", "score")

    def __init__(self, first, score, size: int):
        import numpy as np
        self.values, self.scores, self.score = [], np.empty(size), score
        self.append(first)

    def append(self, value):
        self.scores[len(self.values)] = self.score(value)
        self.values.append(value)

    def __getitem__(self, k):
        if type(k) is slice:
            scores = self.scores[: len(self.values)][k]
            return ScoreRow(scores, self.values.__getitem__, k.start or 0)
        return self.values[k]


@dataclass(frozen=True)
class SegmentationProblem:
    """A length plus a weight for every interval 1 <= i <= j <= length.

    A fold reads the weights a column at a time, ``column(s, j)`` (w(1..j,
    j)), and keeps f in ``row(s, ...)``.  Over a ``ColumnTable`` of at
    least ``COLUMN_SAMPLES`` samples, a semiring that picks a ``dot``'s
    winner from scores (``row_score``) and whose rows take arrays
    (``array_rows``) or blocks (``block_rows``) reads each column as a
    ``ScoreRow`` of the table's scores, and f's row keeps its scores in a
    float array beside it, so ``dot`` picks its winner from the arrays
    and builds one product.  Otherwise columns and rows are lists, each
    weight read from the callable.
    """

    length: int
    weight: Callable[[int, int], Any]

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be at least 1")

    def _arrays(self, s: Semiring) -> bool:
        return (self.length >= COLUMN_SAMPLES and isinstance(self.weight, ColumnTable)
                and s.row_score is not None and (s.array_rows or s.block_rows))

    def row(self, s: Semiring, first, size: int):
        """A row of f holding ``first``, to which a fold over ``s`` appends up to ``size`` values."""
        return _ScoredRow(first, s.row_score, size) if self._arrays(s) else [first]

    def column(self, s: Semiring, j: int, shortest: int = 1):
        """w(1..j, j) in the form ``s`` takes, ``s.zero`` on the segments shorter than ``shortest``.

        A list reads each weight at least ``shortest`` long once; a
        ``ScoreRow`` holds the table's column j with its short tail's
        scores set to zero's, and builds a weight where it is read.
        """
        w, zero = self.weight, s.zero
        long = j - shortest + 1  # the segments (i, j) with i <= long are long enough
        if not self._arrays(s):
            return [w(i, j) if i <= long else zero for i in range(1, j + 1)]
        scores, value = w.scores(j), w.value
        scores[max(long, 0):] = s.row_score(zero)
        return ScoreRow(scores, lambda k: value(scores.item(k), k + 1, j) if k < long else zero)


def _segment_fold(p: SegmentationProblem, s: Semiring, shortest: int = 1) -> Any:
    """``segment_opt``'s fold, with ``s.zero`` on the segments shorter than ``shortest``."""
    n = p.length
    f = p.row(s, s.one, n + 1)
    for j in range(1, n + 1):
        f.append(s.dot(f[:j], p.column(s, j, shortest)))
    return f[n]


def segment_opt(p: SegmentationProblem, s: Semiring) -> Any:
    """Value over every contiguous cover of 1..N: f[j] = sum_i f[i-1] * w(i, j).

    One ``dot`` of f[0..j-1] with column j per j, O(N^2) operations; over
    a ``ColumnTable`` both may be ``ScoreRow``s (see
    ``SegmentationProblem``), with the same values and op counts.
    """
    return _segment_fold(p, s)


def segment_fixed_count(p: SegmentationProblem, lo: int, hi: int, s: Semiring) -> Any:
    """Value over covers whose segment count lies in [lo, hi].

    Lifting segment counting shifts the table by one segment per piece:
    f[j][m] = sum_i f[i-1][m-1] * w(i, j), one ``dot`` of column m-1
    with the weights ending at j.  The dot runs over the column's live
    rows only: f[i][0] is zero for i >= 1, and f[i][m-1] for i < m-1
    (fewer samples than segments).  Each weight column is read once per
    j and sliced to those rows; over a ``ColumnTable`` the slices may be
    ``ScoreRow``s (see ``SegmentationProblem``), with the same values and
    op counts.  O(N^2 * hi) operations, O(N * hi) values stored.  This
    is ``segment_opt`` over subset-size vectors with the shift hoisted
    by hand; ``segment_opt`` itself holds lifted rows, transposed into
    the columns ``dot`` takes, which measured 4-18% slower at N=420,
    count 3, for more code.
    """
    n = p.length
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"segment count range [{lo}, {hi}] invalid for length {n}")
    # cols[m][j] is f[j][m], for m >= 1: column slices are the rows dot takes
    cols = [p.row(s, s.one, n + 1)] + [p.row(s, s.zero, n + 1) for _ in range(hi)]
    for j in range(1, n + 1):
        w = p.column(s, j)
        for m in range(1, hi + 1):
            live = slice(m - 1, j if m > 1 else 1)
            cols[m].append(s.dot(cols[m - 1][live], w[live]))
    return s.sum(cols[m][n] for m in range(lo, hi + 1))


def segment_min_length(
    p: SegmentationProblem, target: int, s: Semiring, *, at_least: bool = False
) -> Any:
    """Value over covers whose minimum segment length is ``target``.

    The minimum is at least ``target`` exactly when every segment is, and
    one shorter segment keeps a cover below it whatever follows, so the
    running minimum collapses to ``s.zero`` on the segments shorter than
    ``target`` (their weights are not read): with ``at_least``,
    ``segment_opt``'s fold over the columns with their short tails set to
    zero, which may be ``ScoreRow``s as there.  A minimum of exactly
    ``target`` also needs a segment of that length: the same weights
    lifted over ``exists_algebra``, keyed by ``j - i + 1 == target``,
    projected onto True.  O(N^2) operations.
    """
    n = p.length
    if not 1 <= target <= n:
        raise ValueError(f"minimum segment length {target} invalid for length {n}")
    if at_least:
        return _segment_fold(p, s, target)
    alg = lifting.exists_algebra(accept=bool)
    lifted = lifting.edge_lifted_semiring(s, alg, lifting.exists_edge_product)
    w, zero = p.weight, s.zero
    edges = SegmentationProblem(
        n, lambda i, j: (w(i, j) if j - i + 1 >= target else zero, j - i + 1 == target)
    )
    return lifting.project(s, alg, segment_opt(edges, lifted))


class Moves(NamedTuple):
    """The move weights one alignment fold reads, in the rows it keeps.

    ``row(values)`` makes a diagonal buffer; ``inserts`` holds w(0, j) for
    j = 1..cols and ``deletes`` w(i, 0) for i = 1..rows, and
    ``diagonal(d, first, last)`` gives w(i, d - i) for i = first..last.
    ``codes``, for a fold of ``WitnessBlock``s, is the ``MoveCodes`` table
    that keeps their trails.
    """

    row: Callable
    inserts: Any
    deletes: Any
    diagonal: Callable
    codes: Any = None


@dataclass(frozen=True)
class AlignmentProblem:
    """Two sequence lengths plus a move-cost map.

    weight(i, j) with both indices positive is the cost of pairing
    position i of the first sequence with position j of the second;
    weight(i, 0) is the cost of consuming position i alone (deletion)
    and weight(0, j) of consuming position j alone (insertion).
    ``weight`` may also hold its values as tables (``MoveTable``), which
    a fold then reads a diagonal at a time; called, it is the same map.
    """

    rows: int
    cols: int
    weight: Callable[[int, int], Any]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("lengths must be non-negative")

    def moves(self, s: Semiring, cap: int | None = None) -> Moves:
        """The weights a fold over ``s`` reads, ``s.zero`` on the edge moves past ``cap``.

        A move (i, j) has gap |i - j|; a fold banded at ``cap`` asks
        ``diagonal`` only for the rows within it, so only the edges are
        filtered.  A ``weight`` with tables gives them in the form ``s``
        takes, if it has one for ``s``; otherwise they are lists read from
        the callable, each in-cap weight once, in ``s.row`` buffers.
        """
        n, m = self.rows, self.cols
        tables = getattr(self.weight, "moves", None)
        found = tables(s, n, m, cap) if tables is not None else None
        if found is not None:
            return found
        w, zero = self.weight, s.zero
        cap = max(n, m) if cap is None else cap  # no move has a larger gap

        def diagonal(d, first, last):
            return [w(i, d - i) for i in range(first, last + 1)]

        return Moves(s.row, [w(0, j) if j <= cap else zero for j in range(1, m + 1)],
                     [w(i, 0) if i <= cap else zero for i in range(1, n + 1)], diagonal)


class MoveTable:
    """Alignment move weights with their scores held as float arrays, each move its own label.

    Called, it is ``weight``, the complete map.  ``match(d, first, last)``
    gives the scores of w(i, d - i) for i = first..last (i, d - i >= 1) as
    a float array, and ``deletes[i - 1]`` and ``inserts[j - 1]`` hold
    those of w(i, 0) and w(0, j); each weight's trail is its one label
    (i, j), and a smaller problem reads the top-left corner.  A fold over
    a semiring whose ``dot_rows`` takes blocks (``block_rows``) reads the
    scores as ``WitnessBlock``s, a diagonal at a time, and keeps the move
    each cell kept in a ``MoveCodes`` table: no Scored and no trail is
    built per cell.  Other semirings read the callable.
    """

    def __init__(self, weight, match, deletes, inserts):
        self.weight = weight
        self.match = match
        self.deletes = deletes
        self.inserts = inserts

    def __call__(self, i, j):
        return self.weight(i, j)

    def moves(self, s: Semiring, rows: int, cols: int, cap: int | None) -> Moves | None:
        """``AlignmentProblem.moves`` as blocks, or None for a semiring without block rows."""
        if not s.block_rows:
            return None
        import numpy as np
        zero = s.zero.score

        def edges(scores):  # zero on the moves whose gap, index + 1, exceeds the cap
            if cap is not None:
                scores = scores.copy()
                scores[cap:] = zero
            return WitnessBlock(scores)

        def row(values):
            return WitnessBlock(np.array([v[0] for v in values], dtype=float))

        def diagonal(d, first, last):
            return WitnessBlock(self.match(d, first, last))

        return Moves(row, edges(self.inserts[:cols]), edges(self.deletes[:rows]), diagonal,
                     MoveCodes(rows, cols, cap, zero))


# the move a cell of a table fold came by: the terms of _nw_fold's dot_rows, in order,
# and the step (rows, cols) each takes back
MATCH, DELETE, INSERT = 0, 1, 2
_STEPS = ((1, 1), (1, 0), (0, 1))


class MoveCodes:
    """The move each cell of a fold over a ``MoveTable`` kept, one int8 per cell.

    Cell (i, j) holds ``MATCH``, ``DELETE`` or ``INSERT``, or ``EMPTY``
    where its value is zero and its trail empty; (0, 0) and the cells the
    fold does not visit hold ``EMPTY`` too.  A cell's trail is then its
    predecessor's followed by its move's label, and ``spell`` reads the
    witness of (rows, cols) by one walk back.  A move whose gap exceeds
    ``cap`` weighs zero with the empty trail, so it spells no label.
    """

    def __init__(self, rows: int, cols: int, cap: int | None, zero: float):
        import numpy as np
        self.rows, self.cols, self.zero = rows, cols, zero
        self.cap = max(rows, cols) if cap is None else cap
        # cell (i, j) at i * (cols + 1) + j, so diagonal d's cells are cols apart
        self.codes = np.full((rows + 1) * (cols + 1), EMPTY, np.int8)

    def keep(self, d: int, first: int, last: int, kept) -> None:
        """Record ``kept``, the terms the cells (i, d - i), i = first..last, kept."""
        m = self.cols
        self.codes[first * m + d : last * m + d + 1 : m] = kept

    def edge(self, i: int, j: int, value) -> None:
        """Record the edge cell (i, 0) or (0, j), whose value is ``value``."""
        move = EMPTY if value[0] == self.zero else INSERT if i == 0 else DELETE
        self.codes[i * (self.cols + 1) + j] = move

    def spell(self) -> tuple:
        """The witness of (rows, cols): the labels of its moves back to a cell holding ``EMPTY``."""
        codes, stride, cap = self.codes, self.cols + 1, self.cap
        i, j, labels = self.rows, self.cols, []
        while (move := codes.item(i * stride + j)) != EMPTY:
            di, dj = _STEPS[move]
            if abs(i * di - j * dj) <= cap:  # the label (i, j), (i, 0) or (0, j), and its gap
                labels.append((i * di, j * dj))
            i, j = i - di, j - dj
        return tuple(reversed(labels))


def _nw_fold(n: int, m: int, moves: Moves, s: Semiring, cap: int | None = None,
             hull: list | None = None) -> Any:
    """``nw_align``'s fold over ``moves``, on the cells within ``cap`` of the diagonal or ``hull``.

    A band or hull is exact when the weights make every cell outside it
    zero.  The band of a cap, the rows i of diagonal d with |2i - d| <=
    cap, is, when every path with a move of gap past the cap is zero, as
    under a largest or a summed gap of at most the cap: a path first
    enters row i by a match (i, j' <= j) or a deletion (i, 0), and either
    has gap at least i - j (columns likewise), so a cell with |i - j| >
    cap is zero; that is O(max(rows, cols) * cap) cells.  A summed gap's
    ``gap_hull``, rows (lo, hi) per diagonal, is exact too, and smaller.
    The edge cells f[0][d] and f[d][0] are folded when rows 0 and d are.
    Once diagonal d is written, the buffer cells of diagonal d-2's rows
    outside its own are cleared (for a band, the one cell below it every
    other diagonal), after ``dot_rows`` has read them as match terms,
    since diagonals d+1 and d+2 read them as cells off their rows.  Two
    diagonals in a row with no rows reach nothing more, and the fold
    stops with ``s.zero``.  No cap and no hull is the whole table.
    ``moves.codes``, a table fold's ``MoveCodes``, records the move each
    cell kept: its buffers hold scores, and the result's witness is spelled
    from the codes once the fold ends.
    """
    mul, dot_rows, zero = s.mul, s.dot_rows, s.zero
    inserts, deletes, diagonal, codes = moves.inserts, moves.deletes, moves.diagonal, moves.codes
    old, cur = (moves.row([zero] * (n + 1)) for _ in range(2))
    cur[0] = s.one
    band = n + m if cap is None else cap  # a band of n + m rows is the whole table
    lo2, hi2, lo1, hi1 = 1, 0, 0, 0  # the rows of diagonals d-2 and d-1: none, and f[0][0]
    # a table fold picks from float arrays: numpy's warnings off once, not once per diagonal
    with quiet_arrays() if codes is not None else contextlib.nullcontext():
        for d in range(1, n + m + 1):
            old, cur = cur, old  # cur holds diagonal d-2 until diagonal d is written over it
            if hull:
                lo, hi = hull[d]
                if lo > hi and lo1 > hi1:
                    return zero
            else:  # the rows i with |2i - d| <= band, within the buffer
                lo, hi = max((d - band + 1) // 2, 0), min((d + band) // 2, n)
            first, last = max(1, d - m, lo), min(d - 1, hi)  # the cells off the edges
            if first <= last:
                cur[first : last + 1] = cells = dot_rows(
                    (cur[first - 1 : last], old[first - 1 : last], old[first : last + 1]),
                    (diagonal(d, first, last), deletes[first - 1 : last],
                     inserts[d - last - 1 : d - first][::-1]),
                )
                if codes is not None:
                    codes.keep(d, first, last, cells.kept)
            if lo2 < lo:  # diagonal d-2's cells below diagonal d's rows, then above them
                for i in range(lo2, min(lo, hi2 + 1)):
                    cur[i] = zero
            if hi2 > hi:
                for i in range(max(lo2, hi + 1), hi2 + 1):
                    cur[i] = zero
            if lo == 0 and d <= m:  # f[0][d]
                cur[0] = top = mul(old[0], inserts[d - 1])
                if codes is not None:
                    codes.edge(0, d, top)
            if hi >= d:  # f[d][0]
                cur[d] = side = mul(old[d - 1], deletes[d - 1])
                if codes is not None:
                    codes.edge(d, 0, side)
            lo2, hi2, lo1, hi1 = lo1, hi1, lo, hi
    return cur[n] if codes is None else Scored(cur[n][0], codes.spell())


def gap_hull(rows: int, cols: int, cap: int) -> list[tuple[int, int]]:
    """The cells a path with summed gap at most ``cap`` reaches: (lo, hi) rows per diagonal.

    F(i, j), the least summed gap of a path to (i, j), is ``nw_align``'s
    recurrence over (min, +) with each move's gap as its weight: a match
    adds |i - j|, a deletion i and an insertion j.  Entry d, for d =
    0..rows + cols, holds the least and the greatest row i with F(i, d -
    i) <= cap (lo > hi: none): the live cells, which lie between them.
    Only the moves out of the live cells of diagonals d-1 and d-2 are
    followed, so the cost is O(live cells), in plain ints and uncounted.
    """
    hull, older, old = [(0, 0)], {}, {0: 0}  # row -> F on the live cells of d-2 and d-1
    for d in range(1, rows + cols + 1):
        live = {}
        for i, g in old.items():  # an insertion into row i
            if d - i <= cols and g + d - i <= cap:
                live[i] = g + d - i
        for i, g in old.items():  # a deletion into row i + 1
            if i < rows and g + i + 1 < live.get(i + 1, cap + 1):
                live[i + 1] = g + i + 1
        for i, g in older.items():  # a match into row i + 1
            g += abs(2 * i + 2 - d)
            if i < rows and d - i - 1 <= cols and g < live.get(i + 1, cap + 1):
                live[i + 1] = g
        hull.append((min(live), max(live)) if live else (1, 0))
        older, old = old, live
    return hull


def band_cells(rows: int, cols: int, cap: int) -> int:
    """The cells (i, j), i, j >= 1, with |i - j| <= cap: those a fold banded at cap visits."""
    return sum(max(0, min(cols, i + cap) - max(1, i - cap) + 1) for i in range(1, rows + 1))


def nw_align(p: AlignmentProblem, s: Semiring) -> Any:
    """Three-branch alignment fold over match / delete / insert moves.

    f[i][j] = f[i-1][j-1]*w(i,j) + f[i-1][j]*w(i,0) + f[i][j-1]*w(0,j),
    computed one anti-diagonal i + j = d at a time, from the two before
    it; O(rows * cols) operations.  Diagonal d holds f[i][d-i] at index
    i of an (rows + 1)-entry buffer made by ``p.moves(s).row``: a list, or
    the array or block a semiring or move table keeps it in.  Two
    buffers take turns, diagonal d written over diagonal d-2 once its
    slices are read.  A diagonal's cells with i, j >= 1 are
    ``dot_rows((diagonal d-2, diagonal d-1, diagonal d-1 shifted by
    one), (w(i, d-i), deletes, inserts reversed))``: per cell the sum of
    the three products, added left to right, so every cell makes the ops
    of the formula in its order.  Its two cells on the table's edges are
    one ``mul`` each.  Each move weight is read once: w(0, j) per column,
    w(i, 0) per row and w(i, j) per cell.
    """
    return _nw_fold(p.rows, p.cols, p.moves(s), s)


def delannoy(n: int, m: int, cap: int | None = None) -> int:
    """Count of lattice paths with unit right, down and diagonal steps.

    Equals the unit-weight counting run of nw_align; exact at any size
    thanks to arbitrary-precision integers.  With ``cap``, counting stops
    once a count passes it, and the result is min(count, cap + 1): the
    count grows with either size, so a smaller grid past the cap puts
    this one past it too.
    """
    if n < 0 or m < 0:
        raise ValueError("sizes must be non-negative")
    prev = [1] * (m + 1)
    for _ in range(n):
        cur = [1]
        for j in range(1, m + 1):
            cur.append(prev[j - 1] + prev[j] + cur[j - 1])
            if cap is not None and cur[j] > cap:
                return cap + 1
        prev = cur
    return prev[m]


# constraint kind -> its algebra over move gaps
_MISALIGNMENT = {"sum": lifting.subset_size_algebra, "max": lifting.max_count_algebra}


def misalignment_algebra(kind: str, cap: int) -> lifting.ConstraintAlgebra:
    """Grades an alignment by the gaps |i - j| of its move labels (i, j).

    A deletion (i, 0) has gap i and an insertion (0, j) gap j: the
    position of the element it consumes, not the offset of the cell it
    lands on.  So with a = ABCDEFGHIJXKLM and b = ABCDEFGHIJKLM, a largest
    gap of 2 cannot delete the X (gap 11), and ``align --semiring
    viterbi:minplus --mismatch-cost 5 --max-misalign 2`` gives 46: B
    deleted early (gap 2), then nine mismatches.  With the X moved to the
    front it gives 1.  ``kind`` "sum" adds the gaps up, "max" keeps their
    running maximum; either is tracked up to ``cap``.
    """
    return _MISALIGNMENT[kind](cap, label_map=lambda e: abs(e[0] - e[1]))


def nw_align_sum_constrained(
    p: AlignmentProblem, total_cap: int, s: Semiring, *, blocks: bool = True,
    hull: list | None = None,
) -> Any:
    """Alignment value over moves whose summed gap is at most ``total_cap``.

    ``nw_align``'s fold over vectors indexed by the summed gap
    (``misalignment_algebra``), projected back down; totals past the cap
    can never come back down, so they are dropped and every tracked
    total is accepted.  A cell no path reaches within the cap is a zero
    vector, and a deletion (i, 0) already has gap i, so the fold visits
    only the live cells' hull on each diagonal (``gap_hull``, whose own
    int recurrence makes no counted op): O(live cells * (cap + 1))
    operations, at most O(rows * cols * cap).  It reads the match
    weights of those cells and the edge weights within the cap.
    ``blocks`` lets a min/max base fold a diagonal as one float block
    (``edge_lifted_semiring``), with the list route's values and op counts.
    ``hull`` is ``gap_hull(p.rows, p.cols, total_cap)``, if the caller has
    made it already.
    """
    if total_cap < 0:
        raise ValueError("total_cap must be non-negative")
    n, m = p.rows, p.cols
    if hull is None:
        hull = gap_hull(n, m, total_cap)
    alg = misalignment_algebra("sum", total_cap)
    lifted = lifting.edge_lifted_semiring(s, alg, lifting.subset_size_edge_product,
                                          blocks=blocks)
    w, zero = p.weight, s.zero
    # a move past the cap makes the zero vector whatever its weight: it is not read
    edges = AlignmentProblem(n, m, lambda i, j: (w(i, j) if abs(i - j) <= total_cap else zero,
                                                 abs(i - j)))
    vec = _nw_fold(n, m, edges.moves(lifted), lifted, hull=hull)
    # a block form's vector is a row of its float array: project Python floats
    return lifting.project(s, alg, vec.tolist() if hasattr(vec, "tolist") else vec)


def nw_align_max_constrained(p: AlignmentProblem, diff_cap: int, s: Semiring) -> Any:
    """Alignment value over moves whose largest gap is at most ``diff_cap``.

    The largest gap is at most the cap exactly when every move's gap
    is, so lifting over the running maximum collapses to one entry:
    ``nw_align``'s fold with ``s.zero`` on every move whose gap exceeds
    the cap (``p.moves(s, diff_cap)``; the weights past it are not read).
    Every cell farther than the cap from the diagonal is then zero, so
    the fold visits only the band within it: O(max(rows, cols) *
    diff_cap) operations, at most O(rows * cols).
    """
    n, m = p.rows, p.cols
    if not 0 <= diff_cap <= max(n, m, 0):
        raise ValueError(f"diff_cap {diff_cap} invalid for lengths ({n}, {m})")
    return _nw_fold(n, m, p.moves(s, diff_cap), s, diff_cap)


def events_m_of_n(pairs: Sequence[tuple], occurrences: int, s: Semiring) -> Any:
    """Value over event sequences with exactly ``occurrences`` of N events.

    ``pairs[k] = (absent, present)`` are the two branch weights of event
    k+1; the row update is f[m] = f[m]*absent + f[m-1]*present, one
    ``add_rows`` of two ``mul_rows`` by the two weights per event, and f[0]
    one ``mul``: O(N*M) operations with one rolling row.  The row is a
    list, and a weight is broadcast as ``repeat(weight)``.  ``pairs`` as an
    (N, 2) float array, over a semiring whose rows take float arrays
    (``array_rows``), keeps the row as a float array instead, multiplied
    by each weight itself under one ``quiet_arrays()``, and the value is
    read back as a Python float.  float64 + and * round as Python's
    floats do, so both rows give the same values (by ``repr``) and op
    counts.  With probability weights (1 - p, p) this is the exact
    Poisson-binomial point mass.  Asking for more occurrences than events
    yields zero.
    """
    n = len(pairs)
    if occurrences < 0:
        raise ValueError("occurrences must be non-negative")
    if occurrences > n:
        return s.zero
    row = [s.one] + [s.zero] * occurrences
    scale, quiet = repeat, contextlib.nullcontext()  # a list row times one weight
    if getattr(pairs, "dtype", None) == float:
        pairs = pairs.tolist()  # Python floats, for either row
        if s.array_rows:
            import numpy as np
            row, scale, quiet = np.array(row), float, quiet_arrays()
    with quiet:
        for seen, (absent, present) in enumerate(pairs, start=1):
            top = min(seen, occurrences)
            row[1 : top + 1] = s.add_rows(s.mul_rows(row[1 : top + 1], scale(absent)),
                                          s.mul_rows(row[:top], scale(present)))
            row[0] = s.mul(row[0], absent)
    return row[occurrences] if type(row) is list else row.item(occurrences)


def ordered_subsequences(
    values: Sequence, s: Semiring, w: Weight, relation=operator.lt
) -> Any:
    """Value over non-empty subsequences forming a chain under ``relation``.

    f[m] carries the value of all chains ending at position m, seeded
    with the singleton chain w(m); position k then folds every
    chainable predecessor once.  O(N^2) operations; the result folds
    f over all end positions.  Each weight is read once.

    ``values`` as a float array, ``relation`` ``lt`` or ``le`` and a
    semiring with a ``row_score`` whose scores of f are all floats take
    the array route: f's scores are kept in a float array beside f, and
    each chain sum is ``s.sum`` of a ``ScoreRow`` over the chainable
    positions, those where one array comparison, written into one buffer
    that every position reuses, is true; the semiring picks its winner
    from their scores and reads f at that position alone.  The values and
    op counts are the list route's.
    """
    n = len(values)
    weights = [w(m) for m in range(1, n + 1)]
    f = list(weights)
    score = s.row_score
    if (score is None or relation not in (operator.lt, operator.le)
            or getattr(values, "dtype", None) != float
            or not all(isinstance(score(v), float) for v in f)):
        u = tuple(values)
        for k in range(1, n + 1):
            chainable = map(relation, u[: k - 1], repeat(u[k - 1]))
            chain = s.sum(compress(f, chainable))
            f[k - 1] = s.add(f[k - 1], s.mul(chain, weights[k - 1]))
        return s.sum(f)
    import numpy as np
    compare = np.less if relation is operator.lt else np.less_equal
    scores, mask = np.array([score(v) for v in f]), np.empty(n, bool)
    for k in range(n):
        at = compare(values[:k], values[k], out=mask[:k]).nonzero()[0]
        chain = s.sum(ScoreRow(scores[at], lambda c: f[at.item(c)]))
        f[k] = s.add(f[k], s.mul(chain, weights[k]))
        scores[k] = score(f[k])
    return s.sum(f)


def longest_chain(values: Sequence, relation=operator.lt) -> tuple[int, list]:
    """Longest subsequence chained by ``relation``: (length, one witness).

    Runs the ordered-subsequence recurrence in a score-and-witness
    semiring over max-plus with unit weights, so the witness falls out
    of the fold with no backtracking; ties resolve to the earliest
    positions.  The witness lists the chained values in order.
    """
    u = list(values)
    if not u:
        return 0, []
    vit = viterbi_simple_semiring(maxplus_semiring())
    result = ordered_subsequences(u, vit, lambda k: Scored(1.0, (k,)), relation)
    return int(result.score), [u[k - 1] for k in result.witness]


def lis(values: Sequence) -> tuple[int, list]:
    """Longest strictly increasing subsequence: (length, one witness)."""
    return longest_chain(values, operator.lt)
