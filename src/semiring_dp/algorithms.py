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
do so inside those calls.  Rows updated elementwise (``combinations``,
``events_m_of_n`` and the lifted vectors of the constrained folds) go
through ``s.add_rows(xs, ys)`` and ``s.mul_rows(xs, ys)``, whose entries
are the per-term ``add`` and ``mul`` and which count one op per entry; a
row times one weight ``y`` is ``s.mul_rows(xs, repeat(y))``.  An
anti-diagonal of ``nw_align`` is one ``s.dot_rows(xss, yss)``, whose
entries are the three-term sums of products of the cell recurrence,
folded left from the first product; a score-and-witness semiring builds
the one product that survives.

The constrained variants are the plain recurrences lifted over a
constraint algebra cut down to the values acceptance can tell apart,
and accept exactly what that algebra accepts: a summed gap runs
``nw_align`` over closed-form edge products, a minimum segment length
``segment_opt`` over a 3-chain (below, equal or above the target), and
a largest gap ``nw_align`` with zero on the moves past the cap.  A
segment count stays a shifted table by hand, since ``segment_opt`` over
lifted vectors measured slower, as its docstring shows.  The oracle
tests check each form against generate-filter-evaluate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Any, Callable, Sequence

from . import lifting
from .semirings import Scored, Semiring, maxplus_semiring, viterbi_simple_semiring

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


@dataclass(frozen=True)
class SegmentationProblem:
    """A length plus a weight for every interval 1 <= i <= j <= length."""

    length: int
    weight: Callable[[int, int], Any]

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be at least 1")


def segment_opt(p: SegmentationProblem, s: Semiring) -> Any:
    """Value over every contiguous cover of 1..N: f[j] = sum_i f[i-1] * w(i, j)."""
    f = [s.one]
    for j in range(1, p.length + 1):
        f.append(s.dot(f, [p.weight(i, j) for i in range(1, j + 1)]))
    return f[p.length]


def segment_fixed_count(p: SegmentationProblem, lo: int, hi: int, s: Semiring) -> Any:
    """Value over covers whose segment count lies in [lo, hi].

    Lifting segment counting shifts the table by one segment per piece:
    f[j][m] = sum_i f[i-1][m-1] * w(i, j), one ``dot`` of column m-1
    with the weights ending at j.  O(N^2 * hi) operations, O(N * hi)
    values stored.  This is ``segment_opt`` over subset-size vectors with
    the shift hoisted by hand; ``segment_opt`` itself keeps the op counts
    but holds lifted rows, transposed into the columns ``dot`` takes,
    which measured 4-18% slower at N=420, count 3, for more code.
    """
    n = p.length
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"segment count range [{lo}, {hi}] invalid for length {n}")
    # cols[m][j] is f[j][m]: column slices are the rows dot takes
    cols = [[s.one]] + [[s.zero] for _ in range(hi)]
    for j in range(1, n + 1):
        w = [p.weight(i, j) for i in range(1, j + 1)]
        cols[0].append(s.zero)
        for m in range(1, hi + 1):
            cols[m].append(s.dot(cols[m - 1][:j], w))
    return s.sum(cols[m][n] for m in range(lo, hi + 1))


def segment_min_length(
    p: SegmentationProblem, target: int, s: Semiring, *, at_least: bool = False
) -> Any:
    """Value over covers whose minimum segment length is ``target``.

    ``segment_opt`` lifted over the running minimum of segment lengths,
    then projected.  Acceptance only tells a length below, equal to or
    above ``target`` apart, and so does the minimum of two lengths, so
    the minimum runs over that 3-chain (``min_count_algebra(3)``), not
    over 1..N.  Accepts equal, or equal and above with ``at_least``.
    O(N^2) operations.
    """
    n = p.length
    if not 1 <= target <= n:
        raise ValueError(f"minimum segment length {target} invalid for length {n}")

    def side(segment):  # its length against the target: 1 below, 2 equal, 3 above
        length = segment[1] - segment[0] + 1
        return 1 + (length >= target) + (length > target)

    accept = (lambda m: m >= 2) if at_least else (lambda m: m == 2)
    alg = lifting.min_count_algebra(3, label_map=side, accept=accept)
    lifted = lifting.edge_lifted_semiring(s, alg, lifting.min_count_edge_product)
    edges = SegmentationProblem(n, lambda i, j: (p.weight(i, j), side((i, j))))
    return lifting.project(s, alg, segment_opt(edges, lifted))


@dataclass(frozen=True)
class AlignmentProblem:
    """Two sequence lengths plus a move-cost map.

    weight(i, j) with both indices positive is the cost of pairing
    position i of the first sequence with position j of the second;
    weight(i, 0) is the cost of consuming position i alone (deletion)
    and weight(0, j) of consuming position j alone (insertion).
    """

    rows: int
    cols: int
    weight: Callable[[int, int], Any]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("lengths must be non-negative")


def nw_align(p: AlignmentProblem, s: Semiring) -> Any:
    """Three-branch alignment fold over match / delete / insert moves.

    f[i][j] = f[i-1][j-1]*w(i,j) + f[i-1][j]*w(i,0) + f[i][j-1]*w(0,j),
    computed one anti-diagonal i + j = d at a time, from the two before
    it; O(rows * cols) operations.  Diagonal d holds f[i][d-i] at index
    i of an (rows + 1)-entry ``s.row`` buffer, which a semiring may hold
    as an array; two buffers take turns, diagonal d written over
    diagonal d-2 once its slices are read.  A diagonal's cells with
    i, j >= 1 are ``dot_rows((diagonal d-2, diagonal d-1, diagonal d-1
    shifted by one), (w(i, d-i), deletes, inserts reversed))``: per cell
    the sum of the three products, added left to right, so every cell
    makes the ops of the formula in its order.  Its two cells on the
    table's edges are one ``mul`` each.  Each move weight is read once:
    w(0, j) per column, w(i, 0) per row and w(i, j) per cell.
    """
    n, m = p.rows, p.cols
    w = p.weight
    mul, dot_rows = s.mul, s.dot_rows
    inserts = [w(0, j) for j in range(1, m + 1)]
    deletes = [w(i, 0) for i in range(1, n + 1)]
    old, cur = (s.row([s.zero] * (n + 1)) for _ in range(2))
    cur[0] = s.one
    for d in range(1, n + m + 1):
        old, cur = cur, old  # cur holds diagonal d-2 until diagonal d is written over it
        first, last = max(1, d - m), min(n, d - 1)  # the rows i of the cells off the edges
        if first <= last:
            cur[first : last + 1] = dot_rows(
                (cur[first - 1 : last], old[first - 1 : last], old[first : last + 1]),
                ([w(i, d - i) for i in range(first, last + 1)], deletes[first - 1 : last],
                 inserts[d - last - 1 : d - first][::-1]),
            )
        if d <= m:  # f[0][d]
            cur[0] = mul(old[0], inserts[d - 1])
        if d <= n:  # f[d][0]
            cur[d] = mul(old[d - 1], deletes[d - 1])
    return cur[n]


def delannoy(n: int, m: int) -> int:
    """Count of lattice paths with unit right, down and diagonal steps.

    Equals the unit-weight counting run of nw_align; exact at any size
    thanks to arbitrary-precision integers.
    """
    if n < 0 or m < 0:
        raise ValueError("sizes must be non-negative")
    prev = [1] * (m + 1)
    for _ in range(n):
        cur = [1]
        for j in range(1, m + 1):
            cur.append(prev[j - 1] + prev[j] + cur[j - 1])
        prev = cur
    return prev[m]


# constraint kind -> its algebra over move gaps
_MISALIGNMENT = {"sum": lifting.subset_size_algebra, "max": lifting.max_count_algebra}


def misalignment_algebra(kind: str, cap: int) -> lifting.ConstraintAlgebra:
    """Grades an alignment by the gaps |i - j| of its move labels (i, j).

    A deletion (i, 0) has gap i and an insertion (0, j) gap j.  ``kind``
    "sum" adds the gaps up, "max" keeps their running maximum; either is
    tracked up to ``cap``.
    """
    return _MISALIGNMENT[kind](cap, label_map=lambda e: abs(e[0] - e[1]))


def nw_align_sum_constrained(p: AlignmentProblem, total_cap: int, s: Semiring) -> Any:
    """Alignment value over moves whose summed gap is at most ``total_cap``.

    ``nw_align`` over vectors indexed by the summed gap
    (``misalignment_algebra``), projected back down; totals past the cap
    can never come back down, so they are dropped and every tracked
    total is accepted.  O(rows * cols * total_cap) operations.
    """
    if total_cap < 0:
        raise ValueError("total_cap must be non-negative")
    alg = misalignment_algebra("sum", total_cap)
    lifted = lifting.edge_lifted_semiring(s, alg, lifting.subset_size_edge_product)
    w, gap = p.weight, alg.label_map
    edges = AlignmentProblem(p.rows, p.cols, lambda i, j: (w(i, j), gap((i, j))))
    vec = nw_align(edges, lifted)
    # a block form's vector is a row of its float array: project Python floats
    return lifting.project(s, alg, vec.tolist() if hasattr(vec, "tolist") else vec)


def nw_align_max_constrained(p: AlignmentProblem, diff_cap: int, s: Semiring) -> Any:
    """Alignment value over moves whose largest gap is at most ``diff_cap``.

    The largest gap is at most the cap exactly when every move's gap
    is, so lifting over the running maximum collapses to one entry:
    ``nw_align`` with ``s.zero`` on every move whose gap exceeds the cap.
    O(rows * cols) operations.
    """
    n, m = p.rows, p.cols
    if not 0 <= diff_cap <= max(n, m, 0):
        raise ValueError(f"diff_cap {diff_cap} invalid for lengths ({n}, {m})")
    w, zero = p.weight, s.zero
    kept = lambda i, j: w(i, j) if abs(i - j) <= diff_cap else zero
    return nw_align(AlignmentProblem(n, m, kept), s)


def events_m_of_n(pairs: Sequence[tuple], occurrences: int, s: Semiring) -> Any:
    """Value over event sequences with exactly ``occurrences`` of N events.

    ``pairs[k] = (absent, present)`` are the two branch weights of event
    k+1; the row update is f[m] = f[m]*absent + f[m-1]*present, one
    ``add_rows`` of two ``mul_rows`` by ``repeat(absent)`` and
    ``repeat(present)`` per event, O(N*M) operations with one rolling
    row.  With probability weights (1 - p, p) this is the exact
    Poisson-binomial point mass.  Asking for more occurrences than
    events yields zero.
    """
    n = len(pairs)
    if occurrences < 0:
        raise ValueError("occurrences must be non-negative")
    if occurrences > n:
        return s.zero
    row = [s.one] + [s.zero] * occurrences
    for seen, (absent, present) in enumerate(pairs, start=1):
        top = min(seen, occurrences)
        row[1 : top + 1] = s.add_rows(
            s.mul_rows(row[1 : top + 1], repeat(absent)), s.mul_rows(row[:top], repeat(present))
        )
        row[0] = s.mul(row[0], absent)
    return row[occurrences]


def ordered_subsequences(
    values: Sequence, s: Semiring, w: Weight, relation=operator.lt
) -> Any:
    """Value over non-empty subsequences forming a chain under ``relation``.

    f[m] carries the value of all chains ending at position m, seeded
    with the singleton chain w(m); position k then folds every
    chainable predecessor once.  O(N^2) operations; the result folds
    f over all end positions.
    """
    u = tuple(values)
    n = len(u)
    f = [w(m) for m in range(1, n + 1)]
    for k in range(1, n + 1):
        chainable = map(relation, u[: k - 1], repeat(u[k - 1]))
        chain = s.sum(compress(f, chainable))
        f[k - 1] = s.add(f[k - 1], s.mul(chain, w(k)))
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
    if result.score == -math.inf:
        return 0, []
    return int(result.score), [u[k - 1] for k in result.witness]


def lis(values: Sequence) -> tuple[int, list]:
    """Longest strictly increasing subsequence: (length, one witness)."""
    return longest_chain(values, operator.lt)
