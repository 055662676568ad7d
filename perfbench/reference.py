"""Reference answers computed with numpy and the standard library only.

Nothing here imports semiring_dp: every optimum is recomputed by a
plain dynamic program written against the problem statement, and every
witness the CLI returns is re-scored with these functions.  A check
returns ``None`` when the document is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-9


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


# --- segmented regression ----------------------------------------------------


def segment_cost_matrix(y: np.ndarray, lam: float) -> np.ndarray:
    """C[i-1, j-1]: half the least-squares line RSS over samples i..j, plus lam.

    Sums run from each start position with x and y shifted to that
    start, so no global cumulative sum is differenced.
    """
    n = len(y)
    cost = np.full((n, n), np.inf)
    for i in range(n):
        x = np.arange(n - i, dtype=float)
        ys = y[i:] - y[i]
        cnt = x + 1.0
        sx, sy = np.cumsum(x), np.cumsum(ys)
        vxx = np.cumsum(x * x) - sx * sx / cnt
        vxy = np.cumsum(x * ys) - sx * sy / cnt
        vyy = np.cumsum(ys * ys) - sy * sy / cnt
        safe = np.where(vxx > 0, vxx, 1.0)
        rss = np.where(vxx > 0, vyy - vxy * vxy / safe, vyy)
        cost[i, i:] = np.maximum(rss, 0.0) / 2.0 + lam
    return cost


def best_cover(
    cost: np.ndarray, *, count: int | None = None, min_length: int | None = None
) -> float:
    """Minimum total cost of a contiguous cover of 1..N under one optional constraint."""
    n = cost.shape[0]
    if count is not None:
        g = np.full(n + 1, np.inf)
        g[0] = 0.0
        for _ in range(count):
            h = np.full(n + 1, np.inf)
            for j in range(1, n + 1):
                h[j] = np.min(g[:j] + cost[:j, j - 1])
            g = h
        return float(g[n])
    shortest = min_length or 1
    f = np.full(n + 1, np.inf)
    f[0] = 0.0
    for j in range(shortest, n + 1):
        last_start = j - shortest + 1
        f[j] = np.min(f[:last_start] + cost[:last_start, j - 1])
    return float(f[n])


def check_segment(doc, cost, want, *, count=None, min_length=None) -> str | None:
    got = float(doc["result"])
    if not _close(got, want):
        return f"segment optimum {got!r} != reference {want!r}"
    segments = doc["witness"]
    n = cost.shape[0]
    start = 1
    total = 0.0
    for i, j in segments:
        if i != start or j < i:
            return f"segment witness is not a contiguous cover: {segments}"
        if min_length is not None and j - i + 1 < min_length:
            return f"segment ({i}, {j}) is shorter than {min_length}"
        total += cost[i - 1, j - 1]
        start = j + 1
    if start != n + 1:
        return f"segment witness does not cover 1..{n}"
    if count is not None and len(segments) != count:
        return f"segment witness has {len(segments)} pieces, not {count}"
    if not _close(total, got):
        return f"segment witness costs {total!r}, score says {got!r}"
    return None


# --- alignment ---------------------------------------------------------------


def _move_cost(a: str, b: str, i: int, j: int, gap: float, mismatch: float) -> float:
    if i and j:
        return 0.0 if a[i - 1] == b[j - 1] else mismatch
    return gap


def _move_gap(i: int, j: int) -> int:
    # deletions (i, 0) and insertions (0, j) are labelled by one index,
    # so their gap is that index; matches (i, j) contribute |i - j|
    return abs(i - j)


def edit_distance(a: str, b: str, *, max_gap: int | None = None, gap=1.0, mismatch=1.0) -> float:
    """Minimum alignment cost; with ``max_gap`` every move's gap must stay <= max_gap."""
    n, m = len(a), len(b)
    # insertions (0, j) are allowed in columns 1..ins_limit only
    ins_limit = m if max_gap is None else min(max_gap, m)
    ramp = gap * np.arange(ins_limit + 1)
    bv = np.array(list(b))
    cols = np.arange(1, m + 1)
    prev = np.full(m + 1, np.inf)
    prev[: ins_limit + 1] = ramp
    for i in range(1, n + 1):
        sub = np.where(bv == a[i - 1], 0.0, mismatch)
        cur = np.full(m + 1, np.inf)
        cur[1:] = prev[:-1] + sub
        if max_gap is not None:
            cur[1:][np.abs(i - cols) > max_gap] = np.inf
        if max_gap is None or i <= max_gap:
            cur = np.minimum(cur, prev + gap)
        # a run of insertions: cur[j] = min over k <= j of cur[k] + gap * (j - k)
        head = cur[: ins_limit + 1]
        cur[: ins_limit + 1] = np.minimum.accumulate(head - ramp) + ramp
        prev = cur
    return float(prev[m])


def edit_distance_sum_gap(a: str, b: str, cap: int, gap=1.0, mismatch=1.0) -> float:
    """Minimum alignment cost over alignments whose summed move gap is <= cap.

    State t is the gap total so far; a move whose own gap exceeds the
    cap can never be part of a feasible alignment and is skipped.
    """
    n, m = len(a), len(b)
    size = cap + 1

    def push(dst, src, shift, w):
        if shift < size:
            np.minimum(dst[shift:], src[: size - shift] + w, out=dst[shift:])

    prev = np.full((m + 1, size), np.inf)
    prev[0, 0] = 0.0
    for j in range(1, m + 1):
        push(prev[j], prev[j - 1], j, gap)
    for i in range(1, n + 1):
        cur = np.full((m + 1, size), np.inf)
        push(cur[0], prev[0], i, gap)
        for j in range(1, m + 1):
            d = _move_gap(i, j)
            if d < size:
                push(cur[j], prev[j - 1], d, _move_cost(a, b, i, j, gap, mismatch))
            if i < size:
                push(cur[j], prev[j], i, gap)
            if j < size:
                push(cur[j], cur[j - 1], j, gap)
        prev = cur
    return float(prev[m].min())


def check_align(doc, a, b, want, *, max_gap=None, gap=1.0, mismatch=1.0) -> str | None:
    got = float(doc["result"])
    if not _close(got, want):
        return f"alignment optimum {got!r} != reference {want!r}"
    moves = doc["witness"]
    if moves is None:
        return None
    pi = pj = 0
    total = 0.0
    for i, j in moves:
        step = (pi + 1 if i else pi, pj + 1 if j else pj)
        if (i and i != pi + 1) or (j and j != pj + 1) or (i, j) == (0, 0):
            return f"alignment move ({i}, {j}) does not extend the lattice path at ({pi}, {pj})"
        if max_gap is not None and _move_gap(i, j) > max_gap:
            return f"alignment move ({i}, {j}) breaks the gap cap {max_gap}"
        total += _move_cost(a, b, i, j, gap, mismatch)
        pi, pj = step
    if (pi, pj) != (len(a), len(b)):
        return f"alignment path ends at ({pi}, {pj}), not ({len(a)}, {len(b)})"
    if not _close(total, got):
        return f"alignment witness costs {total!r}, score says {got!r}"
    return None


# --- rare events -------------------------------------------------------------


def poisson_binomial(probs: np.ndarray, occurrences: int) -> float:
    """P(exactly ``occurrences`` successes), by convolving one event at a time."""
    poly = np.zeros(occurrences + 1)
    poly[0] = 1.0
    for p in probs:
        poly = np.convolve(poly, (1.0 - p, p))[: occurrences + 1]
    return float(poly[occurrences])


def check_events(doc, want) -> str | None:
    got = float(doc["result"])
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
        return f"event probability {got!r} != reference {want!r}"
    return None


# --- longest increasing subsequence -----------------------------------------


def lis_length(values) -> int:
    """Patience sorting: the number of piles is the LIS length."""
    tops: list = []
    for v in values:
        k = bisect.bisect_left(tops, v)
        if k == len(tops):
            tops.append(v)
        else:
            tops[k] = v
    return len(tops)


def check_lis(doc, values, want: int) -> str | None:
    if doc["result"] != want:
        return f"LIS length {doc['result']!r} != reference {want}"
    chain = doc["witness"] or []
    if len(chain) != want:
        return f"LIS witness has {len(chain)} values, not {want}"
    if any(x >= y for x, y in zip(chain, chain[1:])):
        return "LIS witness is not strictly increasing"
    it = iter(values)
    if not all(any(v == x for v in it) for x in chain):
        return "LIS witness is not a subsequence of the input"
    return None
