"""The host-speed probe, served from an interpreter of its own.

    python3 perfbench/probe.py

For each line read on standard input it runs a fixed piece of
fold-shaped Python once and writes the seconds that took, one number a
line.  The work is a min-plus alignment of two fixed strings that
carries each cell's witness as a tuple, so it allocates and collects
like the score-and-witness folds.  It imports nothing from the
benchmarked program, so it is the same in every version of it.

``run.py`` starts this as a helper process pinned to the CPU it runs
on itself.  The probe then sees the host's speed, but not the
benchmarked program's heap or garbage collector.
"""

import sys
from time import perf_counter

A = "ACGTTGCAAGCTTAGCCGATACGTTGCAAGCTTAGCTTAGGCATCGATCGGATCCATGCAACGTTGCAAGCTTAGCCGAT"
B = "TGCATGCAAGCTAAGCCGTTACGATGCAAGCTTAGGTCAGGCATGGATCGTATCCAAGCATGCATGCAAGCTAAGCCGT"


def witness_fold() -> None:
    prev = [(float(j), ((0, j),) * j) for j in range(len(B) + 1)]
    for i in range(1, len(A) + 1):
        cur = [(prev[0][0] + 1.0, prev[0][1] + ((i, 0),))]
        for j in range(1, len(B) + 1):
            diag, up, left = prev[j - 1], prev[j], cur[j - 1]
            best = (diag[0] + (A[i - 1] != B[j - 1]), diag[1] + ((i, j),))
            if up[0] + 1.0 < best[0]:
                best = (up[0] + 1.0, up[1] + ((i, 0),))
            if left[0] + 1.0 < best[0]:
                best = (left[0] + 1.0, left[1] + ((0, j),))
            cur.append(best)
        prev = cur


def serve() -> None:
    for _ in sys.stdin:
        start = perf_counter()
        witness_fold()
        print(perf_counter() - start, flush=True)


if __name__ == "__main__":
    serve()
