"""Seeded inputs, CLI calls and their reference checks for each workload.

A workload is a fixed cycle of ``semiring-dp`` calls.  Its inputs are
drawn from the seed and written to files; the CLI sees only those files.
Sizes are fixed and independent of the seed, so the semiring operation
counts of a cycle repeat exactly from run to run and seed to seed.  The
LIS inputs keep that property too: a permutation followed by its
reverse (shifted above it) always has exactly C(h, 2) inversions, and
the fold's add count depends only on that number.

Each cycle starts with its cheapest call, which is also the cold call
timed by ``setup_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

Check = Callable[[dict], "str | None"]


@dataclass(frozen=True)
class Call:
    argv: tuple
    check: Check
    verify: bool = False

    @property
    def label(self) -> str:
        return " ".join(Path(a).name if "/" in a else a for a in self.argv)


class _Files:
    def __init__(self, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir

    def column(self, name: str, values) -> str:
        path = self.workdir / name
        path.write_text("".join(f"{float(v)!r}\n" for v in values))
        return str(path)

    def text(self, name: str, chars: str) -> str:
        path = self.workdir / name
        path.write_text(chars + "\n")
        return str(path)


def _series(rng, n: int) -> np.ndarray:
    """Three linear pieces with random breakpoints and slopes, plus noise."""
    cuts = np.sort(rng.choice(np.arange(n // 5, n - n // 5), 2, replace=False))
    bounds = [0, *cuts, n]
    y = np.empty(n)
    level = rng.normal(0.0, 5.0)
    for lo, hi in zip(bounds, bounds[1:]):
        y[lo:hi] = level + rng.normal(0.0, 0.2) * np.arange(hi - lo)
        level = y[hi - 1] + rng.normal(0.0, 3.0)
    return y + rng.normal(0.0, 0.5, n)


def _dna(rng, n: int) -> str:
    return "".join(rng.choice(list("ACGT"), n))


def _chain_input(rng, half: int) -> np.ndarray:
    p = rng.permutation(half)
    return np.concatenate([p, half + p[::-1]])


def _segment(files, name, y, extra, *, lam=0.0, count=None, min_length=None, verify=False):
    cost = ref.segment_cost_matrix(y, lam)
    want = ref.best_cover(cost, count=count, min_length=min_length)
    argv = ("segment", files.column(name, y), *extra)
    if lam:
        argv += ("--lambda", repr(lam))
    check = lambda doc: ref.check_segment(doc, cost, want, count=count, min_length=min_length)
    return Call(argv + (("--verify",) if verify else ()), check, verify)


def _align(files, name, a, b, extra=(), *, want, max_gap=None, verify=False):
    argv = ("align", files.text(name + ".a", a), files.text(name + ".b", b), *extra)
    check = lambda doc: ref.check_align(doc, a, b, want, max_gap=max_gap)
    return Call(argv + (("--verify",) if verify else ()), check, verify)


def _events(files, name, probs, m, *, verify=False):
    want = ref.poisson_binomial(probs, m)
    argv = ("events", files.column(name, probs), "-M", str(m))
    check = lambda doc: ref.check_events(doc, want)
    return Call(argv + (("--verify",) if verify else ()), check, verify)


def _lis(files, name, values, *, verify=False):
    want = ref.lis_length(values)
    chain = [float(v) for v in values]
    argv = ("lis", files.column(name, values))
    check = lambda doc: ref.check_lis(doc, chain, want)
    return Call(argv + (("--verify",) if verify else ()), check, verify)


def scalar_folds(rng, files) -> list[Call]:
    """Regression cost queries, the O(N^2 k) and O(N^3) folds, hand-lifted constraints.

    The sizes keep the alignment, the median call, well apart in
    duration from its neighbours (scaled, about 0.3, 0.4, 0.55, 0.9 and
    1.0 s), so the median stays inside one call kind; with 6 to 9
    cycles per run (8 or 9 at 25 s) the tail stays inside the two
    slowest calls.
    """
    a, b = _dna(rng, 190), _dna(rng, 190)
    return [
        # p ~ U(0, 0.01) keeps P(50 of 10^4) near 0.056, far from underflow
        _events(files, "events.txt", rng.uniform(0.0, 0.01, 10_000), 50),
        _segment(files, "series110.txt", _series(rng, 110), ("--min-length", "15"), min_length=15),
        _lis(files, "chain2000.txt", _chain_input(rng, 1000)),
        # equal lengths: with a summed-gap cap every late move must be a match
        _align(files, "sum190", a, b, ("--sum-misalign", "16"),
               want=ref.edit_distance_sum_gap(a, b, 16)),
        _segment(files, "series420.txt", _series(rng, 420), ("--count", "3"), count=3),
    ]


def align_witness(rng, files) -> list[Call]:
    """Witness concatenation dominates; regression is unused.

    The n=300 call appears twice, on independent pairs, so the median
    call lands inside one call kind instead of between two.
    """
    vit = ("--semiring", "viterbi:minplus")
    a, b = _dna(rng, 200), _dna(rng, 200)
    calls = [
        _align(files, "max200", a, b, (*vit, "--max-misalign", "8"),
               want=ref.edit_distance(a, b, max_gap=8), max_gap=8),
    ]
    for k in (1, 2):
        a, b = _dna(rng, 300), _dna(rng, 300)
        calls.append(_align(files, f"plain300-{k}", a, b, vit, want=ref.edit_distance(a, b)))
    return calls


def oracle_verify(rng, files) -> list[Call]:
    """Every subcommand with --verify at oracle scale: path sets and per-call CLI cost dominate.

    Seven calls rather than six (a max-gap alignment is added) keep the
    median call inside one call kind.
    """
    y = _series(rng, 14)
    a, b = _dna(rng, 6), _dna(rng, 6)
    return [
        _segment(files, "series14.txt", y, ("--count", "3"), count=3, verify=True),
        _segment(files, "series14.txt", y, (), lam=0.5, verify=True),
        _align(files, "six", a, b, want=ref.edit_distance(a, b), verify=True),
        _align(files, "six", a, b, ("--sum-misalign", "6"),
               want=ref.edit_distance_sum_gap(a, b, 6), verify=True),
        _align(files, "six", a, b, ("--max-misalign", "2"),
               want=ref.edit_distance(a, b, max_gap=2), verify=True),
        _events(files, "events14.txt", rng.uniform(0.05, 0.95, 14), 5, verify=True),
        _lis(files, "chain14.txt", _chain_input(rng, 7), verify=True),
    ]


WORKLOADS = {
    "scalar-folds": scalar_folds,
    "align-witness": align_witness,
    "oracle-verify": oracle_verify,
}


def build(name: str, seed: int, workdir: Path) -> list[Call]:
    """Write the workload's inputs under ``workdir`` and return its call cycle."""
    return WORKLOADS[name](np.random.default_rng(seed), _Files(workdir))
