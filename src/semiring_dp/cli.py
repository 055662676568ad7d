"""Command-line front end: semiring-dp <segment|align|events|lis|bench>.

Every subcommand runs one pipeline: it reads its inputs into a weight
map and states its recurrence input once, as a builder ``make(weight
map)``, next to its (possibly constrained) recurrence ``run(input,
semiring)``.  ``_solve`` folds ``make(weights)`` over an op-counting
copy of the semiring, unpacks the witness of a score-and-witness value,
reruns ``make(unit weights)`` over the boolean semiring to explain a
witness score at the base zero, checks the score on request against
the exhaustive path-set oracle of ``make(coded singletons)`` (``_oracle``:
generate, filter, evaluate, over integer label codes with the cyclic
collector paused) and builds the result document.  Where a fold has a
list and an array route, ``array_route`` picks one from per-unit cost
estimates kept in one table, before the fold's clock starts.  Documents are
canonical JSON (sorted keys, floats at 12 significant digits),
byte-stable under a parse/re-serialize round trip.  Exit codes:
0 success, 1 usage error, 2 data error, 3 oracle-check failure,
4 internal error (a bug: one line names it and the traceback follows
on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import operator
import os
import re
import stat
import sys
import time
import traceback
from pathlib import Path

from . import algorithms
from .algorithms import (
    AlignmentProblem,
    ColumnTable,
    MoveTable,
    SegmentationProblem,
    combinations,
    delannoy,
    events_m_of_n,
    nw_align,
    nw_align_max_constrained,
    nw_align_sum_constrained,
    segment_opt,
)
from .lifting import min_count_algebra, ordering_algebra, subset_size_algebra
from .pathsets import (
    PathBudgetError,
    evaluate_paths,
    filter_paths,
    generator_semiring,
    singleton_weights,
)
from .regression import (
    SegmentCostModel,
    SegmentCosts,
    TimeSeries,
    piecewise_values,
)
from .semirings import (
    SELECTIVE_SEMIRINGS,
    OpCounts,
    Scored,
    Semiring,
    boolean_semiring,
    counting_semiring,
    instrumented,
    max_product_semiring,
    maxplus_semiring,
    probability_semiring,
    standard_semirings,
    viterbi_simple_semiring,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ORACLE = 3
EXIT_INTERNAL = 4

VERIFY_PATH_CAP = 20_000


class DataError(Exception):
    """Malformed or out-of-range input data."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # any negative float literal ("-1e5", "-inf") is a value, not only plain decimals
        self._negative_number_matcher = re.compile(r"^-(?:\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(least: int):
    """An argparse type: an int of at least ``least``; a smaller one fits no input, so a usage error."""

    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


class _Range(argparse.Action):
    """A LO HI pair; LO > HI is malformed whatever the input, so a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        lo, hi = values
        if lo > hi:
            parser.error(f"argument {option_string}: LO {lo} exceeds HI {hi}")
        setattr(namespace, self.dest, values)


# --- canonical JSON ----------------------------------------------------------


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize {x!r} in a result document")
    if x == 0 and math.copysign(1.0, x) < 0:  # "-0" would parse back as the int 0
        return "-0.0"
    return f"{x:.12g}"


def canonical_json(doc) -> str:
    """Serialize with sorted keys and 12-significant-digit floats.

    Parsing the output and re-serializing reproduces it byte for byte,
    which makes documents diffable and golden-testable.
    """
    pieces: list[str] = []

    def emit(x):
        if x is None:
            pieces.append("null")
        elif x is True:
            pieces.append("true")
        elif x is False:
            pieces.append("false")
        elif isinstance(x, float):  # an empty min or max is written as "inf" or "-inf"
            pieces.append(f'"{x}"' if math.isinf(x) else format_float(x))
        elif isinstance(x, int):
            pieces.append(str(x))
        elif isinstance(x, str):
            pieces.append(json.dumps(x))
        elif isinstance(x, dict):
            pieces.append("{")
            for pos, key in enumerate(sorted(x)):
                if pos:
                    pieces.append(",")
                pieces.append(json.dumps(str(key)))
                pieces.append(":")
                emit(x[key])
            pieces.append("}")
        elif isinstance(x, (list, tuple)):
            pieces.append("[")
            for pos, item in enumerate(x):
                if pos:
                    pieces.append(",")
                emit(item)
            pieces.append("]")
        else:
            raise TypeError(f"cannot serialize {type(x).__name__} in a result document")

    emit(doc)
    return "".join(pieces)


# --- input readers -----------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")  # less one leading byte-order mark
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def read_numeric_column(path: str, *, header: bool = False) -> list[float]:
    """One number per line; '#'-prefixed lines are comments, and blank lines are skipped.

    ``header`` skips the first other line.  The kept lines are parsed in
    one pass; line numbers are counted only to name a line that fails.
    """
    lines = _read_text(path).splitlines()
    kept = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    if header:
        del kept[:1]
    try:
        return list(map(float, kept))
    except ValueError:
        pass
    numbers = [k for k, line in enumerate(map(str.strip, lines), start=1) if line and line[0] != "#"]
    for lineno, line in zip(numbers[1:] if header else numbers, kept):
        try:
            float(line)
        except ValueError:
            raise DataError(f"{path}:{lineno}: not a number: {line!r}") from None


def read_sequence(path: str, *, tokens: bool = False) -> list[str]:
    text = _read_text(path)
    if tokens:
        return text.split()
    return [ch for ch in text if not ch.isspace()]


# --- semiring selection ------------------------------------------------------


def resolve_semiring(name: str) -> tuple[Semiring, Semiring, bool]:
    """Return (semiring to run, scalar base for scoring, tupled?).

    Weights are scalars, which rules out ``expectation`` (pairs), and a
    witness needs a base whose add picks an operand (a selective base).
    """
    catalog = standard_semirings()
    tupled = name.startswith("viterbi:")
    base = catalog.get(name.split(":", 1)[1] if tupled else name)
    if base is not None and base.name != "expectation":
        try:
            return (viterbi_simple_semiring(base), base, True) if tupled else (base, base, False)
        except ValueError:  # the witness semiring refuses a base that sums
            pass
    plain = ", ".join(n for n in catalog if n != "expectation")
    raise DataError(
        f"{'unknown' if base is None else 'unsupported'} semiring {name!r} "
        f"(choices: {plain}, viterbi:<{'|'.join(SELECTIVE_SEMIRINGS)}>)"
    )


def _weights(base: Semiring, cost, tupled: bool, bounds: dict):
    """(The fold's weight map over (i, j), the oracle's weight of a label (i, j)).

    Both score with ``cost(i, j)``, or with unit weights where the semiring
    grades structure, not cost (count, bool); the fold's is tupled with its
    label when witnesses are kept.  ``bounds`` names the values that every
    cost lies between, with 0.0, which is in every catalog carrier: align's
    gap and mismatch costs, or segment's one-segment weight, the largest
    (a fit cost never falls as its interval grows).  A nan bound is a data
    error; so, unless the weights are units, is one outside the carrier,
    which every fold assumes: zero annihilates it, and adding zero or
    multiplying by one gives it back.
    """
    unit = base.name in ("count", "bool")
    for what, value in bounds.items():
        if math.isnan(value):
            raise DataError(f"{what} is nan; a cost must be a number")
        if unit:
            continue
        for law, got, want in (("times its zero", base.mul(value, base.zero), base.zero),
                               ("plus its zero", base.add(value, base.zero), value),
                               ("times its one", base.mul(value, base.one), value)):
            if got != want:
                raise DataError(f"{what} {value} is outside the carrier of {base.name}: "
                                f"{law} gives {got}, not {want}")
    if unit:
        cost = lambda i, j: base.one
    scalar = lambda label: cost(*label)
    if not tupled:
        return cost, scalar
    new = tuple.__new__
    return (lambda i, j: new(Scored, (cost(i, j), ((i, j),)))), scalar


# --- oracle checks -----------------------------------------------------------


def _oracle_skipped(reason: str) -> dict:
    return {"status": "skipped", "reason": reason}


def _oracle(solutions, what, generate, alg, base, weight, got, alphabet) -> dict:
    """Compare ``got`` with the exhaustive value over every solution.

    ``generate(one, gen)`` runs the recurrence over path sets ``gen``, each
    label weighed as ``one(label)``: the one-step path of its code, its rank
    in sorted ``alphabet`` order (a label outside it is a bug).  Codes keep
    label order, so paths sort as their labels do and the value is the
    label-level oracle's bit for bit.  ``alg`` (if any) filters the paths and
    ``weight`` scores them in ``base``; each reads every label once, weights
    in the alphabet's order, which may be one a weight map reads cheaply in.
    Over VERIFY_PATH_CAP is skipped.  Path sets hold no reference cycles, so
    the cyclic collector is paused while the oracle runs, then restored.
    """
    if solutions > VERIFY_PATH_CAP:
        return _oracle_skipped(f"{what} exceed the {VERIFY_PATH_CAP}-path cap")
    enabled = gc.isenabled()
    gc.disable()
    try:
        weights = {label: weight(label) for label in alphabet}
        labels = sorted(weights)
        singles = {label: singleton_weights(code) for code, label in enumerate(labels)}

        def one(label):
            try:
                return singles[label]
            except KeyError:
                raise LookupError(f"label {label!r} is outside the oracle's alphabet") from None

        paths = generate(one, generator_semiring())
        if alg is not None:
            mapped = list(map(alg.label_map, labels))
            paths = filter_paths(dataclasses.replace(alg, label_map=mapped.__getitem__), paths)
        want = evaluate_paths(base, list(map(weights.__getitem__, labels)).__getitem__, paths)
    except PathBudgetError as exc:
        return _oracle_skipped(str(exc))
    finally:
        if enabled:
            gc.enable()
    if base.eq(got, want):
        return {"status": "pass", "reason": None}
    return {"status": "fail", "reason": f"direct {got!r} != exhaustive {want!r}"}


def _label(*label):
    """A weight map giving each label, such as (i, j), as itself: a problem's labels."""
    return label


def _verify_segment(make, alg, base, scalar_weight, got) -> dict:
    n = make(_label).length
    generate = lambda one, gen: segment_opt(make(lambda *label: one(label)), gen)
    # every segment (i, j), column by column; a scalar cost is O(1) in any read order
    alphabet = ((i, j) for j in range(1, n + 1) for i in range(1, j + 1))
    return _oracle(2 ** (n - 1), f"2^{n - 1} covers", generate, alg, base, scalar_weight, got,
                   alphabet)


def _verify_align(make, alg, base, scalar_weight, got) -> dict:
    shape = make(_label)
    count = delannoy(shape.rows, shape.cols, VERIFY_PATH_CAP)  # counted up to the cap
    generate = lambda one, gen: nw_align(make(lambda *label: one(label)), gen)
    alphabet = ((i, j) for i in range(shape.rows + 1) for j in range(shape.cols + 1) if i or j)
    return _oracle(count, f"more than {VERIFY_PATH_CAP} alignments", generate, alg, base,
                   scalar_weight, got, alphabet)


def _verify_events(make, occurrences, base, scalar_weight, got) -> dict:
    pairs = make(_label)  # ((0, k), (1, k)): event k absent or present
    n = len(pairs)
    # every outcome sequence; the algebra keeps those with M occurrences
    generate = lambda one, gen: gen.prod(gen.add(one(absent), one(present))
                                         for absent, present in pairs)
    alg = subset_size_algebra(
        max(n, 1), label_map=lambda e: e[0], accept=lambda m: m == occurrences
    )
    return _oracle(2**n, f"2^{n} outcome sequences", generate, alg, base, scalar_weight, got,
                   (label for pair in pairs for label in pair))


def _verify_lis(values, relation, got_length) -> dict:
    n = len(values)
    if n == 0:
        return {"status": "pass", "reason": "empty input is trivially length 0"}
    generate = lambda one, gen: algorithms.nonempty_subsequences(n, gen, one)
    alg = ordering_algebra(values, relation)
    return _oracle(2**n, f"2^{n} subsequences", generate, alg, maxplus_semiring(),
                   lambda k: 1.0, got_length, range(1, n + 1))


# --- the pipeline ------------------------------------------------------------


def _fold(s: Semiring, run):
    """Run ``run`` over an op-counting copy of ``s``: (value, op counts, seconds)."""
    counted, counts = instrumented(s)
    start = time.perf_counter()
    value = run(counted)
    return value, counts, time.perf_counter() - start


def _document(command, config, result, witness, counts, elapsed, oracle) -> dict:
    return {
        "command": command,
        "config": config,
        "result": result,
        "witness": witness,
        "op_counts": {"add": counts.add, "mul": counts.mul},
        "wall_time_s": elapsed,
        "oracle_check": oracle,
    }


def _solve(args, command, config, s, base, make, weight, run, verify, zero=None) -> dict:
    """Run one recurrence input over three semirings, and document the result.

    ``make(weight map)`` builds the input and ``run(input, semiring)`` folds
    it: over the counted ``s`` with ``weight``; when a witness score is
    exactly ``base.zero`` and ``zero`` = (what the solutions are, the
    infeasible-constraint message) is given, over the boolean semiring with
    unit weights, to name which cause holds; and on request ``verify(make,
    score)`` runs the path-set oracle over ``make`` of the coded singleton
    map (``_oracle``).  A nan score is a data error.
    """
    problem = make(weight)
    value, counts, elapsed = _fold(s, lambda counted: run(problem, counted))
    result, witness = (value.score, value.witness) if isinstance(value, Scored) else (value, None)
    if isinstance(result, float) and math.isnan(result):
        raise DataError(f"the {s.name} fold gave nan: the weights meet an undefined "
                        f"operation such as inf * 0 or inf - inf")
    if zero is not None and witness is not None and result == base.zero:
        what, infeasible = zero
        unit = boolean_semiring()
        if run(make(lambda *label: unit.one), unit):
            raise DataError(f"every {what} scores the zero of {base.name} ({base.zero})")
        raise DataError(infeasible)
    oracle = verify(make, result) if args.verify else _oracle_skipped("not requested")
    return _document(command, config, result, witness, counts, elapsed, oracle)


def _scaling(sizes, s, run_at) -> list[tuple]:
    """A header row, then (size, adds, muls, seconds) of ``run_at(size, semiring)``."""
    rows = [("size", "add_ops", "mul_ops", "seconds")]
    for size in sizes:
        _, counts, seconds = _fold(s, lambda counted: run_at(size, counted))
        rows.append((size, counts.add, counts.mul, seconds))
    return rows


def _config(args, *names, **extra) -> dict:
    """The document's record of the settings: the named arguments, plus ``extra``."""
    return {name: getattr(args, name) for name in names} | extra


# --- array routes ------------------------------------------------------------

# array_route's inputs, one row per route: each side's seconds per unit of work.
# All but the segment row were fitted on 2026-10-20 in one sitting on a shared 2-CPU host
# (Python 3.11.7, numpy 2.4.6), over warm counted folds (best of 5-11) by least relative
# error; no second host was available.  A cost both routes pay alike is left out of both.
# numpy's import: the median of 11 fresh interpreters that had imported this module
# (other sets of 11 that day read 0.047-0.093 s: the host alternates between speeds)
NUMPY_IMPORT_S = 0.093
# exact events: lists per event and per row entry (E = sum of min(k, M)), arrays per event
EVENT_S, EVENT_ENTRY_S, EVENT_ARRAY_S = 2.4e-6, 0.13e-6, 3.6e-6
# viterbi events: lists per row entry, score arrays with move codes per event
WITNESS_ENTRY_S, WITNESS_EVENT_S = 1.4e-6, 9.4e-6
# summed gaps: tuples per hull cell and per lifted entry (cap + 1 a cell), arrays per hull cell
GAP_S, GAP_ENTRY_S, GAP_ARRAY_S = 8.5e-6, 0.33e-6, 17e-6
# lis over lt or le: lists per chainable pair, n(n - 1) / 2 of them, arrays per position
# (past the 4.8 us a position both routes spend)
CHAIN_PAIR_S, CHAIN_POSITION_S = 0.093e-6, 4.2e-6
# segment columns: lists per weight read (an O(1) closed form), score columns per column
# built and per dot.  Per weight, not per dot term: a count fold reads each weight once for
# up to count dot terms, and builds one column for up to count dots.  Fitted on
# 2026-10-21 in one sitting on the same host, to 36 warm counted folds (best of 33 each)
SEGMENT_READ_S, SEGMENT_COLUMN_S, SEGMENT_DOT_S = 0.99e-6, 23e-6, 4.9e-6
# witness alignments: lists per cell folded, the move table per diagonal.  Lists also
# spend 11.5 us a diagonal, left out, so a banded fold, whose diagonals are short,
# keeps lists: at 200 x 200 under a largest gap of 8 the two routes measure a tie.
ALIGN_CELL_S, ALIGN_DIAGONAL_S = 2.0e-6, 28e-6


def array_route(list_s: float, array_s: float) -> bool:
    """Whether a fold estimated at ``list_s`` s on lists and ``array_s`` s on arrays takes arrays.

    Every list-or-array choice of the command line is one call, its two
    estimates the units of work of the fold times the constants above:
    exact and viterbi ``events``, summed gaps, ``lis``, segment columns
    and witness alignments.  The folds keep no threshold of their own;
    they route on the container a yes hands them.
    Only the difference counts, so a cost both routes share may be left
    out of both.  A run that has not loaded numpy adds its import to the
    array side; a tie takes arrays.  A yes imports numpy, so a caller
    that decides before ``_fold`` starts its clock keeps the import out
    of ``wall_time_s``.
    """
    if "numpy" not in sys.modules:
        array_s += NUMPY_IMPORT_S
    if list_s < array_s:
        return False
    import numpy  # noqa: F401  (the import the estimate charged)
    return True


# --- command handlers --------------------------------------------------------


def cmd_segment(args) -> tuple[dict, list | None]:
    values = read_numeric_column(args.input, header=args.header)
    try:
        ts = TimeSeries(values)
        model = SegmentCostModel(kind=args.model, regularization=args.lam)
        costs = SegmentCosts(ts, model)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    n = len(ts)
    s, base, tupled = resolve_semiring(args.semiring)
    # costs.weight is read at each call, so a replacement on the instance is seen
    cost = lambda i, j: costs.weight(i, j)
    weight, scalar_weight = _weights(base, cost, tupled,
                                     {"the one-segment weight": costs.weight(1, n)})
    make = lambda weight: SegmentationProblem(n, weight)

    constraint = alg = None  # the constraint's record, and its oracle filter
    run = lambda p, counted: segment_opt(p, counted)
    reads, dots = n * (n + 1) // 2, n  # the weights a list fold reads, and the fold's dots
    if args.count is not None or args.count_range is not None:
        lo, hi = (args.count, args.count) if args.count is not None else args.count_range
        if hi > n:
            flag = f"--count {lo}" if args.count is not None else f"--count-range {lo} {hi}"
            if lo <= n:  # covers with lo..n segments exist: the bound, not the range, fails
                raise DataError(f"{flag} reaches past {n} samples: a cover has at most {n} segments")
            raise DataError(f"{flag} infeasible for {n} samples")
        constraint = {"kind": "count", "lo": lo, "hi": hi}
        run = lambda p, counted: algorithms.segment_fixed_count(p, lo, hi, counted)
        dots = sum(min(j, hi) for j in range(1, n + 1))  # one per m = 1..min(j, hi) at j
        alg = subset_size_algebra(hi, label_map=lambda e: 1, accept=lambda m: lo <= m <= hi)
    elif args.min_length is not None:
        lo = args.min_length
        if lo > n:
            raise DataError(f"--min-length {lo} infeasible for {n} samples")
        constraint = {"kind": "min-length", "lo": lo, "hi": lo}
        run = lambda p, counted: algorithms.segment_min_length(p, lo, counted, at_least=True)
        reads = (n - lo + 1) * (n - lo + 2) // 2  # those at least lo long
        alg = min_count_algebra(n, label_map=lambda e: e[1] - e[0] + 1, accept=lambda m: m >= lo)
    # min/max folds may read whole cost columns, numpy arrays made from the costs' sums
    if base.row_score is not None and array_route(reads * SEGMENT_READ_S,
                                                  n * SEGMENT_COLUMN_S + dots * SEGMENT_DOT_S):
        weight = ColumnTable(cost, costs.weights, labelled=tupled)

    config = _config(args, "input", "semiring", "model", "header", constraint=constraint)
    config["lambda"] = args.lam
    doc = _solve(
        args, "segment", config, s, base, make, weight, run,
        lambda make, got: _verify_segment(make, alg, base, scalar_weight, got),
        ("segmentation" + (" that satisfies the constraint" if constraint else ""),
         "constraint infeasible: no segmentation satisfies it"),
    )
    table = None
    witness = doc["witness"]
    if witness is not None:
        doc["breakpoints"] = [seg[1] for seg in witness[:-1]]
        if args.out_table is not None:  # the fit is numpy's: built only when asked for
            fit = piecewise_values(ts, model, witness)
            table = [("index", "value", "fit", "segment")]
            for ordinal, (i, j) in enumerate(witness, start=1):
                table += [(k, ts.samples[k - 1], fit[k - 1], ordinal) for k in range(i, j + 1)]
    return doc, table


def _edit_table(a, b, weight, mismatch_cost, gap_cost) -> MoveTable:
    """``weight``, the edit costs of ``a`` against ``b``, with its scores as tables."""
    import numpy as np
    symbols = {}  # each distinct symbol as an int, so == is Python's
    ids = [np.array([symbols.setdefault(x, len(symbols)) for x in seq]) for seq in (a, b)]
    # (i, j) at flipped[i - 1, len(b) - j]: the cells (i, d - i) lie on diagonal len(b) + 1 - d
    flipped = (ids[0][:, None] == ids[1][None, :])[:, ::-1]

    def match(d, first, last):
        k = len(b) + 1 - d
        start = first - 1 - max(0, -k)  # the diagonal's entries start at row max(0, -k)
        return np.where(flipped.diagonal(k)[start : start + last - first + 1], 0.0, mismatch_cost)

    return MoveTable(weight, match, np.full(len(a), gap_cost), np.full(len(b), gap_cost))


def cmd_align(args) -> tuple[dict, list | None]:
    a = read_sequence(args.first, tokens=args.tokens)
    b = read_sequence(args.second, tokens=args.tokens)
    name = "count" if args.count_paths else args.semiring
    s, base, tupled = resolve_semiring(name)
    gap_cost, mismatch_cost = args.gap_cost, args.mismatch_cost

    def edit_cost(i, j):
        if i and j:
            return 0.0 if a[i - 1] == b[j - 1] else mismatch_cost
        return gap_cost

    weight, scalar_weight = _weights(base, edit_cost, tupled, {"--gap-cost": gap_cost,
                                                               "--mismatch-cost": mismatch_cost})
    # a witness fold over a min/max base may read a move table, a diagonal at a time;
    # lists fold each cell (under a largest-gap cap, those of its band)
    if s.block_rows and args.sum_misalign is None:
        cells = (len(a) * len(b) if args.max_misalign is None
                 else algorithms.band_cells(len(a), len(b), args.max_misalign))
        if array_route(cells * ALIGN_CELL_S, (len(a) + len(b)) * ALIGN_DIAGONAL_S):
            weight = _edit_table(a, b, weight, mismatch_cost, gap_cost)
    constraint = alg = None  # the constraint's record, and its oracle filter
    run = lambda p, counted: nw_align(p, counted)
    if args.sum_misalign is not None:
        constraint = {"kind": "sum", "cap": args.sum_misalign}
        # at most len(a) + len(b) moves, each adding at most max(len(a), len(b))
        cap = min(args.sum_misalign, (len(a) + len(b)) * max(len(a), len(b)))
        # over a base with array rows, a cell's vector may be one float array
        # (nw_align_sum_constrained): tuples fold the hull's cells, cap + 1 entries each
        arrays = s.array_rows
        if arrays:
            hull = algorithms.gap_hull(len(a), len(b), cap)  # remembered for the fold
            cells = sum(hi - lo + 1 for lo, hi in hull if lo <= hi)
            arrays = array_route(cells * (GAP_S + (cap + 1) * GAP_ENTRY_S), cells * GAP_ARRAY_S)
        run = lambda p, counted: nw_align_sum_constrained(p, cap, counted, arrays=arrays)
        alg = algorithms.misalignment_algebra("sum", cap)
    elif args.max_misalign is not None:
        cap = args.max_misalign
        if cap > max(len(a), len(b)):
            raise DataError(f"--max-misalign {cap} out of range")
        constraint = {"kind": "max", "cap": cap}
        # a cap of max(rows, cols) admits every move: a sweep prefix below the cap runs at that
        run = lambda p, counted: nw_align_max_constrained(p, min(cap, max(p.rows, p.cols)), counted)
        alg = algorithms.misalignment_algebra("max", cap)

    make = lambda weight: AlignmentProblem(len(a), len(b), weight)
    sweep_rows = None
    if args.sweep:
        sizes = _parse_sizes(args.sweep)
        for size in sizes:
            if size > len(a) or size > len(b):
                raise DataError(f"--sweep size {size} exceeds an input length")
        # a prefix pair's move weights are the full pair's, restricted
        prefix = lambda size: AlignmentProblem(size, size, weight)
        sweep_rows = _scaling(sizes, s, lambda size, counted: run(prefix(size), counted))

    config = _config(args, "tokens", "gap_cost", "mismatch_cost", constraint=constraint,
                     inputs=[args.first, args.second], semiring=name)
    doc = _solve(
        args, "align", config, s, base, make, weight, run,
        lambda make, got: _verify_align(make, alg, base, scalar_weight, got),
        ("alignment" + (" that satisfies the constraint" if constraint else ""),
         "constraint infeasible: no alignment satisfies it"),
    )
    if sweep_rows is not None:
        doc["sweep"] = [list(r) for r in sweep_rows[1:]]
    return doc, sweep_rows


def cmd_events(args) -> tuple[dict, list | None]:
    probs = read_numeric_column(args.input, header=args.header)
    for pos, p in enumerate(probs, start=1):
        if not 0.0 <= p <= 1.0:
            raise DataError(f"probability #{pos} is {p}, outside [0, 1]")
    n, occurrences = len(probs), args.occurrences
    # the chance of outcome e of event k: it occurs (e = 1) or not (e = 0)
    chance = lambda e, k: probs[k - 1] if e else 1.0 - probs[k - 1]
    entries = occurrences * (occurrences + 1) // 2 + (n - occurrences) * occurrences
    if args.mode == "exact":
        base = s = probability_semiring()
        list_s, array_s = n * EVENT_S + entries * EVENT_ENTRY_S, n * EVENT_ARRAY_S
    else:  # most probable combination, witnessed by the events that occur
        base = max_product_semiring()
        s = viterbi_simple_semiring(base)
        list_s, array_s = entries * WITNESS_ENTRY_S, n * WITNESS_EVENT_S
    if occurrences <= n and array_route(list_s, array_s):
        import numpy as np
        present = np.array(probs)
        # (chance(0, k), chance(1, k)) in row k - 1, bit for bit: the fold's row is an array
        # too, of scores where it keeps witnesses, whose labels are then the event numbers
        weight = np.column_stack((1.0 - present, present))
    elif args.mode == "exact":  # the same pairs, built in one pass
        weight = [(1.0 - p, p) for p in probs]
    else:
        weight = lambda e, k: Scored(chance(e, k), (k,) if e else ())
    # the pairs (absent, present) of each event from a weight map; a table of them as it is
    make = lambda weight: (weight if not callable(weight)
                           else [(weight(0, k), weight(1, k)) for k in range(1, n + 1)])
    doc = _solve(
        args, "events", _config(args, "input", "occurrences", "mode", "header"), s, base,
        make, weight, lambda pairs, counted: events_m_of_n(pairs, occurrences, counted),
        lambda make, got: _verify_events(make, occurrences, base, lambda e: chance(*e), got),
        ("outcome with the requested number of occurrences",
         "no outcome has the requested number of occurrences"),
    )
    return doc, None


_RELATIONS = {
    "lt": operator.lt,
    "le": operator.le,
    "subset-demo": lambda x, y: (int(x) | int(y)) == int(y),
}


def cmd_lis(args) -> tuple[dict, list | None]:
    values = read_numeric_column(args.input, header=args.header)
    for pos, v in enumerate(values, start=1):
        if not math.isfinite(v):
            raise DataError(f"value #{pos} is {v}; lis values must be finite")
    if args.relation == "subset-demo":
        for pos, v in enumerate(values, start=1):
            if v < 0 or v != int(v):
                raise DataError(
                    f"value #{pos} is {v}; subset-demo needs non-negative integers (bit masks)"
                )
    relation = _RELATIONS[args.relation]
    chained, n = values, len(values)
    if args.relation in ("lt", "le") and array_route(n * (n - 1) // 2 * CHAIN_PAIR_S,
                                                     n * CHAIN_POSITION_S):
        import numpy as np
        chained = np.array(values)  # each chain sum picks its winner from an array of scores

    def run(weight, counted):  # (length, chained values); an empty input folds to length 0
        best = algorithms.ordered_subsequences(chained, counted, weight, relation)
        length = 0 if best.score == -math.inf else int(best.score)
        return Scored(length, [values[k - 1] for k in best.witness] or None)

    # the input is the weight map over positions k; the oracle's labels are k, not pairs
    base = maxplus_semiring()
    doc = _solve(
        args, "lis", _config(args, "input", "relation", "header"), viterbi_simple_semiring(base),
        base, lambda weight: weight, lambda k: Scored(1.0, (k,)), run,
        lambda make, got: _verify_lis(values, relation, got),
    )
    return doc, None


def _parse_sizes(spec: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise DataError(f"bad size list {spec!r}; expected comma-separated integers") from None
    if not sizes or any(s < 1 for s in sizes):
        raise DataError("size list must contain positive integers")
    return sizes


_BENCH_OPS = {
    "combinations": lambda size, s: combinations(size, min(8, size), s, lambda k: 1),
    "align": lambda size, s: nw_align(AlignmentProblem(size, size, lambda i, j: 1), s),
    "align-sum": lambda size, s: nw_align_sum_constrained(
        AlignmentProblem(size, size, lambda i, j: 1), size, s
    ),
}


def cmd_bench(args) -> tuple[dict, list | None]:
    sizes = _parse_sizes(args.sizes)
    rows = _scaling(sizes, counting_semiring(), _BENCH_OPS[args.op])
    _, add, mul, seconds = rows[-1]
    doc = _document("bench", {"op": args.op, "sizes": sizes}, None, None, OpCounts(add, mul),
                    seconds, _oracle_skipped("not applicable"))
    doc["table"] = [list(r) for r in rows[1:]]
    return doc, rows


# --- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semiring-dp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, handler, description):
        p = sub.add_parser(name, help=description)
        p.add_argument("--out", help="write the JSON result document here (default: stdout)")
        p.add_argument("--out-table", help="write plot-ready CSV columns here")
        p.add_argument("--verify", action="store_true",
                       help="cross-check against the exhaustive path oracle when small enough")
        p.set_defaults(handler=handler)
        return p

    p = command("segment", cmd_segment, "segmented regression over a numeric CSV column")
    p.add_argument("input")
    p.add_argument("--model", choices=("constant", "linear"), default="linear")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="per-segment regularization penalty")
    constraint = p.add_mutually_exclusive_group()
    constraint.add_argument("--count", type=_int_at_least(1), help="exact number of segments")
    constraint.add_argument("--count-range", nargs=2, type=_int_at_least(1),
                            metavar=("LO", "HI"), action=_Range)
    constraint.add_argument("--min-length", type=_int_at_least(1),
                            help="require every segment to span at least this many samples")
    p.add_argument("--semiring", default="viterbi:minplus",
                   help="catalog name or viterbi:<selective base>; count/bool use unit "
                        "weights, others weight segments by fit cost + lambda")
    p.add_argument("--header", action="store_true", help="skip one leading line")

    p = command("align", cmd_align, "sequence alignment between two text files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--tokens", action="store_true",
                   help="split on whitespace instead of one symbol per character")
    p.add_argument("--semiring", default="minplus")
    p.add_argument("--count-paths", action="store_true",
                   help="count alignments (forces the counting semiring, unit weights)")
    p.add_argument("--gap-cost", type=float, default=1.0)
    p.add_argument("--mismatch-cost", type=float, default=1.0)
    cap = p.add_mutually_exclusive_group()
    cap.add_argument("--sum-misalign", type=_int_at_least(0),
                     help="cap the summed index gap over alignment moves")
    cap.add_argument("--max-misalign", type=_int_at_least(0),
                     help="cap the maximum index gap over alignment moves")
    p.add_argument("--sweep", help="comma-separated prefix sizes for a timing table")

    p = command("events", cmd_events, "exact M-of-N event probability")
    p.add_argument("input", help="file with one probability per line")
    p.add_argument("-M", "--occurrences", type=_int_at_least(0), required=True)
    p.add_argument("--mode", choices=("exact", "viterbi"), default="exact",
                   help="exact probability, or the most probable combination")
    p.add_argument("--header", action="store_true")

    p = command("lis", cmd_lis, "longest chained subsequence of a numeric file")
    p.add_argument("input")
    p.add_argument("--relation", choices=("lt", "le", "subset-demo"), default="lt")
    p.add_argument("--header", action="store_true")

    p = command("bench", cmd_bench, "operation-count/time scaling table")
    p.add_argument("--op", choices=tuple(_BENCH_OPS), required=True)
    p.add_argument("--sizes", required=True, help="comma-separated sizes")

    return parser


def _write_outputs(args, doc, table) -> None:
    """Write the table, then the document (to stdout without --out), all or nothing.

    Each target is one of three kinds.  Staged: absent or a regular file
    once links are followed, written to a new temporary beside the file
    it resolves to, with a replaced file's permissions.  A stream, written
    in place: stdout or the file descriptor 1 has open (both through
    ``sys.stdout``, which keeps the offset and append mode of ``>>``), or
    any other non-directory, such as /dev/null or a FIFO.  Refused: an
    empty path, a directory, or a file (its inode, or its resolved path
    while absent) that another output names.  Every file is staged first,
    then every stream, stdout included, is written and flushed, then the
    temporaries are renamed: a failure before the renames changes no
    target, and no failure leaves a temporary behind.
    """
    if args.out is None and sys.stdout is None:  # descriptor 1 was closed at startup
        raise DataError("cannot write the document: stdout is closed")
    outputs = []
    if args.out_table is not None:
        if table is None:
            raise DataError("this invocation has no tabular output")
        lines = [",".join(_csv_cell(v) for v in row) for row in table]
        outputs.append((args.out_table, "\n".join(lines) + "\n"))
    outputs.append((args.out, canonical_json(doc) + "\n"))  # None is stdout
    for path, _ in outputs:
        if path == "":  # names no file (its realpath would be the working directory)
            raise DataError("cannot write '': No such file or directory")
    try:
        info = os.fstat(1)
        stdout = info.st_dev, info.st_ino
    except OSError:  # descriptor 1 is closed
        stdout = None
    planned, staged, streams = set(), [], []
    try:
        for path, text in outputs:
            name = path or "stdout"
            try:  # follows links: /dev/stdout is the file or pipe it names
                info = os.stat(1 if path is None else path)
            except FileNotFoundError:
                info = None
            key = os.path.realpath(path) if info is None else (info.st_dev, info.st_ino)
            if key in planned:
                raise DataError(f"--out-table and the document both name {name}")
            planned.add(key)
            if key == stdout:
                streams.append((name, None, text))
            elif info is None or stat.S_ISREG(info.st_mode):
                target = Path(os.path.realpath(path))
                temp = target.with_name(f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
                with open(temp, "x") as handle:  # new, created as the target would be (umask)
                    staged.append((name, target, temp))
                    handle.write(text)
                if info is not None:  # a replaced file keeps its permissions
                    os.chmod(temp, stat.S_IMODE(info.st_mode))
            elif stat.S_ISDIR(info.st_mode):
                raise DataError(f"cannot write {name}: it is a directory")
            else:
                streams.append((name, path, text))
        for name, path, text in streams:
            with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as out:
                out.write(text)
                out.flush()
        for name, path, temp in staged:
            os.replace(temp, path)
    except OSError as exc:
        # path is None only for sys.stdout, which keeps what it failed to write:
        # close it, or the flush at exit fails again
        if path is None:
            with contextlib.suppress(OSError):
                sys.stdout.close()
        raise DataError(f"cannot write {name}: {exc.strerror}") from None
    finally:
        for _, _, temp in staged:
            temp.unlink(missing_ok=True)


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        doc, table = args.handler(args)
        _write_outputs(args, doc, table)
    except DataError as exc:
        print(f"semiring-dp: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        traceback.print_exc()
        print(f"semiring-dp: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if doc["oracle_check"]["status"] == "fail":
        print(f"semiring-dp: oracle check failed: {doc['oracle_check']['reason']}",
              file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


def console_main() -> int:
    """The ``semiring-dp`` console script: ``main`` with cyclic garbage collection off.

    The script owns its process: the few hundred objects a run leaves in
    reference cycles (its argument parser among them) go when it exits,
    and a collection would rescan every live value, the tens of thousands
    of tuples of a path-set oracle included.  ``main`` itself pauses the
    collector only while an oracle runs (``_oracle``) and leaves it as it
    found it, for callers that run it in process.
    """
    gc.disable()
    return main()


if __name__ == "__main__":
    sys.exit(console_main())
