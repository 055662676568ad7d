"""Command-line front end: semiring-dp <segment|align|events|lis|bench>.

Every subcommand runs one pipeline: it reads its inputs into a weight
map and picks its recurrence, then ``_solve`` folds that recurrence over
an op-counting copy of the semiring, unpacks the witness of a
score-and-witness value, checks the score against the exhaustive
path-set oracle on request (``_oracle``: generate, filter, evaluate) and
builds the result document.  Documents are canonical JSON (sorted keys,
floats at 12 significant digits), byte-stable under a parse/re-serialize
round trip.  Exit codes: 0 success, 1 usage error, 2 data error,
3 oracle-check failure, 4 internal error (a bug: one line names it and
the traceback follows on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import stat
import sys
import time
import traceback
from pathlib import Path

from . import algorithms
from .algorithms import (
    AlignmentProblem,
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
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def read_numeric_column(path: str, *, header: bool = False) -> list[float]:
    """One number per line; '#'-prefixed lines are comments."""
    lines = _read_text(path).splitlines()
    values: list[float] = []
    skip_pending = header
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if skip_pending:
            skip_pending = False
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise DataError(f"{path}:{lineno}: not a number: {line!r}") from None
    return values


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


def _scalar_weight(base: Semiring, cost):
    """Label -> ``cost``, or unit weights where the semiring grades structure, not cost."""
    return (lambda e: base.one) if base.name in ("count", "bool") else cost


def _labelled(scalar, tupled: bool):
    """Weight map (i, j) -> scalar((i, j)), tupled with its label when witnesses are kept."""
    if not tupled:
        return lambda i, j: scalar((i, j))
    new = tuple.__new__

    def weight(i, j):
        label = (i, j)
        return new(Scored, (scalar(label), (label,)))

    return weight


# --- oracle checks -----------------------------------------------------------


def _oracle_skipped(reason: str) -> dict:
    return {"status": "skipped", "reason": reason}


def _oracle(solutions, what, generate, alg, base, weight, got) -> dict:
    """Compare ``got`` with the exhaustive value over every solution.

    ``generate`` runs the recurrence over path sets, ``alg`` (if any) filters
    them, ``weight`` scores them in ``base``; over VERIFY_PATH_CAP is skipped.
    """
    if solutions > VERIFY_PATH_CAP:
        return _oracle_skipped(f"{what} exceed the {VERIFY_PATH_CAP}-path cap")
    weight = functools.cache(weight)  # each label recurs in many paths, in no fold's order
    try:
        paths = generate(generator_semiring())
        if alg is not None:
            paths = filter_paths(alg, paths)
        want = evaluate_paths(base, weight, paths)
    except PathBudgetError as exc:
        return _oracle_skipped(str(exc))
    if base.eq(got, want):
        return {"status": "pass", "reason": None}
    return {"status": "fail", "reason": f"direct {got!r} != exhaustive {want!r}"}


def _verify_segment(n, scalar_weight, alg, base, got) -> dict:
    problem = SegmentationProblem(n, lambda i, j: singleton_weights((i, j)))
    generate = lambda gen: segment_opt(problem, gen)
    return _oracle(2 ** (n - 1), f"2^{n - 1} covers", generate, alg, base, scalar_weight, got)


def _verify_align(n, m, alg, base, scalar_weight, got) -> dict:
    problem = AlignmentProblem(n, m, lambda i, j: singleton_weights((i, j)))
    count = delannoy(n, m)
    generate = lambda gen: nw_align(problem, gen)
    return _oracle(count, f"{count} alignments", generate, alg, base, scalar_weight, got)


def _verify_events(probs, occurrences, base, scalar_weight, got) -> dict:
    n = len(probs)

    def generate(gen):  # every outcome sequence; the algebra keeps those with M occurrences
        paths = gen.one
        for k in range(1, n + 1):
            branch = gen.add(singleton_weights((0, k)), singleton_weights((1, k)))
            paths = gen.mul(paths, branch)
        return paths

    alg = subset_size_algebra(
        max(n, 1), label_map=lambda e: e[0], accept=lambda m: m == occurrences
    )
    return _oracle(2**n, f"2^{n} outcome sequences", generate, alg, base, scalar_weight, got)


def _verify_lis(values, relation, got_length) -> dict:
    n = len(values)
    if n == 0:
        return {"status": "pass", "reason": "empty input is trivially length 0"}
    generate = lambda gen: algorithms.nonempty_subsequences(n, gen, singleton_weights)
    alg = ordering_algebra(values, relation)
    return _oracle(2**n, f"2^{n} subsequences", generate, alg, maxplus_semiring(),
                   lambda k: 1.0, got_length)


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


def _zero_score(what, infeasible, base, feasible):
    """The error message for a witness score exactly at ``base.zero``, as a thunk.

    ``feasible(bool semiring)`` reruns the same constrained fold with unit
    weights: it tells an infeasible constraint (``infeasible``) from
    solutions that all score the base zero.
    """
    def message():
        if feasible(boolean_semiring()):
            return f"every {what} scores the zero of {base.name} ({base.zero})"
        return infeasible

    return message


def _solve(args, command, config, s, run, verify, zero_score) -> dict:
    """Fold, read a Scored value's witness, verify the score if asked, and document.

    A nan score is a data error; a witness score exactly at the base zero
    raises the message ``zero_score()``, if given.
    """
    value, counts, elapsed = _fold(s, run)
    result, witness = (value.score, value.witness) if isinstance(value, Scored) else (value, None)
    if isinstance(result, float) and math.isnan(result):
        raise DataError(f"the {s.name} fold gave nan: the weights meet an undefined "
                        f"operation such as inf * 0 or inf - inf")
    if zero_score is not None and witness is not None and result == s.zero.score:
        raise DataError(zero_score())
    oracle = verify(result) if args.verify else _oracle_skipped("not requested")
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
    scalar_weight = _scalar_weight(base, lambda e: costs.weight(e[0], e[1]))
    problem = SegmentationProblem(n, _labelled(scalar_weight, tupled))

    constraint = alg = None  # the constraint's record, and its oracle filter
    run = lambda p, counted: segment_opt(p, counted)
    if args.count is not None or args.count_range is not None:
        lo, hi = (args.count, args.count) if args.count is not None else args.count_range
        if hi > n:
            flag = f"--count {lo}" if args.count is not None else f"--count-range {lo} {hi}"
            raise DataError(f"{flag} infeasible for {n} samples")
        constraint = {"kind": "count", "lo": lo, "hi": hi}
        run = lambda p, counted: algorithms.segment_fixed_count(p, lo, hi, counted)
        alg = subset_size_algebra(hi, label_map=lambda e: 1, accept=lambda m: lo <= m <= hi)
    elif args.min_length is not None:
        lo = args.min_length
        if lo > n:
            raise DataError(f"--min-length {lo} infeasible for {n} samples")
        constraint = {"kind": "min-length", "lo": lo, "hi": lo}
        run = lambda p, counted: algorithms.segment_min_length(p, lo, counted, at_least=True)
        alg = min_count_algebra(n, label_map=lambda e: e[1] - e[0] + 1, accept=lambda m: m >= lo)

    config = _config(args, "input", "semiring", "model", "header", constraint=constraint)
    config["lambda"] = args.lam
    doc = _solve(
        args, "segment", config, s, lambda counted: run(problem, counted),
        lambda got: _verify_segment(n, scalar_weight, alg, base, got),
        _zero_score(
            "segmentation" + (" that satisfies the constraint" if constraint else ""),
            "constraint infeasible: no segmentation satisfies it", base,
            lambda unit: run(SegmentationProblem(n, lambda i, j: unit.one), unit),
        ),
    )
    table = None
    witness = doc["witness"]
    if witness is not None:
        fit = piecewise_values(ts, model, witness)
        table = [("index", "value", "fit", "segment")]
        for ordinal, (i, j) in enumerate(witness, start=1):
            table += [(k, ts.values[k - 1], fit[k - 1], ordinal) for k in range(i, j + 1)]
        doc["breakpoints"] = [seg[1] for seg in witness[:-1]]
    return doc, table


def cmd_align(args) -> tuple[dict, list | None]:
    for flag, cost in (("--gap-cost", args.gap_cost), ("--mismatch-cost", args.mismatch_cost)):
        if math.isnan(cost):
            raise DataError(f"{flag} is nan; a cost must be a number")
    a = read_sequence(args.first, tokens=args.tokens)
    b = read_sequence(args.second, tokens=args.tokens)
    name = "count" if args.count_paths else args.semiring
    s, base, tupled = resolve_semiring(name)
    mismatch_cost = args.mismatch_cost
    gap_cost = args.gap_cost

    def edit_cost(e):
        i, j = e
        if i and j:
            return 0.0 if a[i - 1] == b[j - 1] else mismatch_cost
        return gap_cost

    scalar_weight = _scalar_weight(base, edit_cost)
    constraint = alg = None  # the constraint's record, and its oracle filter
    run = lambda p, counted: nw_align(p, counted)
    if args.sum_misalign is not None:
        constraint = {"kind": "sum", "cap": args.sum_misalign}
        # at most len(a) + len(b) moves, each adding at most max(len(a), len(b))
        cap = min(args.sum_misalign, (len(a) + len(b)) * max(len(a), len(b)))
        run = lambda p, counted: nw_align_sum_constrained(p, cap, counted)
        alg = algorithms.misalignment_algebra("sum", cap)
    elif args.max_misalign is not None:
        cap = args.max_misalign
        if cap > max(len(a), len(b)):
            raise DataError(f"--max-misalign {cap} out of range")
        constraint = {"kind": "max", "cap": cap}
        run = lambda p, counted: nw_align_max_constrained(p, cap, counted)
        alg = algorithms.misalignment_algebra("max", cap)

    problem = AlignmentProblem(len(a), len(b), _labelled(scalar_weight, tupled))
    sweep_rows = None
    if args.sweep:
        sizes = _parse_sizes(args.sweep)
        for size in sizes:
            if size > len(a) or size > len(b):
                raise DataError(f"--sweep size {size} exceeds an input length")
        # a prefix pair's move weights are the full pair's, restricted
        prefix = lambda size: AlignmentProblem(size, size, problem.weight)
        sweep_rows = _scaling(sizes, s, lambda size, counted: run(prefix(size), counted))

    config = _config(args, "tokens", "gap_cost", "mismatch_cost", constraint=constraint,
                     inputs=[args.first, args.second], semiring=name)
    doc = _solve(
        args, "align", config, s, lambda counted: run(problem, counted),
        lambda got: _verify_align(len(a), len(b), alg, base, scalar_weight, got),
        _zero_score(
            "alignment" + (" that satisfies the constraint" if constraint else ""),
            "constraint infeasible: no alignment satisfies it", base,
            lambda unit: run(AlignmentProblem(len(a), len(b), lambda i, j: unit.one), unit),
        ),
    )
    if sweep_rows is not None:
        doc["sweep"] = [list(r) for r in sweep_rows[1:]]
    return doc, sweep_rows


def cmd_events(args) -> tuple[dict, list | None]:
    probs = read_numeric_column(args.input, header=args.header)
    for pos, p in enumerate(probs, start=1):
        if not 0.0 <= p <= 1.0:
            raise DataError(f"probability #{pos} is {p}, outside [0, 1]")
    occurrences = args.occurrences

    if args.mode == "exact":
        base = s = probability_semiring()
        pairs = [(1.0 - p, p) for p in probs]
    else:  # most probable combination
        base = max_product_semiring()
        s = viterbi_simple_semiring(base)
        pairs = [(Scored(1.0 - p, ()), Scored(p, (k,))) for k, p in enumerate(probs, start=1)]
    scalar_weight = lambda e: probs[e[1] - 1] if e[0] else 1.0 - probs[e[1] - 1]

    doc = _solve(
        args, "events", _config(args, "input", "occurrences", "mode", "header"), s,
        lambda counted: events_m_of_n(pairs, occurrences, counted),
        lambda got: _verify_events(probs, occurrences, base, scalar_weight, got),
        _zero_score(
            "outcome with the requested number of occurrences",
            "no outcome has the requested number of occurrences", base,
            lambda unit: events_m_of_n([(unit.one, unit.one)] * len(probs), occurrences, unit),
        ),
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

    def run(counted):  # (length, chained values); an empty input folds to length 0
        best = algorithms.ordered_subsequences(
            values, counted, lambda k: Scored(1.0, (k,)), relation
        )
        length = 0 if best.score == -math.inf else int(best.score)
        return Scored(length, [values[k - 1] for k in best.witness] or None)

    doc = _solve(
        args, "lis", _config(args, "input", "relation", "header"),
        viterbi_simple_semiring(maxplus_semiring()), run,
        lambda got: _verify_lis(values, relation, got), None,
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
    """Write the table and the document all or nothing; the document goes to stdout without --out.

    A target that is absent or a regular file, once symlinks are
    followed, is written to a temporary file beside the file it resolves
    to, and the temporaries are renamed into place only once every
    output is written, so a failed write leaves neither file (nor stdout)
    touched.  Two such targets that resolve to one file are refused.
    Any other target (a device such as /dev/null, a FIFO or pipe such as
    /dev/stdout) is written directly, after the temporaries and before
    the renames, since a rename would replace it.  So is the file that
    descriptor 1 has open, through descriptor 1: that keeps its offset
    and append mode (``>>``), where reopening the path would truncate it.
    """
    payload = canonical_json(doc) + "\n"
    if not args.out and sys.stdout is None:  # descriptor 1 was closed at startup
        raise DataError("cannot write the document: stdout is closed")
    files = []
    if args.out_table:
        if table is None:
            raise DataError("this invocation has no tabular output")
        lines = [",".join(_csv_cell(v) for v in row) for row in table]
        files.append((args.out_table, "\n".join(lines) + "\n"))
    if args.out:
        files.append((args.out, payload))
    try:
        stdout = os.fstat(1)
    except OSError:  # descriptor 1 is closed
        stdout = None
    plan, direct = [], []
    for path, text in files:
        try:
            info = os.stat(path)  # follows links: /dev/stdout is the file or pipe it names
        except FileNotFoundError:
            info = None
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc.strerror}") from None
        mode = None if info is None else info.st_mode
        if info is not None and stdout is not None and os.path.samestat(info, stdout):
            direct.append((path, text, 1))
        elif mode is None or stat.S_ISREG(mode):
            plan.append((path, os.path.realpath(path), text, mode))
        elif stat.S_ISDIR(mode):  # the rename would fail after the other file was renamed
            raise DataError(f"cannot write {path}: it is a directory")
        else:
            direct.append((path, text, path))
    if len({target for _, target, _, _ in plan}) < len(plan):
        raise DataError(f"--out and --out-table both name {plan[0][1]}")
    staged = []
    try:
        for path, target, text, mode in plan:
            staged.append((_stage(path, target, text, mode), target, path))
        if sys.stdout is not None:  # None when descriptor 1 was closed at startup
            sys.stdout.flush()
        for path, text, target in direct:
            try:
                with open(target, "w", closefd=target != 1) as out:
                    out.write(text)
            except OSError as exc:
                raise DataError(f"cannot write {path}: {exc.strerror}") from None
        for temp, target, path in staged:
            try:
                os.replace(temp, target)
            except OSError as exc:
                raise DataError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        for temp, _, _ in staged:
            temp.unlink(missing_ok=True)
    if not args.out:
        sys.stdout.write(payload)


def _stage(path, target, text, mode) -> Path:
    """Write ``text`` to a new temporary file beside ``target``, with ``mode``'s permissions if given."""
    target = Path(target)
    temp = target.with_name(f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        handle = open(temp, "x")  # a new file, created as the target would be (umask applies)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with handle:
            handle.write(text)
        if mode is not None:  # a replaced file keeps its permissions
            os.chmod(temp, stat.S_IMODE(mode))
    except OSError as exc:
        temp.unlink(missing_ok=True)
        raise DataError(f"cannot write {path}: {exc.strerror}") from None
    return temp


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


if __name__ == "__main__":
    sys.exit(main())
