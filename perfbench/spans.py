"""Traced run: spans around each layer's public entry points, plus replays.

Nothing in ``src/`` knows about tracing.  While a ``Tracer`` is
installed it rebinds the names that ``semiring_dp.cli`` and
``semiring_dp.algorithms`` look up at call time (the CLI's imported
functions, and the ``algorithms`` attributes the CLI imports inside its
handlers) to wrappers that record spans: name, start, end, parent span
and call id, kept in memory and written out when the run ends.  A
``gc.callbacks`` hook records each cyclic collection as a span of its
own; the collector itself is left alone.

Costs too fine to wrap, such as a 2 us regression query or a single
semiring operation, are measured by replaying the recorded folds after
the call returns, outside every call span:

* the fold with the uninstrumented semiring (fold time without counting),
* the fold under ``instrumented`` (exact add/mul counts) while the
  regression queries it makes are recorded, then those queries alone,
* for a constrained entry point, the unconstrained recurrence on the
  same problem (the lifting op ratio),
* for a score-and-witness fold, the same fold and the bare base fold on
  one precomputed weight table (the cost of carrying witnesses).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import statistics
from collections import Counter
from time import perf_counter

from semiring_dp import algorithms, cli, semirings
from semiring_dp.algorithms import AlignmentProblem, SegmentationProblem

CLI_FOLDS = ("segment_opt", "nw_align", "nw_align_sum_constrained", "nw_align_max_constrained",
             "events_m_of_n")
# imported by cli inside its handlers, so looked up on the algorithms module
ALGORITHM_FOLDS = ("segment_fixed_count", "segment_min_length", "ordered_subsequences",
                   "nonempty_subsequences")
ORACLES = ("_verify_segment", "_verify_align", "_verify_events", "_verify_lis")

# constrained entry point -> the plain recurrence it lifts
UNCONSTRAINED = {
    algorithms.segment_fixed_count: algorithms.segment_opt,
    algorithms.segment_min_length: algorithms.segment_opt,
    algorithms.nw_align_sum_constrained: algorithms.nw_align,
    algorithms.nw_align_max_constrained: algorithms.nw_align,
}

LAYER_METRICS = {
    "cli.parse_s": "s",
    "cli.read_s": "s",
    "cli.emit_s": "s",
    "cli.self_s": "s",
    "regression.build_s": "s",
    "regression.fit_s": "s",
    "regression.queries": "count",
    "regression.query_ns": "ns",
    "algorithms.fold_s": "s",
    "algorithms.add_ops": "count",
    "algorithms.mul_ops": "count",
    "algorithms.ns_per_op": "ns",
    "semirings.witness_s": "s",
    "semirings.counting_s": "s",
    "lifting.fold_s": "s",
    "lifting.op_ratio": "ratio",
    "pathsets.oracle_s": "s",
    "pathsets.generate_s": "s",
    "pathsets.filter_s": "s",
    "pathsets.evaluate_s": "s",
    "pathsets.paths": "count",
    "pathsets.labels": "count",
    "pathsets.pass_frac": "ratio",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
}


@dataclasses.dataclass
class _Fold:
    fn: object
    args: tuple
    kwargs: dict


@dataclasses.dataclass
class _CallRecord:
    call_id: int
    cycle: int
    span_index: int = -1  # of its "cli.call" span
    folds: list = dataclasses.field(default_factory=list)
    costs: list = dataclasses.field(default_factory=list)
    uncounted: dict = dataclasses.field(default_factory=dict)  # id(counted) -> original
    witness_base: dict = dataclasses.field(default_factory=dict)  # id(viterbi) -> base
    oracle_seen_paths: bool = False
    totals: Counter = dataclasses.field(default_factory=Counter)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _semiring_position(args) -> int:
    return next(k for k, a in enumerate(args) if isinstance(a, semirings.Semiring))


def _with(args: tuple, pos: int, value) -> tuple:
    return args[:pos] + (value,) + args[pos + 1:]


def _timed(fn, args, kwargs) -> float:
    start = perf_counter()
    fn(*args, **kwargs)
    return perf_counter() - start


def _tabulated(fold: _Fold, pos: int, vit, base) -> tuple[tuple, tuple]:
    """Fold arguments for the witness fold and the bare base fold, both over one weight table."""
    args = fold.args
    first = args[0]
    if isinstance(first, (SegmentationProblem, AlignmentProblem)):
        if isinstance(first, SegmentationProblem):
            keys = [(i, j) for j in range(1, first.length + 1) for i in range(1, j + 1)]
        else:
            keys = [(i, j) for i in range(first.rows + 1) for j in range(first.cols + 1)][1:]
        table = {k: first.weight(*k) for k in keys}
        scores = {k: v.score for k, v in table.items()}
        vit_first = dataclasses.replace(first, weight=lambda i, j: table[i, j])
        base_first = dataclasses.replace(first, weight=lambda i, j: scores[i, j])
        return _with((vit_first,) + args[1:], pos, vit), _with((base_first,) + args[1:], pos, base)
    if fold.fn is algorithms.events_m_of_n:
        pairs = [(x.score, y.score) for x, y in first]
        return _with(args, pos, vit), _with((pairs,) + args[1:], pos, base)
    # ordered_subsequences(values, s, w, relation)
    table = [args[2](k) for k in range(1, len(first) + 1)]
    scores = [v.score for v in table]
    vit_args = (first, vit, lambda k: table[k - 1]) + args[3:]
    base_args = (first, base, lambda k: scores[k - 1]) + args[3:]
    return vit_args, base_args


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, call id]
        self.records: list[_CallRecord] = []
        self._stack: list[int] = []
        self._call: _CallRecord | None = None
        self._saved: list = []
        self._gc_start = 0.0

    # --- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        call_id = self._call.call_id if self._call else None
        span = [name, perf_counter(), None, parent, call_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        parent = self._stack[-1] if self._stack else None
        call_id = self._call.call_id if self._call else None
        self.spans.append(["runtime.gc", self._gc_start, perf_counter(), parent, call_id])

    # --- rebinding -----------------------------------------------------------

    def _bindings(self):
        yield cli, "build_parser", self._wrap_parser
        yield cli, "read_numeric_column", lambda fn: self._spanned("cli.read", fn)
        yield cli, "read_sequence", lambda fn: self._spanned("cli.read", fn)
        yield cli, "_write_outputs", lambda fn: self._spanned("cli.emit", fn)
        yield cli, "SegmentCosts", self._wrap_costs
        yield cli, "piecewise_values", lambda fn: self._spanned("regression.fit", fn)
        yield cli, "instrumented", self._wrap_instrumented
        yield cli, "viterbi_simple_semiring", self._wrap_viterbi
        for name in CLI_FOLDS:
            yield cli, name, self._wrap_fold
        for name in ALGORITHM_FOLDS:
            yield algorithms, name, self._wrap_fold
        for name in ORACLES:
            yield cli, name, self._wrap_oracle
        yield cli, "filter_paths", lambda fn: self._wrap_pathset("pathsets.filter", fn)
        yield cli, "evaluate_paths", lambda fn: self._wrap_pathset("pathsets.evaluate", fn)

    def install(self) -> None:
        for module, name, wrap in self._bindings():
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, wrap(original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap_parser(self, build):
        def build_parser():
            parser = self._spanned("cli.parse", build)()
            parser.parse_args = self._spanned("cli.parse", parser.parse_args)
            return parser

        return build_parser

    def _wrap_costs(self, cls):
        def segment_costs(*args, **kwargs):
            costs = self._spanned("regression.build", cls)(*args, **kwargs)
            self._call.costs.append(costs)
            return costs

        return segment_costs

    def _wrap_instrumented(self, fn):
        def instrumented(s):
            counted, counts = fn(s)
            self._call.uncounted[id(counted)] = s
            return counted, counts

        return instrumented

    def _wrap_viterbi(self, fn):
        def viterbi_simple_semiring(base):
            vit = fn(base)
            self._call.witness_base[id(vit)] = base
            return vit

        return viterbi_simple_semiring

    def _wrap_fold(self, fn):
        generate = self._spanned("pathsets.generate", fn)
        constrained = self._spanned("lifting.fold", fn)
        plain = self._spanned("algorithms.fold", fn)

        def fold(*args, **kwargs):
            s = args[_semiring_position(args)]
            if s.name == "paths":  # the oracle enumerating solutions, not a fold to replay
                return generate(*args, **kwargs)
            run = constrained if fn in UNCONSTRAINED else plain
            result = run(*args, **kwargs)
            self._call.folds.append(_Fold(fn, args, kwargs))
            return result

        return fold

    def _wrap_oracle(self, fn):
        spanned = self._spanned("pathsets.oracle", fn)

        def oracle(*args, **kwargs):
            self._call.oracle_seen_paths = False
            verdict = spanned(*args, **kwargs)
            totals = self._call.totals
            totals["oracles"] += 1
            totals["oracle_passes"] += verdict["status"] == "pass"
            return verdict

        return oracle

    def _wrap_pathset(self, name, fn):
        spanned = self._spanned(name, fn)

        def pathset_step(*args, **kwargs):
            rec = self._call
            if not rec.oracle_seen_paths:  # the first step sees the generated set
                rec.oracle_seen_paths = True
                rec.totals["paths"] += len(args[-1])
                rec.totals["labels"] += args[-1].labels_stored
            return spanned(*args, **kwargs)

        return pathset_step

    # --- calls and replays ---------------------------------------------------

    def call(self, main, argv, cycle: int) -> int:
        """Run ``main(argv)`` as one traced call belonging to ``cycle``."""
        rec = _CallRecord(call_id=len(self.records), cycle=cycle)
        self.records.append(rec)
        self._call = rec
        span = self._open("cli.call")
        rec.span_index = self._stack[-1]
        try:
            return main(argv)
        finally:
            self._close(span)
            self._call = None

    def replay(self, doc: dict) -> None:
        """Replay the last call's folds; ``doc`` is its result document."""
        rec = self.records[-1]
        span = self._open("replay")
        try:
            for fold in rec.folds:
                self._replay_fold(rec, fold)
            rec.totals["counted_fold_s"] += doc["wall_time_s"]
        finally:
            self._close(span)
            rec.folds = rec.costs = None  # release the inputs the closures hold
            rec.uncounted = rec.witness_base = None

    def _replay_fold(self, rec: _CallRecord, fold: _Fold) -> None:
        totals = rec.totals
        pos = _semiring_position(fold.args)
        s = rec.uncounted.get(id(fold.args[pos]), fold.args[pos])
        totals["plain_fold_s"] += _timed(fold.fn, _with(fold.args, pos, s), fold.kwargs)

        counted, counts = semirings.instrumented(s)
        queries = [[] for _ in rec.costs]
        for costs, keys in zip(rec.costs, queries):
            weight = costs.weight
            costs.weight = (
                lambda i, j, weight=weight, keys=keys: keys.append((i, j)) or weight(i, j)
            )
        try:
            fold.fn(*_with(fold.args, pos, counted), **fold.kwargs)
        finally:
            for costs in rec.costs:
                del costs.weight
        totals["add_ops"] += counts.add
        totals["mul_ops"] += counts.mul
        for costs, keys in zip(rec.costs, queries):
            weight = costs.weight
            start = perf_counter()
            for i, j in keys:
                weight(i, j)
            totals["query_s"] += perf_counter() - start
            totals["queries"] += len(keys)

        unconstrained = UNCONSTRAINED.get(fold.fn)
        if unconstrained is not None:
            lifted, lifted_counts = semirings.instrumented(s)
            unconstrained(fold.args[0], lifted)
            totals["constrained_ops"] += counts.add + counts.mul
            totals["unconstrained_ops"] += lifted_counts.add + lifted_counts.mul

        base = rec.witness_base.get(id(s))
        if base is not None:
            vit_args, base_args = _tabulated(fold, pos, s, base)
            totals["witness_s"] += _timed(fold.fn, vit_args, fold.kwargs) - _timed(
                fold.fn, base_args, fold.kwargs
            )

    # --- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals for one cycle of calls, median over the traced cycles."""
        child_time = Counter()
        by_call: dict[int, Counter] = {rec.call_id: Counter() for rec in self.records}
        for name, start, end, parent, call_id in self.spans:
            if call_id is None:
                continue
            if parent is not None:
                child_time[parent] += end - start
            by_call[call_id][name] += end - start
            if name == "runtime.gc":
                by_call[call_id]["gc_count"] += 1
        cycles: dict[int, Counter] = {}
        for rec in self.records:
            t = cycles.setdefault(rec.cycle, Counter())
            t.update(by_call[rec.call_id])
            t.update(rec.totals)
            _, start, end, _, _ = self.spans[rec.span_index]
            t["cli.self"] += (end - start) - child_time[rec.span_index]
        per_cycle = [self._derive(t) for t in cycles.values()]
        return {name: statistics.median(m[name] for m in per_cycle) for name in LAYER_METRICS}

    @staticmethod
    def _derive(t: Counter) -> dict[str, float]:
        ops = t["add_ops"] + t["mul_ops"]
        return {
            "cli.parse_s": t["cli.parse"],
            "cli.read_s": t["cli.read"],
            "cli.emit_s": t["cli.emit"],
            "cli.self_s": t["cli.self"],
            "regression.build_s": t["regression.build"],
            "regression.fit_s": t["regression.fit"],
            "regression.queries": t["queries"],
            "regression.query_ns": 1e9 * _ratio(t["query_s"], t["queries"]),
            "algorithms.fold_s": t["algorithms.fold"] + t["lifting.fold"],
            "algorithms.add_ops": t["add_ops"],
            "algorithms.mul_ops": t["mul_ops"],
            "algorithms.ns_per_op": 1e9 * _ratio(t["plain_fold_s"], ops),
            "semirings.witness_s": t["witness_s"],
            "semirings.counting_s": t["counted_fold_s"] - t["plain_fold_s"],
            "lifting.fold_s": t["lifting.fold"],
            "lifting.op_ratio": _ratio(t["constrained_ops"], t["unconstrained_ops"]),
            "pathsets.oracle_s": t["pathsets.oracle"],
            # the events oracle enumerates inline, so generation is what the
            # oracle spends outside filtering and evaluation
            "pathsets.generate_s": (
                t["pathsets.oracle"] - t["pathsets.filter"] - t["pathsets.evaluate"]
            ),
            "pathsets.filter_s": t["pathsets.filter"],
            "pathsets.evaluate_s": t["pathsets.evaluate"],
            "pathsets.paths": t["paths"],
            "pathsets.labels": t["labels"],
            "pathsets.pass_frac": _ratio(t["oracle_passes"], t["oracles"]),
            "runtime.gc_s": t["runtime.gc"],
            "runtime.gc_collections": t["gc_count"],
        }

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, call_id in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "call": call_id}) + "\n")
