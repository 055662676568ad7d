"""Closed-loop benchmark of the semiring-dp command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client in one process and thread
calls ``semiring_dp.cli.main(argv)`` in process, over and over through
the workload's fixed cycle of calls, and starts each call only after
the previous one returned.  Every result document is checked against
the independent references in ``reference.py``, outside the timed
calls.

The process pins itself to its fastest CPU, and call times are scaled
by a fixed probe, ``probe.py``, timed in a helper process around each
call (see ``Probe``).  Calls run
in whole cycles, at least one, until they have taken ``--seconds`` of
scaled time.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends a
third of the time untraced and the rest traced, and prints the
per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")  # relative to ROOT, so the CLI sees short relative paths
SETUP_REPEATS = 11
TAIL_BEYOND = 10
UNTRACED_SHARE_WHEN_TRACING = 1 / 3
WALL_CAP = 1.25  # a run on a very slow host stops after this many times --seconds of wall time
PIN_CANDIDATES = 8
PIN_PROBES = 7

E2E_UNITS = {
    "calls_per_s": "1/s",
    "call_s.p50": "s",
    "call_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Outcome:
    """Checked outcomes of every call the benchmark made."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, call, code, out: str, err: str) -> dict | None:
        """The call's result document, or None after recording why it failed."""
        self.attempted += 1
        reason = None
        doc = None
        if code != 0:
            reason = f"exit code {code}: {err.strip()[-300:]}"
        else:
            try:
                doc = json.loads(out)
                if call.verify and doc["oracle_check"]["status"] != "pass":
                    reason = f"oracle check {doc['oracle_check']}"
                else:
                    reason = call.check(doc)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"malformed result document: {exc!r}"
        if reason is None:
            return doc
        self.failures.append(f"{call.label}: {reason}")
        return None


class Probe:
    """Follows the host's speed by timing ``probe.py`` in a helper process.

    Shared hosts drift: the same call can take twice as long from one
    minute to the next.  The run times the probe between calls and
    scales each call's time by ``REF_S`` over the mean of the probes
    just before and just after it: seconds on a host on which the probe
    takes ``REF_S``.  The helper is an interpreter of its own on the
    same CPU, so the scaling follows the host but no change to the
    program's heap or garbage collection.
    """

    REF_S = 0.0055

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)

    def scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * 2 * self.REF_S / (before + after)


def pin_to_fastest_cpu(probe: Probe) -> int | None:
    """Pin this process, the probe's helper and the interpreters it starts to its fastest CPU.

    The virtual CPUs of a shared host can differ in speed by half (a
    busy neighbour on one core's sibling, say), and a process that
    migrates between them changes speed mid-run.  The choice only sets
    the affinity of this process and its own children.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))[:PIN_CANDIDATES]
    if len(cpus) < 2:
        return None

    def pin(cpu):
        for pid in (0, probe.proc.pid):
            os.sched_setaffinity(pid, {cpu})

    speed = {}
    for cpu in cpus:
        pin(cpu)
        speed[cpu] = statistics.median(probe() for _ in range(PIN_PROBES))
    best = min(speed, key=speed.get)
    pin(best)
    return best


class Sample(NamedTuple):
    seconds: float
    scaled: float  # seconds at the reference host speed
    ok: bool
    kind: int  # position of the call in the cycle


def _invoke(main, argv) -> tuple[object, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(list(argv))
        except Exception as exc:  # a traceback from the CLI is a failed call
            code = f"uncaught {exc!r}"
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run_cycles(
    main, calls, probe, seconds, outcome, *, wall_clock=False, after=None
) -> list[Sample]:
    """Whole cycles, at least one, until the calls' scaled time reaches ``seconds``.

    Counting scaled time keeps the number of cycles, and so the order
    statistic that is the tail, the same from run to run on a drifting
    host; WALL_CAP bounds the run on a very slow one.  With
    ``wall_clock`` the budget is wall time instead, for traced runs
    whose replays outside the calls take most of the time.
    ``main(argv, cycle)`` makes the call; ``after(doc)`` runs, untimed,
    after each call whose result checked out.  Whole cycles keep every
    call kind equally represented in the samples.
    """
    samples = []
    start = perf_counter()
    used = 0.0
    cycle = 0
    probe_before = probe()
    while cycle == 0 or (used < seconds and perf_counter() - start < WALL_CAP * seconds):
        for k, call in enumerate(calls):
            code, out, err, elapsed = _invoke(lambda argv: main(argv, cycle), call.argv)
            probe_after = probe()
            scaled = probe.scale(elapsed, probe_before, probe_after)
            doc = outcome.judge(call, code, out, err)
            samples.append(Sample(elapsed, scaled, doc is not None, k))
            if doc is not None and after is not None:
                after(doc)
            probe_before = probe() if after is not None else probe_after
        cycle += 1
        used = perf_counter() - start if wall_clock else sum(x.scaled for x in samples)
    return samples


def measure_setup(call, probe, outcome) -> list[float]:
    """Fresh interpreters: import semiring_dp.cli, then the cycle's first (cold) call.

    Each child's time is scaled by the probes run just before and after it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    probe_before = probe()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold.py"), *call.argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
        )
        probe_after = probe()
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            outcome.judge(call, f"setup child exit {proc.returncode}", "", proc.stderr)
            continue
        if outcome.judge(call, report["code"], report["out"], proc.stderr) is not None:
            times.append(probe.scale(report["seconds"], probe_before, probe_after))
        probe_before = probe_after
    return times


def calls_per_s(samples, field="scaled") -> float:
    busy = sum(getattr(x, field) for x in samples)
    return sum(x.ok for x in samples) / busy if busy else 0.0


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it: (value, percentile, n)."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(cli, calls, probe, seconds, outcome) -> tuple[dict, list[str]]:
    setup = measure_setup(calls[0], probe, outcome)
    samples = run_cycles(lambda argv, cycle: cli.main(argv), calls, probe, seconds, outcome)
    raw = [x.seconds for x in samples]
    times = [x.scaled for x in samples]
    value, pct, n = tail(times)
    ok = sum(x.ok for x in samples)
    metrics = {
        "calls_per_s": calls_per_s(samples),
        "call_s.p50": statistics.median(times),
        "call_s.tail": value,
        "setup_s": statistics.median(setup) if setup else 0.0,  # no setup: a failure is recorded
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok / len(samples),
    }
    notes = [
        f"calls {len(samples)} (ok {ok}), failed_frac {1 - ok / len(samples):.6g}",
        f"call_s.tail is p{pct:.4g} of {n} calls ({TAIL_BEYOND} beyond it)",
        f"unscaled: calls_per_s {calls_per_s(samples, 'seconds'):.6g}, "
        f"call_s.p50 {statistics.median(raw):.6g}, call_s.tail {tail(raw)[0]:.6g}",
        f"setup_s is the median of {len(setup)} fresh interpreters",
    ] + [
        f"median {statistics.median(x.scaled for x in samples if x.kind == k):.4g} s: {call.label}"
        for k, call in enumerate(calls)
    ]
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, notes


def per_layer(cli, calls, probe, seconds, outcome, spans_path) -> tuple[dict, list[str]]:
    from spans import LAYER_METRICS, Tracer

    share = UNTRACED_SHARE_WHEN_TRACING
    untraced = run_cycles(
        lambda argv, cycle: cli.main(argv), calls, probe, seconds * share, outcome
    )
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cycles(
            lambda argv, cycle: tracer.call(cli.main, argv, cycle),
            calls, probe, seconds * (1 - share), outcome, wall_clock=True, after=tracer.replay,
        )
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    metrics = {k: (v, LAYER_METRICS[k]) for k, v in tracer.layer_metrics().items()}
    overhead = 1.0 - calls_per_s(traced) / calls_per_s(untraced)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    notes = [
        f"traced {len(traced)} calls in {len(traced) // len(calls)} cycles; "
        f"untraced reference {len(untraced)} calls",
        "per-layer times are unscaled seconds; the overhead compares scaled calls_per_s",
        f"spans written to {spans_path}",
    ]
    return metrics, notes


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "semiring_dp" / "cli.py").is_file():
        print(f"perfbench: no semiring_dp sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from semiring_dp import cli

    if Path(cli.__file__).resolve().parent != SRC / "semiring_dp":
        print(f"perfbench: imported semiring_dp from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choices: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    outcome = Outcome()
    probe = Probe()
    try:
        cpu = pin_to_fastest_cpu(probe)
        calls = workloads.build(args.workload, args.seed, run_dir)
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-s{args.seed}.jsonl"
            metrics, notes = per_layer(cli, calls, probe, args.seconds, outcome, spans_path)
        else:
            metrics, notes = end_to_end(cli, calls, probe, args.seconds, outcome)
    finally:
        probe.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"pinned to CPU {cpu}")
    for note in notes:
        print(f"# {note}")
    for reason in outcome.failures[:20]:
        print(f"# FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
