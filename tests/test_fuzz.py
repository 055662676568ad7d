"""Differential fuzzing of the CLI against its own exhaustive oracle.

Small random inputs for every subcommand run with ``--verify``.  Each
run must end in a right answer (exit 0, oracle ``pass`` or ``skipped``)
or a named data error (exit 2), or, for a malformed flag (a count or
length below 1, or a ``--count-range`` whose LO exceeds HI), a usage
error (exit 1); never an oracle ``fail``, a traceback or another exit
code.  The draws are derandomized, so the run is repeatable.  The
output writer is fuzzed the same way, over the kinds of file that
``--out`` and ``--out-table`` can name.
"""

import contextlib
import io
import json
import os
import stat

from hypothesis import given, settings
from hypothesis import strategies as st

from semiring_dp import SegmentCostModel, SegmentCosts, TimeSeries
from semiring_dp.cli import EXIT_INTERNAL, main

SELECTIVE = ("bool", "minplus", "maxplus", "maxprod", "bottleneck")
ACCEPTED = ("count", "prob", "softmax", *SELECTIVE) + tuple(f"viterbi:{b}" for b in SELECTIVE)
REJECTED = (
    "expectation", "viterbi:expectation", "viterbi:count", "viterbi:prob", "viterbi:softmax"
)

FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None)

small_ints = st.integers(min_value=0, max_value=10)


def check_run(tmp_path_factory, files: dict, argv: list, want_codes: tuple):
    """Write ``files``, run the CLI on ``argv`` (names as paths), check and return its exit code."""
    work = tmp_path_factory.mktemp("fuzz")
    for name, text in files.items():
        (work / name).write_text(text)
    out = work / "result.json"
    args = [str(work / a) if a in files else a for a in argv]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([*args, "--verify", "--out", str(out)])
    assert "Traceback" not in stderr.getvalue()
    assert code != EXIT_INTERNAL, stderr.getvalue()
    assert code in want_codes, (argv, files, stderr.getvalue())
    if code == 0:
        assert json.loads(out.read_text())["oracle_check"]["status"] in ("pass", "skipped")
    elif code == 2:
        assert stderr.getvalue().startswith("semiring-dp: data error:")
    else:  # a malformed flag, named on argparse's last line
        assert stderr.getvalue().splitlines()[-1].startswith(f"semiring-dp {argv[0]}: error:")
    return code


def column(values) -> str:
    return "".join(f"{float(v)!r}\n" for v in values)


segment_constraints = st.one_of(
    st.just([]),
    small_ints.map(lambda c: ["--count", str(c)]),
    st.tuples(small_ints, small_ints).map(lambda r: ["--count-range", str(r[0]), str(r[1])]),
    small_ints.map(lambda m: ["--min-length", str(m)]),
)


@FUZZ
@given(
    values=st.lists(st.integers(-40, 40).map(lambda k: k / 4), max_size=9),
    constraint=segment_constraints,
    semiring=st.sampled_from(ACCEPTED),
    model=st.sampled_from(("constant", "linear")),
    lam=st.sampled_from(("0", "0.5")),
)
def test_segment(tmp_path_factory, values, constraint, semiring, model, lam):
    argv = ["segment", "y.csv", *constraint, "--semiring", semiring, "--model", model]
    argv += ["--lambda", lam]
    bounds = [int(v) for v in constraint[1:]]
    # a count or length below 1, or a --count-range whose LO exceeds HI
    malformed = bool(bounds) and (min(bounds) < 1 or bounds[0] > bounds[-1])
    code = check_run(tmp_path_factory, {"y.csv": column(values)}, argv,
                     (1,) if malformed else (0, 2))
    if code == 0 and semiring.endswith("bottleneck"):
        # bottleneck's carrier is [0, 1], and the one-segment weight is the largest
        cost_model = SegmentCostModel(model, regularization=float(lam))
        costs = SegmentCosts(TimeSeries(values), cost_model)
        assert costs.weight(1, len(values)) <= 1


align_caps = st.one_of(
    st.just([]),
    st.integers(0, 8).map(lambda c: ["--sum-misalign", str(c)]),
    st.integers(0, 6).map(lambda c: ["--max-misalign", str(c)]),
)
sequences = st.text(alphabet="ACG", max_size=5)
# prefix sizes for a timing table, longer ones a data error
sweeps = st.one_of(
    st.just([]),
    st.lists(st.integers(1, 5), min_size=1, max_size=3).map(
        lambda sizes: ["--sweep", ",".join(map(str, sizes))]
    ),
)


# finite, signed-zero and infinite costs; in and outside each semiring's carrier
costs = st.sampled_from(("0", "0.25", "1", "2", "-1", "-0.0", "inf", "-inf"))


@FUZZ
@given(a=sequences, b=sequences, cap=align_caps, semiring=st.sampled_from(ACCEPTED),
       sweep=sweeps, gap=costs, mismatch=costs)
def test_align(tmp_path_factory, a, b, cap, semiring, sweep, gap, mismatch):
    # the = form, since argparse would read -inf or -1 as a flag
    argv = ["align", "a.txt", "b.txt", *cap, "--semiring", semiring, *sweep,
            f"--gap-cost={gap}", f"--mismatch-cost={mismatch}"]
    check_run(tmp_path_factory, {"a.txt": a + "\n", "b.txt": b + "\n"}, argv, (0, 2))


@FUZZ
@given(
    probs=st.lists(st.sampled_from((0.0, 1e-9, 0.01, 0.2, 0.5, 0.7, 0.99, 1.0)), max_size=10),
    occurrences=st.integers(0, 11),
    mode=st.sampled_from(("exact", "viterbi")),
)
def test_events(tmp_path_factory, probs, occurrences, mode):
    argv = ["events", "p.txt", "-M", str(occurrences), "--mode", mode]
    check_run(tmp_path_factory, {"p.txt": column(probs)}, argv, (0, 2))


@FUZZ
@given(
    values=st.lists(st.integers(0, 7), max_size=10),
    relation=st.sampled_from(("lt", "le", "subset-demo")),
)
def test_lis(tmp_path_factory, values, relation):
    argv = ["lis", "u.txt", "--relation", relation]
    check_run(tmp_path_factory, {"u.txt": column(values)}, argv, (0, 2))


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(semiring=st.sampled_from(REJECTED), command=st.sampled_from(("segment", "align")))
def test_rejected_semirings(tmp_path_factory, semiring, command):
    files = {"y.csv": "1\n2\n", "a.txt": "AC\n", "b.txt": "AG\n"}
    inputs = ["y.csv"] if command == "segment" else ["a.txt", "b.txt"]
    check_run(tmp_path_factory, files, [command, *inputs, "--semiring", semiring], (2,))


# --- output targets -----------------------------------------------------------------

TARGETS = ("absent", "file-600", "file-644", "symlink", "dangling-symlink", "directory",
           "below-missing-directory", "below-file", "/dev/null", "other")


def make_target(work, kind: str, label: str) -> str:
    """Create an output target of one kind in ``work``; ``label`` keeps the two flags' apart."""
    path = work / f"{label}.out"
    if kind.startswith("file-"):
        path.write_text(f"old {label}\n")
        path.chmod(int(kind[5:], 8))
    elif kind == "symlink":
        (work / f"{label}.real").write_text(f"old {label}\n")
        path.symlink_to(work / f"{label}.real")
    elif kind == "dangling-symlink":
        path.symlink_to(work / f"{label}.gone")
    elif kind == "directory":
        path.mkdir()
    elif kind == "below-missing-directory":
        path = work / "missing" / f"{label}.out"
    elif kind == "below-file":
        path = work / "y.csv" / f"{label}.out"
    elif kind == "/dev/null":
        return os.devnull
    return str(path)


def snapshot(work) -> dict:
    """Every entry below ``work``: its mode and its bytes, or its link's target."""
    found = {}
    for root, dirs, files in os.walk(work):
        for name in dirs + files:
            path = os.path.join(root, name)
            mode = os.lstat(path).st_mode
            if stat.S_ISLNK(mode):
                found[path] = (mode, os.readlink(path))
            elif stat.S_ISREG(mode):
                with open(path, "rb") as f:
                    found[path] = (mode, f.read())
            else:
                found[path] = (mode, None)
    return found


@FUZZ
@given(doc_kind=st.sampled_from(TARGETS), table_kind=st.sampled_from(TARGETS))
def test_output_targets(tmp_path_factory, doc_kind, table_kind):
    # every outcome is the written outputs (exit 0) or one data error that
    # leaves the work directory exactly as it was (exit 2), never a temporary
    work = tmp_path_factory.mktemp("outputs").resolve()  # real paths, as the writer sees them
    (work / "y.csv").write_text(column([1.0, 4.0, 2.0, 8.0, 0.5, 1.5]))
    if doc_kind == table_kind == "other":  # both name one absent file
        doc = table = str(work / "shared.out")
    elif doc_kind == "other":
        doc = table = make_target(work, table_kind, "table")
    else:
        doc = make_target(work, doc_kind, "doc")
        table = doc if table_kind == "other" else make_target(work, table_kind, "table")
    before = snapshot(work)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["segment", str(work / "y.csv"), "--count", "2", "--out", doc,
                     "--out-table", table])
    assert "Traceback" not in stderr.getvalue()
    assert code in (0, 2), stderr.getvalue()
    after = snapshot(work)
    assert not [path for path in after if path.endswith(".tmp")]
    assert stdout.getvalue() == ""
    if code == 2:
        assert stderr.getvalue().startswith("semiring-dp: data error:")
        assert len(stderr.getvalue().splitlines()) == 1
        assert after == before
        return
    assert stderr.getvalue() == ""
    for path, check in ((doc, lambda text: json.loads(text)["command"] == "segment"),
                        (table, lambda text: text.startswith("index,value,fit,segment\n"))):
        if os.path.isfile(path):  # a regular file, once links are followed
            with open(path) as f:
                assert check(f.read())
            real = os.path.realpath(path)
            if real in before:
                assert os.stat(real).st_mode == before[real][0]
