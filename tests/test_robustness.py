"""Runs that used to give a wrong answer, a traceback or a misleading error.

Every case here must now give either a right answer or a named data
error: exit 2 with exactly one ``semiring-dp: data error:`` line.
"""

import json
import math
import os
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

import semiring_dp as sd
from semiring_dp.cli import main

ACCEPTED_BASES = ("bool", "minplus", "maxplus", "maxprod", "bottleneck")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_data_error(err, *words):
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("semiring-dp: data error:")
    for word in words:
        assert word in lines[0]


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "a.txt").write_text("GATTA\n")
    (tmp_path / "b.txt").write_text("GCTAC\n")
    (tmp_path / "y.csv").write_text("1.0\n4.0\n2.0\n8.0\n0.5\n1.5\n")
    return tmp_path


# --- semirings the CLI cannot run correctly ------------------------------------


@pytest.mark.parametrize(
    "name",
    ["viterbi:count", "viterbi:prob", "viterbi:softmax", "viterbi:expectation", "expectation"],
)
@pytest.mark.parametrize("command", ["segment", "align"])
def test_unsound_semirings_are_data_errors(capsys, inputs, command, name):
    files = ["y.csv"] if command == "segment" else ["a.txt", "b.txt"]
    argv = [command, *(str(inputs / f) for f in files), "--semiring", name, "--verify"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert_one_data_error(err, name, *ACCEPTED_BASES)


def test_selective_semirings_are_the_accepted_witness_bases():
    assert sd.semirings.SELECTIVE_SEMIRINGS == ACCEPTED_BASES
    catalog = sd.standard_semirings()
    for name, s in catalog.items():  # selective: add returns one of its operands
        if name == "expectation":
            continue
        a, b = (False, True) if name == "bool" else (1, 2) if name == "count" else (0.25, 0.75)
        picks = s.add(a, b) in (a, b) and s.add(b, a) in (a, b)
        assert picks == (name in ACCEPTED_BASES), name


# --- live scores below the float tolerance --------------------------------------


def test_viterbi_add_keeps_a_live_score_below_the_tolerance():
    base = sd.max_product_semiring()
    for vit, witness in (
        (sd.viterbi_simple_semiring(base), ("x",)),
        (sd.viterbi_semiring(base), frozenset({("x",)})),
    ):
        live = sd.Scored(1e-15, witness)
        assert vit.add(vit.zero, live) == live
        assert vit.add(live, vit.zero) == live


def test_viterbi_events_below_the_tolerance():
    vit = sd.viterbi_simple_semiring(sd.max_product_semiring())
    pairs = [(sd.Scored(0.99, ()), sd.Scored(0.01, (k,))) for k in range(1, 15)]
    best = sd.events_m_of_n(pairs, 7, vit)
    assert best.score == pytest.approx(0.01**7 * 0.99**7, rel=1e-12)
    assert len(best.witness) == 7

    # distinct tiny scores must still rank: the optimum takes the M largest odds
    probs = np.random.default_rng(5).uniform(0.0, 0.01, 300)
    pairs = [(sd.Scored(1 - p, ()), sd.Scored(p, (k,))) for k, p in enumerate(probs, start=1)]
    best = sd.events_m_of_n(pairs, 12, vit)
    top = np.sort(np.argsort(probs)[-12:])
    assert list(best.witness) == list(top + 1)
    odds = probs[top] / (1 - probs[top])
    assert best.score == pytest.approx(np.prod(1 - probs) * np.prod(odds), rel=1e-9)


def test_cli_viterbi_events_below_the_tolerance_verify(capsys, tmp_path):
    probs = tmp_path / "p.txt"
    probs.write_text("0.01\n" * 14)
    out = tmp_path / "r.json"
    argv = ["events", str(probs), "-M", "7", "--mode", "viterbi", "--verify", "--out", str(out)]
    code, _, err = run(capsys, argv)
    assert code == 0, err
    doc = json.loads(out.read_text())
    assert doc["result"] == pytest.approx(0.01**7 * 0.99**7, rel=1e-9)
    assert len(doc["witness"]) == 7
    assert doc["oracle_check"]["status"] == "pass"


# --- segment costs that overflow ----------------------------------------------------


@pytest.mark.parametrize("name", ["minplus", "viterbi:minplus", "prob"])
def test_overflowing_segment_costs_are_named(capsys, tmp_path, name):
    path = tmp_path / "huge.csv"
    path.write_text("1e200\n-1e200\n3e200\n1e200\n-2e200\n5e199\n")
    code, out, err = run(capsys, ["segment", str(path), "--count", "2", "--semiring", name])
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "overflow")


def test_segment_costs_reject_overflowing_samples():
    model = sd.SegmentCostModel()
    with pytest.raises(ValueError, match="overflow"):
        sd.SegmentCosts(sd.TimeSeries([6e153] * 4), model)
    costs = sd.SegmentCosts(sd.TimeSeries(np.linspace(-1e100, 1e100, 50)), model)
    assert np.isfinite(costs.cost(1, 50))


# --- lis on non-finite values ---------------------------------------------------------


@pytest.mark.parametrize("text", ["nan\n", "1\nnan\n2\n", "3\ninf\n", "-inf\n"])
def test_lis_non_finite_values_are_data_errors(capsys, tmp_path, text):
    path = tmp_path / "u.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["lis", str(path)])
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "finite")


# --- solutions that all score the base zero -------------------------------------------


@pytest.mark.parametrize("base", ["maxprod", "bottleneck"])
def test_zero_scoring_alignments_are_not_called_infeasible(capsys, inputs, base):
    # equal strings under a zero summed-gap cap: only the all-match path, and a match costs 0
    same = inputs / "a.txt"
    argv = ["align", str(same), str(same), "--semiring", f"viterbi:{base}", "--sum-misalign", "0"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "satisfies the constraint", f"zero of {base}")
    assert "infeasible" not in err


def test_infeasible_alignment_constraint_is_still_named(capsys, tmp_path):
    (tmp_path / "a.txt").write_text("A\n")
    (tmp_path / "b.txt").write_text("AC\n")
    argv = ["align", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
            "--semiring", "viterbi:maxprod", "--sum-misalign", "0"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert_one_data_error(err, "constraint infeasible")


def test_zero_scoring_segmentations_are_not_called_infeasible(capsys, tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("1.0\n2.0\n")  # every cover fits a line exactly: cost 0
    code, out, err = run(capsys, ["segment", str(path), "--semiring", "viterbi:maxprod"])
    assert code == 2
    assert_one_data_error(err, "every segmentation scores the zero of maxprod")


# --- summed-gap caps beyond any alignment's total ---------------------------------------


def test_huge_sum_misalign_cap_is_clamped(tmp_path):
    (tmp_path / "a.txt").write_text("GATT\n")
    (tmp_path / "b.txt").write_text("GCTA\n")
    docs = {}
    for cap in (300_000, (4 + 4) * 4):
        out = tmp_path / f"cap{cap}.json"
        start = time.perf_counter()
        code = main(["align", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
                     "--semiring", "viterbi:minplus", "--sum-misalign", str(cap),
                     "--out", str(out)])
        assert code == 0
        assert time.perf_counter() - start < 1.0
        docs[cap] = json.loads(out.read_text())
    huge, bound = docs[300_000], docs[32]
    assert huge["config"]["constraint"] == {"kind": "sum", "cap": 300_000}
    assert (huge["result"], huge["witness"]) == (bound["result"], bound["witness"])
    assert huge["op_counts"] == bound["op_counts"]


# --- sweep prefixes shorter than a largest-gap cap ---------------------------------------


def test_sweep_prefixes_shorter_than_the_max_misalign_cap_run(capsys, tmp_path):
    # a size-3 prefix once asked nw_align_max_constrained for cap 5: exit 4, a traceback
    (tmp_path / "a.txt").write_text("GATTACA\n")
    (tmp_path / "b.txt").write_text("GCTACCA\n")
    table = tmp_path / "sweep.csv"
    code, out, err = run(capsys, ["align", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
                                  "--max-misalign", "5", "--sweep", "1,3,7",
                                  "--out-table", str(table)])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert [row[0] for row in doc["sweep"]] == [1, 3, 7]
    assert len(table.read_text().splitlines()) == 4
    for size, add, mul, _ in doc["sweep"]:  # the plain fold's op counts, at every cap
        counted, counts = sd.instrumented(sd.minplus_semiring())
        sd.nw_align(sd.AlignmentProblem(size, size, lambda i, j: 1.0), counted)
        assert (add, mul) == (counts.add, counts.mul), size


# --- nan costs and nan fold results ---------------------------------------------------


@pytest.mark.parametrize("flag", ["--gap-cost", "--mismatch-cost"])
def test_nan_alignment_costs_are_data_errors(capsys, inputs, flag):
    argv = ["align", str(inputs / "a.txt"), str(inputs / "b.txt"), flag, "nan"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert_one_data_error(err, flag, "nan")


def test_nan_lambda_is_a_data_error(capsys, inputs):
    code, out, err = run(capsys, ["segment", str(inputs / "y.csv"), "--lambda", "nan"])
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "regularization")


@pytest.mark.parametrize("field", ["regularization", "error_exponent"])
def test_segment_cost_model_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        sd.SegmentCostModel(**{field: math.nan})


@pytest.mark.parametrize("constraint", [[], ["--sum-misalign", "3"], ["--max-misalign", "2"]])
def test_nan_fold_results_are_named(capsys, inputs, constraint):
    # an infinite gap cost would meet a zero-probability path (inf * 0.0 is nan);
    # it is refused before the fold, as a cost outside the carrier of prob
    argv = ["align", str(inputs / "a.txt"), str(inputs / "b.txt"),
            "--semiring", "prob", "--gap-cost", "inf", *constraint]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "--gap-cost", "prob", "carrier")


@pytest.mark.parametrize("constraint", [[], ["--sum-misalign", "3"], ["--max-misalign", "2"]])
def test_overflowing_fold_results_are_named(capsys, inputs, constraint):
    # finite costs whose products overflow to inf, which a match's weight 0.0 turns into nan
    argv = ["align", str(inputs / "a.txt"), str(inputs / "b.txt"),
            "--semiring", "prob", "--gap-cost", "1e300", *constraint]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "prob fold gave nan")


# a cost c lies in a semiring's carrier when c times zero is zero, as every fold assumes
OUTSIDE_CARRIER = [("prob", "inf"), ("minplus", "-inf"), ("maxplus", "inf"), ("maxprod", "inf"),
                   ("softmax", "-inf"), ("bottleneck", "-0.5"), ("viterbi:bottleneck", "-0.5")]


@pytest.mark.parametrize("flag", ["--gap-cost", "--mismatch-cost"])
@pytest.mark.parametrize("name, cost", OUTSIDE_CARRIER, ids=[c[0] for c in OUTSIDE_CARRIER])
def test_alignment_costs_outside_the_carrier_are_data_errors(capsys, inputs, name, cost, flag):
    # the parent answered some of these (bottleneck with -0.5 gave -0.5) and met
    # nan in others; the max-gap filter multiplies by zero, so it met nan more often
    for constraint in ([], ["--max-misalign", "1"]):
        argv = ["align", str(inputs / "a.txt"), str(inputs / "b.txt"), "--semiring", name,
                f"{flag}={cost}", *constraint]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert_one_data_error(err, f"{flag} {float(cost)}", name.split(":")[-1], "carrier")


@pytest.mark.parametrize("name", ["count", "bool"])
def test_unit_weight_alignments_take_any_cost(capsys, inputs, name):
    # count and bool score every move with their unit, so the costs are never read
    argv = ["align", str(inputs / "a.txt"), str(inputs / "b.txt"), "--semiring", name,
            "--gap-cost=-inf", "--mismatch-cost=inf", "--verify"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["oracle_check"]["status"] == "pass"


# --- conflicting constraint flags -------------------------------------------------


@pytest.mark.parametrize(
    "command, flags",
    [
        ("segment", ["--count", "2", "--min-length", "3"]),
        ("segment", ["--count", "2", "--count-range", "1", "3"]),
        ("segment", ["--count-range", "1", "3", "--min-length", "3"]),
        ("align", ["--sum-misalign", "3", "--max-misalign", "1"]),
    ],
)
def test_conflicting_constraints_are_usage_errors(capsys, inputs, command, flags):
    # each pair used to exit 0 with one of the two constraints silently ignored
    files = ["y.csv"] if command == "segment" else ["a.txt", "b.txt"]
    code, out, err = run(capsys, [command, *(str(inputs / f) for f in files), *flags])
    assert code == 1
    assert out == ""
    assert "not allowed with argument" in err


@pytest.mark.parametrize("lo, hi", [(3, 2), (7, 1)])
def test_inverted_count_range_is_a_usage_error(capsys, inputs, lo, hi):
    # it used to be the data error "--count-range 3 2 infeasible for 6 samples"
    argv = ["segment", str(inputs / "y.csv"), "--count-range", str(lo), str(hi)]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"argument --count-range: LO {lo} exceeds HI {hi}" in err


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("segment", ["--count", "0"], "argument --count: must be at least 1, got 0"),
        ("segment", ["--count-range", "0", "2"], "argument --count-range: must be at least 1, got 0"),
        ("segment", ["--min-length", "0"], "argument --min-length: must be at least 1, got 0"),
        ("align", ["--sum-misalign", "-1"], "argument --sum-misalign: must be at least 0, got -1"),
        ("align", ["--max-misalign", "-2"], "argument --max-misalign: must be at least 0, got -2"),
        ("events", ["-M", "-1"], "argument -M/--occurrences: must be at least 0, got -1"),
    ],
)
def test_flags_no_input_could_satisfy_are_usage_errors(capsys, inputs, command, flags, message):
    # each used to be a data error (exit 2), as if a longer input could have met it
    (inputs / "p.txt").write_text("0.5\n0.25\n")
    files = {"segment": ["y.csv"], "align": ["a.txt", "b.txt"], "events": ["p.txt"]}[command]
    code, out, err = run(capsys, [command, *(str(inputs / f) for f in files), *flags])
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == f"semiring-dp {command}: error: {message}"


@pytest.mark.parametrize(
    "command, flags, words",
    [
        ("segment", ["--count", "7"], ["--count 7", "6 samples"]),
        ("segment", ["--min-length", "7"], ["--min-length 7", "6 samples"]),
        ("align", ["--max-misalign", "6"], ["--max-misalign 6"]),
    ],
)
def test_flags_longer_than_the_input_stay_data_errors(capsys, inputs, command, flags, words):
    files = ["y.csv"] if command == "segment" else ["a.txt", "b.txt"]
    code, out, err = run(capsys, [command, *(str(inputs / f) for f in files), *flags])
    assert code == 2
    assert out == ""
    assert_one_data_error(err, *words)


@pytest.mark.parametrize(
    "argv, words",
    [
        (["align", "a.txt", "b.txt", "--sweep", "9"], ["--sweep size 9"]),
        (["bench", "--op", "combinations", "--sizes", "2,x"], ["bad size list", "'2,x'"]),
        (["bench", "--op", "combinations", "--sizes", "0"], ["positive integers"]),
    ],
)
def test_bad_size_lists_are_data_errors(capsys, inputs, argv, words):
    argv = [str(inputs / a) if a.endswith(".txt") else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert_one_data_error(err, *words)


def test_count_range_longer_than_the_input_is_a_data_error(capsys, inputs):
    code, out, err = run(capsys, ["segment", str(inputs / "y.csv"), "--count-range", "2", "7"])
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "--count-range 2 7", "6 samples")


# --- unreadable inputs -------------------------------------------------------------


@pytest.mark.parametrize("command", ["segment", "align"])
def test_non_utf8_input_is_a_data_error(capsys, inputs, command):
    # a leading 0xff byte was a UnicodeDecodeError traceback with exit 1
    bad = inputs / "x.txt"
    bad.write_bytes(b"\xff1.0\n")
    argv = [command, str(bad)] + ([str(inputs / "b.txt")] if command == "align" else [])
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "cannot read", str(bad), "utf-8")


# --- output failures ----------------------------------------------------------------


@pytest.mark.parametrize(
    "flag, target, reason",
    [
        pytest.param("--out", "missing/result", None, id="--out"),
        pytest.param("--out-table", "missing/result", None, id="--out-table"),
        # stat of a path below a regular file fails with NotADirectoryError
        pytest.param("--out", "y.csv/x.json", "Not a directory", id="--out-below-a-file"),
    ],
)
def test_unwritable_output_is_a_data_error(capsys, inputs, flag, target, reason):
    target = str(inputs / target)
    argv = ["segment", str(inputs / "y.csv"), flag, target]
    if reason:  # the table, written alongside, must not be written either
        argv += ["--out-table", str(inputs / "t.csv")]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "cannot write", f"{target}: {reason}" if reason else target)
    assert not (inputs / "t.csv").exists()


def test_missing_table_is_refused_before_any_output(capsys, inputs, tmp_path):
    table = tmp_path / "t.csv"
    argv = ["segment", str(inputs / "y.csv"), "--semiring", "minplus", "--out-table", str(table)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert not table.exists()
    assert_one_data_error(err, "no tabular output")


def test_failed_document_write_leaves_no_table(capsys, inputs, tmp_path):
    # the table used to be written before the document's write failed
    table = tmp_path / "t.csv"
    argv = ["segment", str(inputs / "y.csv"), "--out", str(tmp_path / "nodir" / "x.json"),
            "--out-table", str(table)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "cannot write", "x.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt", "y.csv"]


def test_document_path_that_is_a_directory_leaves_no_table(capsys, inputs, tmp_path):
    table = tmp_path / "t.csv"
    (tmp_path / "adir").mkdir()
    argv = ["segment", str(inputs / "y.csv"), "--out", str(tmp_path / "adir"),
            "--out-table", str(table)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "cannot write", "adir", "directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "adir", "b.txt", "y.csv"]


def test_failed_table_write_leaves_no_document(capsys, inputs, tmp_path):
    doc = tmp_path / "x.json"
    argv = ["segment", str(inputs / "y.csv"), "--out", str(doc),
            "--out-table", str(tmp_path / "nodir" / "t.csv")]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "cannot write", "t.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt", "y.csv"]


def test_outputs_replace_existing_files_and_leave_no_temporaries(capsys, inputs, tmp_path):
    doc, table = tmp_path / "x.json", tmp_path / "t.csv"
    doc.write_text("old\n")
    table.write_text("old\n")
    argv = ["segment", str(inputs / "y.csv"), "--out", str(doc), "--out-table", str(table)]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (0, "", "")
    assert json.loads(doc.read_text())["command"] == "segment"
    assert table.read_text().startswith("index,value,fit,segment\n")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["a.txt", "b.txt", "t.csv", "x.json", "y.csv"]


def test_symlinked_outputs_update_the_files_they_point_to(capsys, inputs, tmp_path):
    # renaming over the link itself used to turn it into a regular file
    (tmp_path / "real").mkdir()
    doc, table = tmp_path / "real" / "x.json", tmp_path / "real" / "t.csv"
    doc.write_text("old\n")
    (tmp_path / "doc.json").symlink_to(doc)
    (tmp_path / "table.csv").symlink_to(table)  # dangling until the run writes it
    argv = ["segment", str(inputs / "y.csv"), "--out", str(tmp_path / "doc.json"),
            "--out-table", str(tmp_path / "table.csv")]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (0, "", "")
    assert (tmp_path / "doc.json").is_symlink() and (tmp_path / "table.csv").is_symlink()
    assert json.loads(doc.read_text())["command"] == "segment"
    assert table.read_text().startswith("index,value,fit,segment\n")
    assert sorted(p.name for p in (tmp_path / "real").iterdir()) == ["t.csv", "x.json"]


def test_fifo_output_is_written_not_replaced(capsys, inputs, tmp_path):
    fifo = tmp_path / "doc.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open without blocking
    try:
        code, out, err = run(capsys, ["segment", str(inputs / "y.csv"), "--out", str(fifo)])
        written = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert (code, out, err) == (0, "", "")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert json.loads(written)["command"] == "segment"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt", "doc.fifo", "y.csv"]


def test_replaced_output_keeps_its_permissions(capsys, inputs, tmp_path):
    doc = tmp_path / "x.json"
    doc.write_text("old\n")
    doc.chmod(0o600)
    code, out, err = run(capsys, ["segment", str(inputs / "y.csv"), "--out", str(doc)])
    assert (code, out, err) == (0, "", "")
    assert stat.S_IMODE(doc.stat().st_mode) == 0o600
    assert json.loads(doc.read_text())["command"] == "segment"


@pytest.mark.parametrize("link", [False, True])
def test_one_file_named_by_both_outputs_is_refused(capsys, inputs, tmp_path, link):
    # the table used to be written and then silently replaced by the document
    target = tmp_path / "same.out"
    table = target
    if link:
        table = tmp_path / "alias.out"
        table.symlink_to(target)
    argv = ["segment", str(inputs / "y.csv"), "--out", str(target), "--out-table", str(table)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert_one_data_error(err, "same.out")
    assert not target.exists()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(["a.txt", "b.txt", "y.csv"] + (["alias.out"] if link else []))


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_dev_stdout_writes_to_a_piped_stdout(inputs):
    # stdout as a pipe once resolved to a /proc path that does not exist: exit 2
    src = os.path.dirname(os.path.dirname(sd.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "semiring_dp.cli", "segment", str(inputs / "y.csv"),
         "--out", "/dev/stdout"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["command"] == "segment"



def run_cli_process(argv, **kwargs):
    """Run the CLI in a new interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(sd.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "semiring_dp.cli", *argv], stderr=subprocess.PIPE,
                          text=True, env=env, timeout=120, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_dev_stdout_appends_to_the_file_stdout_appends_to(inputs, tmp_path):
    # `--out /dev/stdout >> o.json` used to replace o.json, losing what it held
    target = tmp_path / "o.json"
    target.write_text("prior\n")
    with open(target, "a") as stdout:
        proc = run_cli_process(["segment", str(inputs / "y.csv"), "--out", "/dev/stdout"],
                               stdout=stdout)
    assert (proc.returncode, proc.stderr) == (0, "")
    prior, document = target.read_text().split("\n", 1)
    assert prior == "prior"
    assert json.loads(document)["command"] == "segment"


@pytest.mark.skipif(os.name != "posix", reason="closes descriptor 1 before exec")
def test_out_file_is_written_with_stdout_closed(inputs, tmp_path):
    # descriptor 1 closed at startup leaves sys.stdout None; --out needs neither
    target = tmp_path / "o.json"
    proc = run_cli_process(["segment", str(inputs / "y.csv"), "--out", str(target)],
                           preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(target.read_text())["command"] == "segment"


@pytest.mark.skipif(os.name != "posix", reason="closes descriptor 1 before exec")
def test_document_to_a_closed_stdout_is_a_data_error(inputs, tmp_path):
    # sys.stdout is None here; writing to it was an AttributeError traceback
    # with exit 4, after the table had been written
    table = tmp_path / "t.csv"
    proc = run_cli_process(["segment", str(inputs / "y.csv"), "--out-table", str(table)],
                           preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert_one_data_error(proc.stderr, "stdout is closed")
    assert not table.exists()
