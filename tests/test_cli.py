import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semiring_dp import cli
from semiring_dp.cli import canonical_json, format_float, main
from semiring_dp.pathsets import PathSet, generator_semiring
from semiring_dp.semirings import Semiring


def run_cli(tmp_path, *argv):
    out = tmp_path / "result.json"
    code = main([*argv, "--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc, out


def write_column(tmp_path, name, values, header=None):
    path = tmp_path / name
    lines = ([header] if header else []) + [repr(float(v)) for v in values]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# --- canonical JSON -----------------------------------------------------------


def test_format_float_is_idempotent():
    for x in (0.1, 1 / 3, 123456.789, 1e-7, -2.5e17, 0.375, math.pi, -0.0):
        s = format_float(x)
        assert format_float(float(json.loads(s))) == s
        assert len(s.replace("-", "").replace(".", "").split("e")[0].lstrip("0")) <= 12


def test_canonical_json_round_trip():
    doc = {
        "b": [1, 2.5, "x", None, True],
        "a": {"nested": {"z": 0.1, "y": -1e-7, "x": -0.0}},
    }
    text = canonical_json(doc)
    assert canonical_json(json.loads(text)) == text
    assert text.index('"a"') < text.index('"b"')


def test_result_documents_round_trip(tmp_path):
    probs = write_column(tmp_path, "p.txt", [0.5, 0.5, 0.5, 0.5])
    code, doc, out = run_cli(tmp_path, "events", probs, "-M", "2")
    assert code == 0
    assert canonical_json(doc) + "\n" == out.read_text()


def test_documents_with_a_negative_zero_round_trip(tmp_path, capsys):
    values = write_column(tmp_path, "v.txt", [3, -0.0, 0.0, 2])
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text("GATTA\n")
    second.write_text("GCTAC\n")
    for argv, zero in ((["lis", values], "witness"),
                       (["align", str(first), str(second), "--gap-cost", "-0.0"], "config")):
        assert main([*argv, "--verify"]) == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert canonical_json(doc) + "\n" == text
        assert "-0.0" in json.dumps(doc[zero]), argv


@pytest.mark.parametrize("option", ["--gap-cost", "--mismatch-cost", "--lambda"])
def test_negative_float_options_in_any_notation_are_values(tmp_path, capsys, option):
    """A negative value after its option reads as ``--option=value`` does, in any float notation."""
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text("GATTA\n")
    second.write_text("GCTAC\n")
    series = write_column(tmp_path, "y.csv", [1.0, 4.0, 2.0, 8.0, 0.5, 1.5])
    argv = (["segment", series, "--count", "2"] if option == "--lambda"
            else ["align", str(first), str(second), "--semiring", "maxplus"])
    for value in ("-1e5", "-2.5E-1", "-inf"):
        runs = []
        for tail in ([option, value], [f"{option}={value}"]):
            code = main([*argv, *tail])
            out, err = capsys.readouterr()
            doc = json.loads(out) if out else None
            if doc:
                doc.pop("wall_time_s")
            runs.append((code, doc, err))
        assert runs[0] == runs[1], (option, value)
        assert runs[0][0] != cli.EXIT_USAGE, (option, value, runs[0][2])


# --- segment ------------------------------------------------------------------


def test_segment_count_recovers_three_pieces(tmp_path):
    rng = np.random.default_rng(42)
    n = 150
    x = np.arange(1, n + 1, dtype=float)
    signal = np.where(
        x <= 50, 0.05 * x, np.where(x <= 100, 30 - 0.05 * x, 0.08 * x + 20)
    )
    noise = rng.normal(0, 1.0, n)
    path = write_column(tmp_path, "sig.csv", signal + noise)
    code, doc, _ = run_cli(tmp_path, "segment", path, "--count", "3", "--model", "linear")
    assert code == 0
    segments = doc["witness"]
    assert len(segments) == 3
    breakpoints = [seg[1] for seg in segments[:-1]]
    assert abs(breakpoints[0] - 50) <= 2
    assert abs(breakpoints[1] - 100) <= 2
    assert doc["breakpoints"] == breakpoints


def test_segment_single_segment_cases(tmp_path):
    path = write_column(tmp_path, "y.csv", np.linspace(0, 3, 12))
    code, doc, _ = run_cli(
        tmp_path, "segment", path, "--lambda", "0", "--count", "1", "--verify"
    )
    assert code == 0
    assert doc["witness"] == [[1, 12]]
    assert doc["oracle_check"]["status"] == "pass"

    code, doc, _ = run_cli(tmp_path, "segment", path, "--min-length", "12", "--verify")
    assert code == 0
    assert doc["witness"] == [[1, 12]]
    assert doc["oracle_check"]["status"] == "pass"


def test_segment_verify_passes_with_count_semiring(tmp_path):
    path = write_column(tmp_path, "y.csv", [1.0, 4.0, 2.0, 8.0, 0.5, 1.5])
    code, doc, _ = run_cli(
        tmp_path, "segment", path, "--semiring", "count", "--count-range", "2", "4",
        "--verify",
    )
    assert code == 0
    # covers of 6 samples with 2..4 segments: C(5,1)+C(5,2)+C(5,3)
    assert doc["result"] == 5 + 10 + 10
    assert doc["oracle_check"]["status"] == "pass"


def test_segment_list_route_reads_scalar_costs_and_builds_no_column(tmp_path, monkeypatch):
    # a list-route fold and the --verify oracle read scalar costs, each an O(1) closed form
    # in any order: no cost column is built, and no fit without --out-table.  The reads are
    # the one-segment weight's check, each weight the fold reads, and each label's weight
    # once for the oracle unless it is skipped
    built, reads, fits = [], [], []
    column = cli.SegmentCosts._cost_column
    monkeypatch.setattr(cli.SegmentCosts, "_cost_column",
                        lambda self, j: built.append(j) or column(self, j))
    build, fit = cli.SegmentCosts, cli.piecewise_values

    def recording(*args):
        costs = build(*args)
        weight = costs.weight
        costs.weight = lambda i, j: reads.append((i, j)) or weight(i, j)
        return costs

    monkeypatch.setattr(cli, "SegmentCosts", recording)
    monkeypatch.setattr(cli, "piecewise_values", lambda *a: fits.append(1) or fit(*a))
    rng = np.random.default_rng(21)
    for n, extra, status, fold_reads in (
            (14, ("--count", "3"), "pass", 105), (14, ("--lambda", "0.5"), "pass", 105),
            (16, ("--count", "3"), "skipped", 136), (14, ("--min-length", "2"), "pass", 91)):
        path = write_column(tmp_path, f"y{n}.txt", rng.normal(0.0, 1.0, n))
        reads.clear()
        code, doc, _ = run_cli(tmp_path, "segment", path, *extra, "--verify")
        assert (code, doc["oracle_check"]["status"]) == (0, status)
        oracle = sorted(reads[1 + fold_reads:])
        assert reads[0] == (1, n) and len(reads) == 1 + fold_reads + len(oracle), (n, extra)
        want = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        assert oracle == (want if status == "pass" else []), (n, extra)
    assert built == [] and fits == []
    # a table is the fit's
    code = main(["segment", path, "--count", "2", "--out", str(tmp_path / "o.json"),
                 "--out-table", str(tmp_path / "t.csv")])
    assert (code, built, fits) == (0, [], [1])


def test_segment_columns_read_no_scalar_weight(tmp_path, monkeypatch):
    # on the column route the folds over a min/max base read each weight column whole, as
    # a score array: the one-segment weight's check is the only scalar weight read, where
    # the list route read every weight, and the document is the list route's
    calls = []
    build = cli.SegmentCosts

    def recording(*args):
        costs = build(*args)
        weight = costs.weight
        costs.weight = lambda i, j: calls.append((i, j)) or weight(i, j)
        return costs

    monkeypatch.setattr(cli, "SegmentCosts", recording)
    n = 60
    path = write_column(tmp_path, "y.txt", np.random.default_rng(24).normal(0.0, 1.0, n))
    for extra in ((), ("--count", "3"), ("--count-range", "2", "4"), ("--min-length", "4"),
                  ("--semiring", "minplus"), ("--semiring", "viterbi:maxplus")):
        docs = []
        for arrays in (True, False):  # the array route, then the list route
            monkeypatch.setattr(cli, "array_route", lambda list_s, array_s: arrays)
            calls.clear()
            code, doc, _ = run_cli(tmp_path, "segment", path, *extra)
            assert code == 0, extra
            del doc["wall_time_s"]
            docs.append(doc)
            assert (calls == [(1, n)]) == arrays, (extra, len(calls))
        assert docs[0] == docs[1], extra


def test_segment_table_output(tmp_path):
    path = write_column(tmp_path, "y.csv", [0.0, 0.0, 5.0, 5.0])
    table = tmp_path / "fit.csv"
    code = main(
        ["segment", path, "--count", "2", "--model", "constant",
         "--out", str(tmp_path / "r.json"), "--out-table", str(table)]
    )
    assert code == 0
    rows = table.read_text().strip().splitlines()
    assert rows[0] == "index,value,fit,segment"
    assert len(rows) == 5
    assert rows[1].split(",")[3] == "1" and rows[4].split(",")[3] == "2"


def test_segment_header_and_comments(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("value\n# a comment\n1.0\n2.0\n9.0\n")
    code, doc, _ = run_cli(
        tmp_path, "segment", str(path), "--header", "--count", "1", "--model", "constant"
    )
    assert code == 0
    assert doc["witness"] == [[1, 3]]


def test_segment_malformed_csv_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\nnot-a-number\n")
    code = main(["segment", str(path), "--count", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.csv:2" in err


def _read_line_by_line(path, header):
    """The reference reader: each line stripped, numbered, skipped or parsed in turn."""
    values, skip_pending = [], header
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if skip_pending:
            skip_pending = False
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise cli.DataError(f"{path}:{lineno}: not a number: {line!r}") from None
    return values


def _read_outcome(read, path, header):
    """The values read, by their bits, or the data error's message."""
    try:
        return [v.hex() for v in read(path, header=header)]
    except cli.DataError as exc:
        return str(exc)


READ_CASES = {
    "comments": ["# a comment\n1.0\n  # indented\n#\n2.5\n\t#tabbed\n-3e-7\n# last",
                 "#\n#\n", "  ##x\n4\n"],
    "blank-lines": ["\n\n1.0\n   \n\t\n2.0\n\n", "1.0\r\n\r\n2.0\r\n", "\x0c1.0\x0c\n\x0b\n3",
                    "", "\n \n", " 7 \u2028 8 \n\u00a09\u00a0"],
    "header": ["value\n1.0\n2.0\n", "\n# note\n  value \n\n1.0\n", "1.0\n2.0\n", "value\n",
               "# only a comment\n", "value\nnot-a-number\n", "\n\nvalue\n\n# c\nx\n"],
    "errors": ["1.0\nnot-a-number\n", "# c\n\n  bad  \n1.0\n", "1.0 2.0\n", "3.0 # trailing\n",
               "1.0\n2.0\n\n#\n0x10\n", "'1'\n", "1.0\n\u00e9\n", "nan\ninf\n-inf\n1_000\nx\ny\n"],
}


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("case", sorted(READ_CASES))
def test_read_numeric_column_is_the_line_by_line_reader(tmp_path, case, header):
    # comments, blank lines, --header and every error message as the reference reads them
    for k, text in enumerate(READ_CASES[case]):
        path = tmp_path / f"{case}-{k}.txt"
        path.write_text(text, encoding="utf-8")
        want = _read_outcome(_read_line_by_line, str(path), header)
        assert _read_outcome(cli.read_numeric_column, str(path), header) == want, (text, header)


def test_read_numeric_column_random_files_are_the_line_by_line_reader(tmp_path):
    rng = random.Random(35)
    pool = ["1.0", " -2.5 ", "\t3e-7", "nan", "inf", "# c", "  #", "", "   ", "x", "1.0 2.0",
            "value", "1_0", "0x1", "\u00a05\u00a0"]
    path = tmp_path / "r.txt"
    for _ in range(400):
        lines = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        path.write_text(rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"]),
                        encoding="utf-8")
        for header in (False, True):
            want = _read_outcome(_read_line_by_line, str(path), header)
            assert _read_outcome(cli.read_numeric_column, str(path), header) == want, lines


def test_segment_infeasible_constraint_is_data_error(tmp_path):
    path = write_column(tmp_path, "y.csv", [1.0, 2.0])
    assert main(["segment", str(path), "--count", "5"]) == 2


# --- align ----------------------------------------------------------------------


def test_align_identical_sequences_cost_zero(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("ACGT")
    b.write_text("ACGT")
    code, doc, _ = run_cli(tmp_path, "align", str(a), str(b), "--verify")
    assert code == 0
    assert doc["result"] == 0
    assert doc["oracle_check"]["status"] == "pass"


def test_align_count_paths_is_delannoy(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("ab")
    b.write_text("xy")
    code, doc, _ = run_cli(tmp_path, "align", str(a), str(b), "--count-paths", "--verify")
    assert code == 0
    assert doc["result"] == 13
    assert doc["oracle_check"]["status"] == "pass"


def test_align_max_misalign_zero_is_diagonal_cost(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("abcd")
    b.write_text("abxd")
    code, doc, _ = run_cli(
        tmp_path, "align", str(a), str(b), "--max-misalign", "0", "--verify"
    )
    assert code == 0
    assert doc["result"] == 1  # one mismatch on the forced diagonal
    assert doc["oracle_check"]["status"] == "pass"


def test_align_sum_misalign_verify(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("abcde")
    b.write_text("abde")
    code, doc, _ = run_cli(
        tmp_path, "align", str(a), str(b), "--sum-misalign", "3", "--verify"
    )
    assert code == 0
    assert doc["oracle_check"]["status"] == "pass"


def test_align_witness_and_tokens(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("the cat sat\n")
    b.write_text("the hat sat\n")
    code, doc, _ = run_cli(
        tmp_path, "align", str(a), str(b), "--tokens", "--semiring", "viterbi:minplus"
    )
    assert code == 0
    assert doc["result"] == 1
    moves = [tuple(m) for m in doc["witness"]]
    assert moves == [(1, 1), (2, 2), (3, 3)]


def test_align_sweep_table(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("abcdefgh")
    b.write_text("abcdefgh")
    table = tmp_path / "sweep.csv"
    code = main(
        ["align", str(a), str(b), "--sweep", "2,4,8",
         "--out", str(tmp_path / "r.json"), "--out-table", str(table)]
    )
    assert code == 0
    rows = table.read_text().strip().splitlines()
    assert rows[0] == "size,add_ops,mul_ops,seconds"
    assert len(rows) == 4
    doc = json.loads((tmp_path / "r.json").read_text())
    assert [r[0] for r in doc["sweep"]] == [2, 4, 8]


# --- events -----------------------------------------------------------------------


def test_events_examples(tmp_path):
    probs = write_column(tmp_path, "p.txt", [0.5, 0.5, 0.5, 0.5])
    code, doc, _ = run_cli(tmp_path, "events", probs, "-M", "2", "--verify")
    assert code == 0
    assert abs(doc["result"] - 0.375) < 1e-12
    assert doc["oracle_check"]["status"] == "pass"

    code, doc, _ = run_cli(tmp_path, "events", probs, "-M", "0")
    assert code == 0
    assert abs(doc["result"] - 0.5**4) < 1e-12


def test_events_viterbi_witness(tmp_path):
    probs = write_column(tmp_path, "p.txt", [0.9, 0.2, 0.7, 0.4])
    code, doc, _ = run_cli(
        tmp_path, "events", probs, "-M", "2", "--mode", "viterbi", "--verify"
    )
    assert code == 0
    assert doc["witness"] == [1, 3]
    assert len(doc["witness"]) == 2
    assert doc["oracle_check"]["status"] == "pass"


def test_events_probability_out_of_range(tmp_path):
    probs = write_column(tmp_path, "p.txt", [0.5, 1.5])
    assert main(["events", probs, "-M", "1"]) == 2


def test_events_documents_are_the_same_on_both_routes(tmp_path, monkeypatch, capsys):
    # the fold over a float array of pairs (the array route: a row of scores, and move
    # codes where witnesses are kept) and over a list of pairs: byte-identical documents,
    # witnesses, op counts and oracle checks included; every exact run exits 0, and a
    # viterbi run with no witness exits 2 with the same data error
    routes = []
    fold = cli.events_m_of_n

    def spy(pairs, m, s):  # the route of each counted fold, not of the reruns over bool
        if s.name != "bool":
            routes.append(type(pairs).__name__)
        return fold(pairs, m, s)

    monkeypatch.setattr(cli, "events_m_of_n", spy)
    rng = np.random.default_rng(26)
    edges = [0.0, 1.0, 5e-324, 1 - 1e-16, 0.5, 0.5, 0.5 * (1 + 2e-10)]
    inputs = {"edges.txt": edges + list(rng.uniform(0.0, 1.0, 5)),
              "small.txt": rng.uniform(0.0, 0.01, 300)}
    want = []  # the array route is asked for only when the fold has M <= N
    for (name, probs), mode in itertools.product(inputs.items(), ("exact", "viterbi")):
        path = write_column(tmp_path, name, probs)
        n = len(probs)
        for m in (0, 1, 2, 50, n - 1, n, n + 1):
            want += ["list", "ndarray" if m <= n else "list"]
            extra = ("--verify",) if n <= 12 else ()
            texts = []
            for arrays in (False, True):
                monkeypatch.setattr(cli, "array_route", lambda list_s, array_s: arrays)
                (tmp_path / "result.json").unlink(missing_ok=True)
                code, doc, _ = run_cli(tmp_path, "events", path, "-M", str(m), "--mode", mode,
                                       *extra)
                err = capsys.readouterr().err
                # no witness: every outcome scores zero, or none has M occurrences
                if code == 2 and mode == "viterbi":
                    texts.append(err)
                    continue
                assert code == 0, (name, m, err)
                if extra:
                    assert doc["oracle_check"]["status"] == "pass"
                doc.pop("wall_time_s")
                texts.append(canonical_json(doc))
            assert texts[0] == texts[1], (name, mode, m)
    assert routes == want


def test_array_routes_in_a_warm_process(tmp_path, monkeypatch):
    # with numpy loaded the rule weighs the folds alone: events take arrays from about 9
    # row entries per event when exact and about 7 when witnessed, summed gaps arrays
    # from a cap of 25 (26 lifted entries per hull cell), perfbench's sum190 (cap 16)
    # lists
    routes, answers = [], []
    events, gaps, rule = cli.events_m_of_n, cli.nw_align_sum_constrained, cli.array_route
    monkeypatch.setattr(cli, "events_m_of_n",
                        lambda pairs, *a: routes.append(type(pairs).__name__) or events(pairs, *a))
    monkeypatch.setattr(cli, "nw_align_sum_constrained",
                        lambda *a, arrays, **kw: routes.append(arrays) or gaps(*a, arrays=arrays,
                                                                             **kw))
    monkeypatch.setattr(cli, "array_route",
                        lambda list_s, array_s: answers.append(rule(list_s, array_s)) or answers[-1])
    rng = np.random.default_rng(7)
    probs = write_column(tmp_path, "p.txt", rng.uniform(0.0, 0.01, 2000))
    for mode, m in itertools.product(("exact", "viterbi"), (5, 50)):
        assert run_cli(tmp_path, "events", probs, "-M", str(m), "--mode", mode)[0] == 0

    def dna(name, n):
        (tmp_path / name).write_text("".join(rng.choice(list("ACGT"), n)) + "\n")
        return str(tmp_path / name)

    for n, cap in ((6, 6), (60, 8), (60, 16), (190, 16), (60, 24), (60, 25), (60, 60)):
        assert run_cli(tmp_path, "align", dna("a.txt", n), dna("b.txt", n),
                       "--sum-misalign", str(cap))[0] == 0
    assert routes == ["list", "ndarray", "list", "ndarray",
                      False, False, False, False, False, True, True]
    assert answers == [False, True, False, True, False, False, False, False, False, True, True]

    def asked(*argv):  # array_route's answers in one call
        answers.clear()
        assert run_cli(tmp_path, *argv)[0] == 0, argv
        return answers

    # the route of every call of the benchmark's workloads, and folds whose faster route
    # the rule must find: segment --count 3 at N = 36 and a plain segment at N = 40 on lists
    # (1.1 against 1.8 ms on columns, and 0.92 against 1.27 ms), --count 3 at N = 110 on
    # columns (5.7 against 7.7 ms), and a 100 x 100 witness alignment on the move table
    # (6 ms against 21 ms on lists)
    series = {n: write_column(tmp_path, f"y{n}.txt", rng.normal(0.0, 1.0, n))
              for n in (14, 36, 40, 110, 420)}
    assert asked("segment", series[14], "--count", "3", "--verify") == [False]
    assert asked("segment", series[14], "--lambda", "0.5", "--verify") == [False]
    assert asked("segment", series[36], "--count", "3") == [False]
    assert asked("segment", series[40]) == [False]
    assert asked("segment", series[110], "--count", "3") == [True]
    assert asked("segment", series[110], "--min-length", "15") == [True]
    assert asked("segment", series[420], "--count", "3") == [True]
    six = dna("six.a", 6), dna("six.b", 6)
    assert asked("align", *six, "--verify") == []  # plain alignment has no table route
    assert asked("align", *six, "--max-misalign", "2", "--verify") == []
    assert asked("align", *six, "--sum-misalign", "6", "--verify") == [False]
    vit = ("--semiring", "viterbi:minplus")
    assert asked("align", dna("m.a", 200), dna("m.b", 200), *vit, "--max-misalign", "8") == [False]
    assert asked("align", dna("w.a", 300), dna("w.b", 300), *vit) == [True]
    assert asked("align", dna("h.a", 100), dna("h.b", 100), *vit) == [True]
    assert asked("events", write_column(tmp_path, "e.txt", rng.uniform(0.0, 0.01, 10**4)),
                 "-M", "50") == [True]
    assert asked("events", write_column(tmp_path, "e14.txt", rng.uniform(0.05, 0.95, 14)),
                 "-M", "5", "--verify") == [False]
    for half, arrays in ((7, False), (1000, True)):
        p = rng.permutation(half)
        chain = write_column(tmp_path, "chain.txt", np.concatenate([p, half + p[::-1]]))
        assert asked("lis", chain, *(("--verify",) if half == 7 else ())) == [arrays]


def test_a_summed_gap_alignment_builds_its_hull_once(tmp_path):
    # the route estimate's hull is remembered, and the fold reads it: one build
    from semiring_dp import algorithms

    for name, text in (("a", "GATTACAGAT"), ("b", "GCTTACGATT")):
        (tmp_path / f"{name}.txt").write_text(text + "\n")
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    algorithms.gap_hull.cache_clear()
    assert run_cli(tmp_path, "align", a, b, "--sum-misalign", "4")[0] == 0
    info = algorithms.gap_hull.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1
    # one hull is remembered: the 3-prefix's evicts the inputs' own, which the
    # whole-size prefix builds again, and the run itself then reads
    algorithms.gap_hull.cache_clear()
    assert run_cli(tmp_path, "align", a, b, "--sum-misalign", "4", "--sweep", "3,10")[0] == 0
    assert algorithms.gap_hull.cache_info().misses == 3


def test_array_route_charges_the_import_until_numpy_is_loaded(tmp_path):
    # a fresh interpreter: the import is added to the array side, and a yes loads
    # numpy before the fold's clock starts, for events in both modes and summed gaps
    probs = write_column(tmp_path, "p.txt", [0.25, 0.5, 0.75])
    for name in ("a", "b"):
        (tmp_path / f"{name}.txt").write_text("GATTACA\n")
    script = ("import json, sys\n"
              "from semiring_dp import cli\n"
              "s = cli.NUMPY_IMPORT_S\n"
              "print(cli.array_route(s * 0.99, 0.0), cli.array_route(s + 0.5, 1.0),\n"
              "      'numpy' in sys.modules)\n"
              "print(cli.array_route(s + 1.0, 1.0), 'numpy' in sys.modules)\n"
              "print(cli.array_route(1e-9, 0.0))\n")
    fold_script = ("import json, sys\n"
                   "from semiring_dp import cli\n"
                   "fold = cli._fold\n"
                   "cli._fold = lambda *a: print('numpy' in sys.modules) or fold(*a)\n"
                   "cli.NUMPY_IMPORT_S = cli.EVENT_ARRAY_S = cli.WITNESS_EVENT_S = 0.0\n"
                   "cli.GAP_ARRAY_S = 0.0\n"
                   "assert cli.main(json.loads(sys.argv[1]) + ['--out', sys.argv[2]]) == 0\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["False", "False", "False", "True", "True", "True"]
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for argv in (["events", probs, "-M", "2"], ["events", probs, "-M", "2", "--mode", "viterbi"],
                 ["align", a, b, "--sum-misalign", "2"]):
        proc = subprocess.run([sys.executable, "-c", fold_script, json.dumps(argv),
                               str(tmp_path / "o")], capture_output=True, text=True, env=env,
                              timeout=120)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True\n"), argv
    # perfbench's sum190, a summed gap of 16 over 190 x 190, keeps lists cold: no numpy
    for name, seq in (("c", "GATTACA"), ("d", "TACAGAT")):
        (tmp_path / f"{name}.txt").write_text((seq * 28)[:190] + "\n")
    argv = ["align", str(tmp_path / "c.txt"), str(tmp_path / "d.txt"), "--sum-misalign", "16",
            "--out", str(tmp_path / "o")]
    proc = subprocess.run([sys.executable, "-c", "import sys\nfrom semiring_dp import cli\n"
                           "assert cli.main(sys.argv[1:]) == 0\nprint('numpy' in sys.modules)\n",
                           *argv], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")


# --- lis --------------------------------------------------------------------------


def test_lis_cases(tmp_path):
    path = write_column(tmp_path, "u.txt", [3, 1, 2])
    code, doc, _ = run_cli(tmp_path, "lis", path, "--verify")
    assert code == 0
    assert doc["result"] == 2
    assert doc["witness"] == [1, 2]
    assert doc["oracle_check"]["status"] == "pass"

    sorted_path = write_column(tmp_path, "s.txt", list(range(1, 8)))
    code, doc, _ = run_cli(tmp_path, "lis", sorted_path, "--verify")
    assert code == 0
    assert doc["result"] == 7


def test_lis_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, doc, _ = run_cli(tmp_path, "lis", str(path), "--verify")
    assert code == 0
    assert doc["result"] == 0
    assert doc["witness"] is None
    assert doc["oracle_check"]["status"] == "pass"


def test_lis_le_relation(tmp_path):
    path = write_column(tmp_path, "u.txt", [2, 2, 2])
    code, doc, _ = run_cli(tmp_path, "lis", path, "--relation", "le")
    assert code == 0
    assert doc["result"] == 3


def test_lis_subset_demo(tmp_path):
    path = write_column(tmp_path, "u.txt", [1, 3, 2, 7])
    code, doc, _ = run_cli(tmp_path, "lis", path, "--relation", "subset-demo", "--verify")
    assert code == 0
    assert doc["result"] == 3
    assert doc["witness"] == [1.0, 3.0, 7.0]
    assert doc["oracle_check"]["status"] == "pass"

    bad = write_column(tmp_path, "bad.txt", [1.5])
    assert main(["lis", bad, "--relation", "subset-demo"]) == 2


def test_lis_documents_are_the_same_on_both_sides_of_chain_pairs(tmp_path, monkeypatch):
    # a yes from array_route runs every lt or le fold over a float array, a no none
    routes = []
    fold = cli.algorithms.ordered_subsequences
    monkeypatch.setattr(cli.algorithms, "ordered_subsequences",
                        lambda values, *a: routes.append(type(values).__name__) or fold(values, *a))
    rng = np.random.default_rng(22)
    half = rng.permutation(40)
    inputs = {
        "chain.txt": np.concatenate([half, 40 + half[::-1]]),
        "ties.txt": rng.choice([-1.0, -0.0, 0.0, 1.0, 2.5], 60),
        "small.txt": rng.permutation(14),
    }
    for name, values in inputs.items():
        path = write_column(tmp_path, name, values)
        for extra in (("--relation", "lt"), ("--relation", "le"), ("--verify",)):
            texts = []
            for arrays in (False, True):
                monkeypatch.setattr(cli, "array_route", lambda list_s, array_s: arrays)
                code, doc, out = run_cli(tmp_path, "lis", path, *extra)
                assert code == 0
                if "--verify" in extra and name == "small.txt":
                    assert doc["oracle_check"]["status"] == "pass"
                doc.pop("wall_time_s")
                texts.append(canonical_json(doc))
            assert texts[0] == texts[1], (name, extra)
    assert routes == ["list", "ndarray"] * 9
    monkeypatch.setattr(cli, "array_route", lambda list_s, array_s: True)
    path = write_column(tmp_path, "masks.txt", [1, 3, 2, 7])
    assert run_cli(tmp_path, "lis", path, "--relation", "subset-demo")[0] == 0
    assert routes[-1] == "list"


def test_lis_below_chain_pairs_leaves_numpy_unloaded(tmp_path):
    # 14 values chain over 91 pairs: a cold run keeps lists, so numpy is loaded only once
    # array_route is made to say yes, and never for subset-demo
    values = write_column(tmp_path, "v.txt", [5, 3, 9, 1, 4, 4, 8, 0, 2, 7, 6, 11, 10, 12])
    script = ("import json, sys\n"
              "from semiring_dp import cli\n"
              "rule = cli.array_route\n"
              "for forced, argv in json.loads(sys.argv[1]):\n"
              "    cli.array_route = rule if forced is None else lambda list_s, array_s: forced\n"
              "    assert cli.main(argv + ['--out', sys.argv[2]]) == 0, argv\n"
              "    print('numpy' in sys.modules)\n")
    calls = [(None, ["lis", values]), (None, ["lis", values, "--relation", "le", "--verify"]),
             (True, ["lis", values, "--relation", "subset-demo", "--verify"]),
             (True, ["lis", values, "--relation", "le"])]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls), str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["False", "False", "False", "True"]


# --- bench and plumbing --------------------------------------------------------------


def test_bench_table(tmp_path):
    code, doc, _ = run_cli(tmp_path, "bench", "--op", "combinations", "--sizes", "8,16")
    assert code == 0
    assert [row[0] for row in doc["table"]] == [8, 16]


def test_runs_off_the_array_routes_leave_numpy_unloaded(tmp_path):
    # only the folds array_route sends to arrays once numpy's import is charged to them,
    # and a segment fit written with --out-table, use numpy, whose import is most of the
    # start-up of a cold run that needs none of it.  Segments read scalar costs on the list
    # route (perfbench's cold --count 3 --verify at N = 14 among them), exact events at
    # M = 50 over 10^4 events, below the cold break-even (about 1.8 x 10^4 events at
    # M = 50), and a summed gap of 2 over 5 x 5 keep lists
    values = write_column(tmp_path, "v.txt", [3.0, 1.0, 2.0, 5.0])
    y14 = write_column(tmp_path, "y14.txt", np.random.default_rng(14).normal(0.0, 1.0, 14))
    probs = write_column(tmp_path, "p.txt", [0.5, 0.25, 0.75])
    many = write_column(tmp_path, "many.txt", np.random.default_rng(26).uniform(0, 0.01, 10**4))
    # a cold witness alignment of rows x cols takes the move table when array_route,
    # with numpy's import charged, says so: rows is the square break-even's side, and
    # just the fewest columns against it
    table = lambda rows, cols: (rows * cols * cli.ALIGN_CELL_S
                                >= (rows + cols) * cli.ALIGN_DIAGONAL_S + cli.NUMPY_IMPORT_S)
    rows = next(n for n in itertools.count(1) if table(n, n))
    just = next(cols for cols in itertools.count(1) if table(rows, cols))
    lengths = {"a": 5, "b": 5, "long": rows, "short": just - 1, "just": just, "two": 200}
    for name, length in lengths.items():
        (tmp_path / f"{name}.txt").write_text(("GATTACA" * length)[:length] + "\n")
    a, b, long, short, just, two = (str(tmp_path / f"{name}.txt") for name in lengths)
    vit = ["--semiring", "viterbi:minplus"]
    calls = [["segment", y14, "--count", "3", "--verify"],
             ["segment", y14, "--lambda", "0.5", "--verify"], ["segment", y14, "--min-length", "2"],
             ["lis", values, "--verify"], ["events", probs, "-M", "1", "--verify"],
             ["events", probs, "-M", "1", "--mode", "viterbi"], ["events", many, "-M", "50"],
             ["align", a, b, "--sum-misalign", "2"],
             ["align", a, b, "--verify"], ["align", a, b, "--max-misalign", "1"],
             ["align", a, b, "--sum-misalign", "2", "--semiring", "viterbi:minplus"],
             ["align", a, b, *vit, "--verify"], ["align", a, b, *vit, "--max-misalign", "1"],
             # perfbench's cold max200
             ["align", two, two, *vit, "--max-misalign", "8"],
             # one column below the break-even, with and without a gap cap
             ["align", long, short, *vit], ["align", long, short, *vit, "--max-misalign", "8"],
             # past it, a gap cap of 8 folds only its band of about 4,000 cells
             ["align", long, just, *vit, "--max-misalign", "8"],
             # at the break-even a witness alignment reads a move table as blocks
             ["align", long, just, *vit]]
    script = ("import json, sys\n"
              "from semiring_dp.cli import main\n"
              "print('numpy' in sys.modules)\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv + ['--out', sys.argv[2]]) == 0, argv\n"
              "    print('numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls), str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    # the last call takes the block route
    assert proc.stdout.split() == ["False"] * len(calls) + ["True"]


def test_move_tables_give_the_documents_of_the_callable_weights(tmp_path, monkeypatch, capsys):
    # a yes from array_route runs every witness alignment over a move table as blocks
    tables = []
    edit_table = cli._edit_table
    monkeypatch.setattr(cli, "_edit_table", lambda *a: tables.append(1) or edit_table(*a))
    rng = np.random.default_rng(7)
    (tmp_path / "a.txt").write_text("".join(rng.choice(list("ACG"), 20)) + "\n")
    (tmp_path / "b.txt").write_text("".join(rng.choice(list("ACG"), 19)) + "\n")
    (tmp_path / "ta.txt").write_text("to be or not to be that is\n")
    (tmp_path / "tb.txt").write_text("not to be is to be or that\n")
    pairs = [("a.txt", "b.txt", ()), ("ta.txt", "tb.txt", ("--tokens",))]
    failed = []
    for base, costs in (("minplus", ("--mismatch-cost", "1.5")), ("maxplus", ("--gap-cost", "-1")),
                        ("maxprod", ("--gap-cost", "0.5", "--mismatch-cost", "0.25")),
                        ("bottleneck", ("--gap-cost", "0.75", "--mismatch-cost", "0.25"))):
        for first, second, tokens in pairs:
            for extra in ((), ("--max-misalign", "2"), ("--sweep", "1,5,7"),
                          ("--max-misalign", "3", "--sweep", "2,6")):
                argv = ["align", str(tmp_path / first), str(tmp_path / second), *tokens,
                        "--semiring", f"viterbi:{base}", *costs, *extra]
                outcomes = []
                for arrays in (False, True):
                    monkeypatch.setattr(cli, "array_route", lambda list_s, array_s: arrays)
                    code, doc, out = run_cli(tmp_path, *argv)
                    if code == 0:
                        out.unlink()
                        doc.pop("wall_time_s")
                        for row in doc.get("sweep", ()):
                            row.pop()  # seconds
                    outcomes.append((code, doc, capsys.readouterr().err))
                assert outcomes[0] == outcomes[1], argv
                if outcomes[0][0]:
                    assert outcomes[0][0] == 2
                    failed.append(base)
    assert len(tables) == 32
    # a zero-cost match zeroes a maxprod or bottleneck score, and under a gap cap
    # of 2 or 3 every alignment has one: the data error, the same on both routes
    assert sorted(failed) == ["bottleneck"] * 4 + ["maxprod"] * 4


def test_usage_errors_exit_one():
    assert main([]) == 1
    assert main(["segment"]) == 1
    assert main(["align", "a", "b", "--semiring"]) == 1
    assert main(["nosuchcommand"]) == 1


def test_unknown_semiring_is_data_error(tmp_path):
    path = write_column(tmp_path, "y.csv", [1.0, 2.0])
    assert main(["segment", str(path), "--semiring", "nope", "--count", "1"]) == 2
    assert main(["segment", str(path), "--semiring", "viterbi:nope", "--count", "1"]) == 2


def test_missing_file_is_data_error(tmp_path):
    assert main(["lis", str(tmp_path / "missing.txt")]) == 2


def test_verify_skips_when_too_large(tmp_path):
    path = write_column(tmp_path, "big.txt", list(np.linspace(0, 1, 40)))
    code, doc, _ = run_cli(tmp_path, "lis", path, "--verify")
    assert code == 0
    assert doc["oracle_check"]["status"] == "skipped"
    assert "cap" in doc["oracle_check"]["reason"]


def test_align_verify_states_its_skip_as_a_bound(tmp_path):
    # 300 x 300 has a 229-digit count of alignments; the reason names the cap it passes
    rng = np.random.default_rng(4)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("".join(rng.choice(list("ACGT"), 300)))
    b.write_text("".join(rng.choice(list("ACGT"), 300)))
    code, doc, _ = run_cli(tmp_path, "align", str(a), str(b), "--verify")
    assert code == 0
    assert doc["oracle_check"]["status"] == "skipped"
    assert doc["oracle_check"]["reason"] == (
        f"more than {cli.VERIFY_PATH_CAP} alignments exceed the {cli.VERIFY_PATH_CAP}-path cap")
    assert len(doc["oracle_check"]["reason"]) < 80


def test_align_verify_runs_up_to_the_cap(tmp_path):
    # D(6, 6) = 8,989 alignments lie within the cap; D(7, 7) = 48,639 do not
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("GATTAC")
    b.write_text("GCTACA")
    code, doc, _ = run_cli(tmp_path, "align", str(a), str(b), "--verify")
    assert code == 0
    assert doc["oracle_check"]["status"] == "pass"
    a.write_text("GATTACA")
    b.write_text("GCTACAG")
    code, doc, _ = run_cli(tmp_path, "align", str(a), str(b), "--verify")
    assert code == 0
    assert doc["oracle_check"]["status"] == "skipped"


def _plain_paths():
    """Path sets as plain frozensets of label tuples; a ``PathSet`` weight reads as its paths."""
    plain = lambda x: frozenset(x.paths) if isinstance(x, PathSet) else x
    return Semiring("plain paths", lambda x, y: plain(x) | plain(y),
                    lambda x, y: frozenset(a + b for a in plain(x) for b in plain(y)),
                    frozenset(), frozenset({()}))


def _plain_oracle(generate, alg, base, weight):
    """(the generated paths, the exhaustive value): generate, filter, evaluate, written out.

    The paths are of the real labels, each label its own one-step path.
    """
    generated = generate(lambda label: frozenset({(label,)}), _plain_paths())
    kept = generated
    if alg is not None:
        def fold(path):
            acc, rest = (alg.identity, path) if alg.identity is not None else (
                alg.label_map(path[0]), path[1:])
            for label in rest:
                acc = alg.combine(acc, alg.label_map(label))
            return acc

        kept = [p for p in generated if (p or alg.identity is not None) and alg.accepts(fold(p))]
    value = base.zero
    for path in sorted(kept):
        product = base.one
        for label in path:
            product = base.mul(product, weight(label))
        value = base.add(value, product)
    return frozenset(generated), value


def test_oracle_values_are_the_plain_generate_filter_evaluate(tmp_path, monkeypatch):
    # the calls of perfbench's oracle-verify workload at its sizes, then the other constraints
    rng = np.random.default_rng(25)
    y14 = write_column(tmp_path, "y14.txt", np.cumsum(rng.normal(0.0, 1.0, 14)))
    y12 = write_column(tmp_path, "y12.txt", np.cumsum(rng.normal(0.0, 1.0, 12)))
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("".join(rng.choice(list("ACGT"), 6)) + "\n")
    b.write_text("".join(rng.choice(list("ACGT"), 6)) + "\n")
    p14 = write_column(tmp_path, "p14.txt", rng.uniform(0.05, 0.95, 14))
    p12 = write_column(tmp_path, "p12.txt", rng.uniform(0.05, 0.95, 12))
    half = rng.permutation(7)
    chain = write_column(tmp_path, "chain.txt", [*half, *(7 + half[::-1])])
    ties = write_column(tmp_path, "ties.txt", [3, 1, 2, 2, 5, 4, 4, 6, 0, 7, 3, 5])
    calls = [
        ("segment", y14, "--count", "3"),
        ("segment", y14, "--lambda", "0.5"),
        ("align", str(a), str(b)),
        ("align", str(a), str(b), "--sum-misalign", "6"),
        ("align", str(a), str(b), "--max-misalign", "2"),
        ("events", p14, "-M", "5"),
        ("lis", chain),
        ("segment", y12, "--count-range", "2", "4"),
        ("segment", y12, "--min-length", "3"),
        ("segment", y12, "--min-length", "3", "--semiring", "count"),
        ("align", str(a), str(b), "--semiring", "count"),
        ("align", str(a), str(b), "--semiring", "prob"),
        ("events", p12, "-M", "4", "--mode", "viterbi"),
        ("lis", ties, "--relation", "le"),
    ]
    seen = {}
    real_oracle, real_filter, real_evaluate = cli._oracle, cli.filter_paths, cli.evaluate_paths

    def oracle(solutions, what, generate, alg, base, weight, got, alphabet):
        alphabet = list(alphabet)
        seen["labels"] = sorted(alphabet)  # a code is its label's rank
        seen["want"] = _plain_oracle(generate, alg, base, weight)
        return real_oracle(solutions, what, generate, alg, base, weight, got, alphabet)

    def filter_paths(alg, paths):
        seen.setdefault("generated", paths)
        return real_filter(alg, paths)

    def evaluate_paths(base, weight, paths):
        seen.setdefault("generated", paths)
        seen["value"] = real_evaluate(base, weight, paths)
        return seen["value"]

    monkeypatch.setattr(cli, "_oracle", oracle)
    monkeypatch.setattr(cli, "filter_paths", filter_paths)
    monkeypatch.setattr(cli, "evaluate_paths", evaluate_paths)
    for argv in calls:
        seen.clear()
        code, doc, _ = run_cli(tmp_path, *argv, "--verify")
        assert (code, doc["oracle_check"]["status"]) == (0, "pass"), argv
        generated, value = seen["want"]
        labels = seen["labels"]
        decoded = {tuple(labels[code] for code in path) for path in seen["generated"].paths}
        assert all(type(code) is int for path in seen["generated"].paths for code in path), argv
        assert decoded == generated and len(seen["generated"]) == len(generated), argv
        assert repr(seen["value"]) == repr(value), argv


def test_oracle_alphabets_hold_every_label_read_at_edge_shapes(tmp_path, monkeypatch, capsys):
    # each oracle declares its alphabet, and codes only those labels: every label the
    # recurrence reads through its weight map must be in it, and one left out is an
    # internal error (exit 4, named), never a pass
    texts = {"empty.txt": "", "gat.txt": "GAT\n", "t1.txt": "ab cd ab\n", "t2.txt": "cd ab\n"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    empty, gat, t1, t2 = (str(tmp_path / name) for name in texts)
    y1, y2 = write_column(tmp_path, "y1.txt", [1.5]), write_column(tmp_path, "y2.txt", [1.5, 4.0])
    p2 = write_column(tmp_path, "p2.txt", [0.5, 0.25])
    v1 = write_column(tmp_path, "v1.txt", [3.0])
    ties = write_column(tmp_path, "ties.txt", [2.0, 2.0, 1.0, 2.0, 3.0, 3.0])
    calls = [
        ("align", empty, gat), ("align", gat, empty), ("align", empty, empty),
        ("align", t1, t2, "--tokens"), ("align", t1, t2, "--tokens", "--semiring", "viterbi:minplus"),
        ("segment", y1), ("segment", y2), ("segment", y2, "--count", "2"),
        ("events", empty, "-M", "0"), ("events", p2, "-M", "0"), ("events", p2, "-M", "3"),
        ("events", p2, "-M", "1", "--mode", "viterbi"),
        ("lis", v1), ("lis", ties, "--relation", "le"),
    ]
    real_oracle = cli._oracle
    seen = {}

    def oracle(solutions, what, generate, alg, base, weight, got, alphabet):
        seen["alphabet"] = [label for label in alphabet if label != seen.get("drop")]
        recorded = lambda one, gen: generate(lambda label: seen["read"].append(label) or one(label), gen)
        return real_oracle(solutions, what, recorded, alg, base, weight, got, seen["alphabet"])

    monkeypatch.setattr(cli, "_oracle", oracle)
    for argv in calls:
        seen.clear()
        seen["read"] = []
        code, doc, _ = run_cli(tmp_path, *argv, "--verify")
        assert (code, doc["oracle_check"]["status"]) == (0, "pass"), argv
        alphabet = seen["alphabet"]
        assert len(set(alphabet)) == len(alphabet), argv
        assert set(seen["read"]) <= set(alphabet), argv
        capsys.readouterr()
        for drop in dict.fromkeys(seen["read"]):
            seen.clear()
            seen.update(read=[], drop=drop)
            (tmp_path / "result.json").unlink(missing_ok=True)
            code, doc, _ = run_cli(tmp_path, *argv, "--verify")
            lines = capsys.readouterr().err.splitlines()
            assert (code, doc) == (4, None), (argv, drop)
            assert lines[-1] == ("semiring-dp: internal error: LookupError: "
                                 f"label {drop!r} is outside the oracle's alphabet"), (argv, drop)


def test_verify_skips_over_the_path_storage_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "generator_semiring", lambda: generator_semiring(50))
    path = write_column(tmp_path, "y.txt", [1.0, 4.0, 2.0, 8.0, 0.5, 1.5])
    code, doc, _ = run_cli(tmp_path, "segment", path, "--verify")
    assert code == 0
    assert doc["oracle_check"]["status"] == "skipped"
    assert "budget of 50" in doc["oracle_check"]["reason"]


def test_the_oracle_pauses_the_collector_and_main_restores_it(tmp_path, monkeypatch):
    # path sets hold no reference cycles, so the oracle runs with cyclic collection off;
    # main leaves the collector as it found it whether the oracle passes, skips over the
    # storage budget or meets a weight that raises
    import gc

    path = write_column(tmp_path, "y.txt", [1.0, 4.0, 2.0, 8.0, 0.5, 1.5])
    real_verify, real_evaluate = cli._verify_segment, cli.evaluate_paths
    paused = []  # whether the collector was off, at the step each case reaches last
    seen = lambda: paused.append(not gc.isenabled())

    def refuse(label):
        seen()
        raise RuntimeError(f"weight of {label} refused")

    cases = {  # the cli name each case replaces, and what with
        "pass": (0, "pass", "evaluate_paths", lambda *args: seen() or real_evaluate(*args)),
        "skipped": (0, "skipped", "generator_semiring", lambda: seen() or generator_semiring(50)),
        "raises": (4, None, "_verify_segment",
                   lambda make, alg, base, weight, got: real_verify(make, alg, base, refuse, got)),
    }
    try:
        for case, (want_code, want_status, name, patched) in cases.items():
            with monkeypatch.context() as patch:
                patch.setattr(cli, name, patched)
                for enabled in (True, False):
                    (gc.enable if enabled else gc.disable)()
                    paused.clear()
                    (tmp_path / "result.json").unlink(missing_ok=True)
                    code, doc, _ = run_cli(tmp_path, "segment", path, "--verify")
                    assert gc.isenabled() is enabled, (case, enabled)
                    assert (code, doc and doc["oracle_check"]["status"]) == (want_code, want_status)
                    assert paused == [True], (case, enabled)
    finally:
        gc.enable()


def test_the_lis_oracle_filter_reads_each_state_and_label_once(tmp_path, monkeypatch):
    # a lis oracle at the benchmark's scale, over the CI's chain14 input: combine and the
    # code-to-position map run once per (fold state, label), not once per label of each
    # of the 2^14 - 1 paths
    import dataclasses
    import random

    rng = random.Random(25)
    half = list(range(7))
    rng.shuffle(half)
    chain = write_column(tmp_path, "chain14.txt", [*half, *(7 + v for v in reversed(half))])
    real_filter = cli.filter_paths
    seen = {}

    def filter_paths(alg, paths):
        calls = {"combine": 0, "label_map": 0}

        def combine(state, value):
            calls["combine"] += 1
            return alg.combine(state, value)

        def label_map(label):
            calls["label_map"] += 1
            return alg.label_map(label)

        # every prefix's fold value is a state reached; the identity-less start is one more
        states = set().union(*(itertools.accumulate(map(alg.label_map, p), alg.combine) for p in paths.paths))
        labels = {label for p in paths.paths for label in p}
        seen.update(calls=calls, states=len(states) + 1, labels=len(labels), paths=len(paths))
        counted = dataclasses.replace(alg, combine=combine, label_map=label_map)
        return real_filter(counted, paths)

    monkeypatch.setattr(cli, "filter_paths", filter_paths)
    code, doc, _ = run_cli(tmp_path, "lis", chain, "--verify")
    assert (code, doc["oracle_check"]["status"]) == (0, "pass")
    assert (seen["paths"], seen["labels"]) == (2**14 - 1, 14)
    bound = seen["states"] * seen["labels"]
    assert 0 < seen["calls"]["combine"] <= bound and 0 < seen["calls"]["label_map"] <= bound, seen


def test_oracle_failure_exits_three(tmp_path, monkeypatch):
    # force a wrong exhaustive answer to check the exit path
    import semiring_dp.cli as cli_mod

    probs = write_column(tmp_path, "p.txt", [0.5, 0.5])
    monkeypatch.setattr(
        cli_mod, "_verify_events", lambda *a, **k: {"status": "fail", "reason": "forced"}
    )
    code = main(["events", probs, "-M", "1", "--verify", "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_wrong_fold_fails_the_oracle_and_exits_three(tmp_path, monkeypatch, capsys):
    # a wrong direct answer against the real exhaustive oracle
    import semiring_dp.cli as cli_mod

    probs = write_column(tmp_path, "p.txt", [0.5, 0.5])
    monkeypatch.setattr(cli_mod, "events_m_of_n", lambda pairs, occurrences, s: 0.125)
    code, doc, _ = run_cli(tmp_path, "events", probs, "-M", "1", "--verify")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("semiring-dp: oracle check failed: direct 0.125 != exhaustive 0.5")
    assert doc["oracle_check"]["status"] == "fail"


def test_unexpected_exception_is_an_internal_error(tmp_path, monkeypatch, capsys):
    import semiring_dp.cli as cli_mod

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_mod, "cmd_lis", broken)
    code = main(["lis", write_column(tmp_path, "x.txt", [1.0, 2.0])])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert captured.err.splitlines()[-1] == "semiring-dp: internal error: RuntimeError: boom"


def test_the_console_script_runs_main_with_the_collector_off(tmp_path, monkeypatch):
    # the console script (pyproject's semiring-dp, and python -m semiring_dp.cli) owns
    # its process and turns cyclic collection off; main, run in process, leaves it as is
    import gc
    import importlib
    import re

    with open(os.path.join(os.path.dirname(cli.__file__), "..", "..", "pyproject.toml")) as f:
        module, name = re.search(r'^semiring-dp = "(.+):(.+)"$', f.read(), re.M).groups()
    path = write_column(tmp_path, "v.txt", [3.0, 1.0, 2.0])
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert run_cli(tmp_path, "lis", path)[0] == 0
            assert gc.isenabled() is enabled
        gc.enable()
        seen = []
        monkeypatch.setattr(cli, "main", lambda argv=None: seen.append(gc.isenabled()) or 0)
        assert getattr(importlib.import_module(module), name)() == 0
        assert seen == [False]
    finally:
        gc.enable()
    script = ("import gc, runpy, sys\n"
              "try:\n"
              "    runpy.run_module('semiring_dp.cli', run_name='__main__', alter_sys=True)\n"
              "except SystemExit as exit:\n"
              "    print(exit.code, gc.isenabled())\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, "lis", path, "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0 False\n")
