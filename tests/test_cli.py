import json
import math

import numpy as np
import pytest

from semiring_dp import cli
from semiring_dp.cli import canonical_json, format_float, main
from semiring_dp.pathsets import generator_semiring


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
    for x in (0.1, 1 / 3, 123456.789, 1e-7, -2.5e17, 0.375, math.pi):
        s = format_float(x)
        assert format_float(float(s)) == s
        assert len(s.replace("-", "").replace(".", "").split("e")[0].lstrip("0")) <= 12


def test_canonical_json_round_trip():
    doc = {
        "b": [1, 2.5, "x", None, True],
        "a": {"nested": {"z": 0.1, "y": -1e-7}},
    }
    text = canonical_json(doc)
    assert canonical_json(json.loads(text)) == text
    assert text.index('"a"') < text.index('"b"')


def test_result_documents_round_trip(tmp_path):
    probs = write_column(tmp_path, "p.txt", [0.5, 0.5, 0.5, 0.5])
    code, doc, out = run_cli(tmp_path, "events", probs, "-M", "2")
    assert code == 0
    assert canonical_json(doc) + "\n" == out.read_text()


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


# --- bench and plumbing --------------------------------------------------------------


def test_bench_table(tmp_path):
    code, doc, _ = run_cli(tmp_path, "bench", "--op", "combinations", "--sizes", "8,16")
    assert code == 0
    assert [row[0] for row in doc["table"]] == [8, 16]


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


def test_verify_skips_over_the_path_storage_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "generator_semiring", lambda: generator_semiring(50))
    path = write_column(tmp_path, "y.txt", [1.0, 4.0, 2.0, 8.0, 0.5, 1.5])
    code, doc, _ = run_cli(tmp_path, "segment", path, "--verify")
    assert code == 0
    assert doc["oracle_check"]["status"] == "skipped"
    assert "budget of 50" in doc["oracle_check"]["reason"]


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
