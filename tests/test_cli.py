import json
import math
import os
import subprocess
import sys

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


def test_segment_oracle_builds_each_cost_column_once(tmp_path, monkeypatch):
    # the oracle once weighed labels in path order, one cost column per change of j:
    # 117 columns for --count 3 --verify at n = 14, against 15 without --verify
    built = []
    column = cli.SegmentCosts._cost_column
    monkeypatch.setattr(cli.SegmentCosts, "_cost_column",
                        lambda self, j: built.append(j) or column(self, j))
    rng = np.random.default_rng(21)
    for n, extra, status in ((14, ("--count", "3"), "pass"), (14, ("--lambda", "0.5"), "pass"),
                             (16, ("--count", "3"), "skipped")):
        path = write_column(tmp_path, f"y{n}.txt", rng.normal(0.0, 1.0, n))
        built.clear()
        code, doc, _ = run_cli(tmp_path, "segment", path, *extra, "--verify")
        assert (code, doc["oracle_check"]["status"]) == (0, status)
        # the one-segment weight's check, the fold, and the oracle unless it is skipped
        assert len(built) == (2 * n + 1 if status == "pass" else n + 1), (n, extra)


def test_segment_columns_read_no_scalar_weight(tmp_path, monkeypatch):
    # past COLUMN_SAMPLES the folds over a min/max base read each weight column whole, as
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
        for samples in (n, n + 1):  # the array route, then the list route
            monkeypatch.setattr(cli.algorithms, "COLUMN_SAMPLES", samples)
            calls.clear()
            code, doc, _ = run_cli(tmp_path, "segment", path, *extra)
            assert code == 0, extra
            del doc["wall_time_s"]
            docs.append(doc)
            assert (calls == [(1, n)]) == (samples == n), (extra, len(calls))
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


def test_events_documents_are_the_same_on_both_routes(tmp_path, monkeypatch):
    # the exact fold over a float array of pairs (the array route) and over a list
    # of pairs: byte-identical documents, op counts and oracle checks included
    routes = []
    fold = cli.events_m_of_n
    monkeypatch.setattr(cli, "events_m_of_n",
                        lambda pairs, *a: routes.append(type(pairs).__name__) or fold(pairs, *a))
    rng = np.random.default_rng(26)
    edges = [0.0, 1.0, 5e-324, 1 - 1e-16]
    inputs = {"edges.txt": edges + list(rng.uniform(0.0, 1.0, 8)),
              "small.txt": rng.uniform(0.0, 0.01, 300)}
    want = []  # the array route is asked for only when the fold has M <= N
    for name, probs in inputs.items():
        path = write_column(tmp_path, name, probs)
        n = len(probs)
        for m in (0, 1, 2, 50, n - 1, n, n + 1):
            want += ["list", "ndarray" if m <= n else "list"]
            extra = ("--verify",) if n <= 12 else ()
            texts = []
            for arrays in (False, True):
                monkeypatch.setattr(cli, "array_route", lambda list_s, array_s: arrays)
                code, doc, _ = run_cli(tmp_path, "events", path, "-M", str(m), *extra)
                assert code == 0, (name, m)
                if extra:
                    assert doc["oracle_check"]["status"] == "pass"
                doc.pop("wall_time_s")
                texts.append(canonical_json(doc))
            assert texts[0] == texts[1], (name, m)
    assert routes == want


def test_array_routes_in_a_warm_process(tmp_path, monkeypatch):
    # with numpy loaded the rule weighs the folds alone: exact events take arrays from
    # about 20 row entries per event, summed gaps blocks from about 100 lifted entries
    # of the hull per diagonal (at cap 16 the hull of 60 x 60 has 121 cells, at cap 60
    # 361), lis arrays from about n = 115
    routes = []
    events, gaps = cli.events_m_of_n, cli.nw_align_sum_constrained
    monkeypatch.setattr(cli, "events_m_of_n",
                        lambda pairs, *a: routes.append(type(pairs).__name__) or events(pairs, *a))
    monkeypatch.setattr(cli, "nw_align_sum_constrained",
                        lambda *a, blocks, **kw: routes.append(blocks) or gaps(*a, blocks=blocks,
                                                                             **kw))
    rng = np.random.default_rng(7)
    probs = write_column(tmp_path, "p.txt", rng.uniform(0.0, 0.01, 2000))
    for m in (5, 50):
        assert run_cli(tmp_path, "events", probs, "-M", str(m))[0] == 0
    for n, cap in ((6, 6), (60, 8), (60, 16), (60, 60)):
        for name in ("a", "b"):
            (tmp_path / f"{name}.txt").write_text("".join(rng.choice(list("ACGT"), n)) + "\n")
        assert run_cli(tmp_path, "align", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
                       "--sum-misalign", str(cap))[0] == 0
    assert routes == ["list", "ndarray", False, False, False, True]
    assert [cli._chain_route(n) for n in (14, 100, 130, 2000)] == [False, False, True, True]


def test_a_summed_gap_alignment_builds_its_hull_once(tmp_path, monkeypatch):
    # the route estimate's hull is the one the fold reads; a sweep prefix builds its own
    from semiring_dp import algorithms

    sizes = []
    hull = algorithms.gap_hull
    monkeypatch.setattr(algorithms, "gap_hull", lambda *a: sizes.append(a) or hull(*a))
    for name, text in (("a", "GATTACAGAT"), ("b", "GCTTACGATT")):
        (tmp_path / f"{name}.txt").write_text(text + "\n")
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert run_cli(tmp_path, "align", a, b, "--sum-misalign", "4")[0] == 0
    assert sizes == [(10, 10, 4)]
    sizes.clear()
    # the whole-size prefix is the inputs' own problem
    assert run_cli(tmp_path, "align", a, b, "--sum-misalign", "4", "--sweep", "3,10")[0] == 0
    assert sizes == [(10, 10, 4), (3, 3, 4)]


def test_array_route_charges_the_import_until_numpy_is_loaded(tmp_path):
    # a fresh interpreter: the import is added to the array side, and a yes loads
    # numpy before the fold's clock starts, for events and summed gaps alike
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
                   "cli.NUMPY_IMPORT_S = cli.EVENT_ARRAY_S = cli.GAP_DIAGONAL_S = 0.0\n"
                   "assert cli.main(json.loads(sys.argv[1]) + ['--out', sys.argv[2]]) == 0\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["False", "False", "False", "True", "True", "True"]
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for argv in (["events", probs, "-M", "2"], ["align", a, b, "--sum-misalign", "2"]):
        proc = subprocess.run([sys.executable, "-c", fold_script, json.dumps(argv),
                               str(tmp_path / "o")], capture_output=True, text=True, env=env,
                              timeout=120)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True\n"), argv


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
    # CHAIN_PAIRS 0 runs every lt or le fold over a float array, 10**12 none
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
            for pairs in (10**12, 0):
                monkeypatch.setattr(cli, "CHAIN_PAIRS", pairs)
                code, doc, out = run_cli(tmp_path, "lis", path, *extra)
                assert code == 0
                if "--verify" in extra and name == "small.txt":
                    assert doc["oracle_check"]["status"] == "pass"
                doc.pop("wall_time_s")
                texts.append(canonical_json(doc))
            assert texts[0] == texts[1], (name, extra)
    assert routes == ["list", "ndarray"] * 9
    monkeypatch.setattr(cli, "CHAIN_PAIRS", 0)
    path = write_column(tmp_path, "masks.txt", [1, 3, 2, 7])
    assert run_cli(tmp_path, "lis", path, "--relation", "subset-demo")[0] == 0
    assert routes[-1] == "list"


def test_lis_below_chain_pairs_leaves_numpy_unloaded(tmp_path):
    # 14 values chain over 91 pairs: numpy is loaded only once CHAIN_PAIRS is down to 91,
    # and never for subset-demo
    values = write_column(tmp_path, "v.txt", [5, 3, 9, 1, 4, 4, 8, 0, 2, 7, 6, 11, 10, 12])
    script = ("import json, sys\n"
              "from semiring_dp import cli\n"
              "for pairs, argv in json.loads(sys.argv[1]):\n"
              "    cli.CHAIN_PAIRS = pairs\n"
              "    assert cli.main(argv + ['--out', sys.argv[2]]) == 0, argv\n"
              "    print('numpy' in sys.modules)\n")
    calls = [(92, ["lis", values]), (92, ["lis", values, "--relation", "le", "--verify"]),
             (0, ["lis", values, "--relation", "subset-demo", "--verify"]),
             (91, ["lis", values, "--relation", "le"])]
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
    # only the segment costs, the folds array_route sends to arrays once numpy's
    # import is charged to them, and witness alignments of at least BLOCK_CELLS cells
    # use numpy, whose import is most of the start-up of a cold run that needs none
    # of it.  Exact events at M = 50 over 10^4 events, below the cold break-even
    # (about 3 x 10^4 events at M = 50), and a summed gap of 2 over 5 x 5 keep lists
    values = write_column(tmp_path, "v.txt", [3.0, 1.0, 2.0, 5.0])
    probs = write_column(tmp_path, "p.txt", [0.5, 0.25, 0.75])
    many = write_column(tmp_path, "many.txt", np.random.default_rng(26).uniform(0, 0.01, 10**4))
    rows = math.isqrt(cli.BLOCK_CELLS - 1) + 1
    lengths = {"a": 5, "b": 5, "long": rows, "short": (cli.BLOCK_CELLS - 1) // rows,
               "just": -(-cli.BLOCK_CELLS // rows)}
    for name, length in lengths.items():
        (tmp_path / f"{name}.txt").write_text(("GATTACA" * length)[:length] + "\n")
    a, b, long, short, just = (str(tmp_path / f"{name}.txt") for name in lengths)
    vit = ["--semiring", "viterbi:minplus"]
    calls = [["lis", values, "--verify"], ["events", probs, "-M", "1", "--verify"],
             ["events", probs, "-M", "1", "--mode", "viterbi"], ["events", many, "-M", "50"],
             ["align", a, b, "--sum-misalign", "2"],
             ["align", a, b, "--verify"], ["align", a, b, "--max-misalign", "1"],
             ["align", a, b, "--sum-misalign", "2", "--semiring", "viterbi:minplus"],
             ["align", a, b, *vit, "--verify"], ["align", a, b, *vit, "--max-misalign", "1"],
             # one cell below the break-even, with and without a gap cap
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
    # BLOCK_CELLS 0 runs every witness alignment over a move table as blocks
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
                for cells in (10**12, 0):
                    monkeypatch.setattr(cli, "BLOCK_CELLS", cells)
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
    """(the generated paths, the exhaustive value): generate, filter, evaluate, written out."""
    generated = generate(_plain_paths())
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

    def oracle(solutions, what, generate, alg, base, weight, got, order=()):
        seen["want"] = _plain_oracle(generate, alg, base, weight)
        return real_oracle(solutions, what, generate, alg, base, weight, got, order)

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
        assert seen["generated"].paths == generated, argv
        assert repr(seen["value"]) == repr(value), argv


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
