"""Golden result documents: every subcommand and flag, compared byte for byte.

Each case runs the CLI on fixed inputs and compares its canonical
document, and its ``--out-table`` CSV where one is written, with the
copy under ``tests/golden/``.  Timings are the only fields dropped:
``wall_time_s`` and the ``seconds`` column of sweep and bench tables.
The temporary directory prefix is replaced by ``TMP``.
"""

import json
from pathlib import Path

import pytest

from semiring_dp.cli import canonical_json, main

GOLDEN = Path(__file__).parent / "golden"

SERIES = [0.1 * k + 0.1 * (k * 7 % 5) for k in range(1, 6)] + [
    4.0 - 0.3 * k + 0.1 * (k * 3 % 4) for k in range(6, 13)
]
INPUTS = {
    "series.csv": "\n".join(repr(v) for v in SERIES) + "\n",
    "header.csv": "value\n# comment\n1.0\n2.0\n9.0\n8.5\n",
    "a.txt": "GATTA\n",
    "b.txt": "GCTAC\n",
    "long_a.txt": "ACGTACGT\n",
    "long_b.txt": "ACGGTCAT\n",
    "tokens_a.txt": "the cat sat\n",
    "tokens_b.txt": "the hat sat down\n",
    "probs.txt": "0.9\n0.2\n0.7\n0.4\n0.55\n0.1\n0.35\n0.8\n",
    "values.txt": "3\n1\n4\n1\n5\n9\n2\n6\n5\n3\n",
    "masks.txt": "1\n3\n2\n7\n6\n15\n",
}

CASES = {
    "segment_lambda": ("segment", "series.csv", "--lambda", "0.3"),
    "segment_count_verify": ("segment", "series.csv", "--count", "3", "--verify"),
    "segment_count_range_count": (
        "segment", "series.csv", "--semiring", "count", "--count-range", "2", "4", "--verify",
    ),
    "segment_min_length_table": (
        "segment", "series.csv", "--min-length", "3", "--model", "constant",
        "--lambda", "0.5", "--out-table", "table.csv",
    ),
    "segment_count_table": (
        "segment", "series.csv", "--count", "3", "--lambda", "0.25", "--out-table", "table.csv",
    ),
    "segment_minplus_header": (
        "segment", "header.csv", "--header", "--semiring", "minplus", "--count", "2",
    ),
    "align_plain_verify": ("align", "a.txt", "b.txt", "--verify"),
    "align_witness_sum": (
        "align", "a.txt", "b.txt", "--semiring", "viterbi:minplus", "--sum-misalign", "4",
        "--verify",
    ),
    "align_max_maxplus": (
        "align", "a.txt", "b.txt", "--semiring", "maxplus", "--max-misalign", "1",
        "--gap-cost", "2", "--mismatch-cost", "0.5", "--verify",
    ),
    "align_count_paths_tokens": (
        "align", "tokens_a.txt", "tokens_b.txt", "--tokens", "--count-paths", "--verify",
    ),
    "align_sweep_table": (
        "align", "long_a.txt", "long_b.txt", "--sweep", "2,4,8", "--out-table", "table.csv",
    ),
    "align_cap_skip": ("align", "long_a.txt", "long_b.txt", "--verify"),
    "events_exact_verify": ("events", "probs.txt", "-M", "3", "--verify"),
    "events_viterbi_verify": ("events", "probs.txt", "-M", "2", "--mode", "viterbi", "--verify"),
    "lis_lt_verify": ("lis", "values.txt", "--verify"),
    "lis_subset_demo": ("lis", "masks.txt", "--relation", "subset-demo"),
    "bench_combinations": (
        "bench", "--op", "combinations", "--sizes", "4,9", "--out-table", "table.csv",
    ),
    "bench_align": ("bench", "--op", "align", "--sizes", "3,5"),
    "bench_align_sum": ("bench", "--op", "align-sum", "--sizes", "3,5"),
}


def _without_seconds(rows):
    return [row[:3] for row in rows]


def run_case(name: str, tmp_path: Path) -> tuple[int, str, str | None]:
    """Exit code, normalized document and normalized table of one case."""
    for file, text in INPUTS.items():
        (tmp_path / file).write_text(text)
    argv = [str(tmp_path / a) if a in INPUTS or a == "table.csv" else a for a in CASES[name]]
    out = tmp_path / "result.json"
    code = main([*argv, "--out", str(out)])
    doc = json.loads(out.read_text())
    timed = "sweep" in doc or doc["command"] == "bench"
    doc.pop("wall_time_s")
    if "sweep" in doc:
        doc["sweep"] = _without_seconds(doc["sweep"])
    if "table" in doc:
        doc["table"] = _without_seconds(doc["table"])
    table = None
    if "table.csv" in CASES[name]:
        rows = [line.split(",") for line in (tmp_path / "table.csv").read_text().splitlines()]
        table = "\n".join(",".join(row[:3] if timed else row) for row in rows) + "\n"
    return code, canonical_json(doc).replace(str(tmp_path), "TMP") + "\n", table


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_document(name, tmp_path):
    code, doc, table = run_case(name, tmp_path)
    assert code == 0
    assert doc == (GOLDEN / f"{name}.json").read_text()
    if table is not None:
        assert table == (GOLDEN / f"{name}.csv").read_text()
