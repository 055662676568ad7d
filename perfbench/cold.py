"""Time a fresh interpreter's import of semiring_dp.cli through its first call.

    PYTHONPATH=src python3 perfbench/cold.py <semiring-dp arguments...>

Prints one JSON line: {"seconds", "code", "out"}, where ``out`` is the
result document the call wrote to standard output.
"""

import contextlib
import io
import json
import sys
from time import perf_counter

start = perf_counter()
from semiring_dp import cli  # noqa: E402  (the import is part of what is timed)

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
elapsed = perf_counter() - start
print(json.dumps({"seconds": elapsed, "code": code, "out": out.getvalue()}))
