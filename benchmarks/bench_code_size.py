"""Code-size trajectory (ROADMAP aim 2: "net-negative line counts are a
result to report").

Records the physical line count of everything under ``src/`` in
``BENCH_summary.json`` next to the perf guards, so the per-commit
artifact shows whether the codebase grew or shrank.  Informational: it
has no threshold and never fails.
"""

from pathlib import Path

from conftest import SUMMARY_PATH

from repro.bench.report import GuardLog

SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_lines_recorded():
    lines = sum(
        len(path.read_bytes().splitlines())
        for path in SRC.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    GuardLog(SUMMARY_PATH).record(
        benchmark="code_size", metric="src_lines", value=float(lines),
        threshold=0.0, op=">=",
    )
