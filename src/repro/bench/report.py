"""Plain-text tables and series for the benchmark reports.

Benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep that output aligned and diff-able (the bench
harness tees stdout into ``bench_output.txt``).
"""

from __future__ import annotations

import json
import math
import operator
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence


def fmt(value: object, width: int = 0) -> str:
    """Human formatting: 3 significant figures for floats, NaN-safe."""
    if isinstance(value, float):
        if math.isnan(value):
            text = "nan"
        elif value == 0:
            text = "0"
        elif abs(value) >= 1000:
            text = f"{value:,.0f}"
        elif abs(value) >= 1:
            text = f"{value:.3g}"
        else:
            text = f"{value:.3g}"
    else:
        text = str(value)
    return text.rjust(width) if width else text


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width table with a header rule."""
    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def line(parts: Sequence[str]) -> str:
        return "  ".join(p.rjust(w) for p, w in zip(parts, widths))

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def banner(title: str) -> str:
    rule = "=" * len(title)
    return f"\n{rule}\n{title}\n{rule}"


#: Comparison operators a perf guard may assert with.
GUARD_OPS = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
    "==": operator.eq,
}


class GuardLog:
    """Machine-readable perf-guard trajectory (``BENCH_summary.json``).

    Each :meth:`record` upserts one guard result — benchmark name,
    metric, threshold, measured value, pass/fail, UTC timestamp — keyed
    by ``(benchmark, metric)``, and rewrites the summary file.  Merging
    by key (instead of truncating per session) means a partial local run
    of one benchmark file refreshes only its own guards and never
    clobbers the rest of the recorded trajectory; a partially-failed run
    still records every guard that executed.  CI runs every guard
    benchmark and uploads the file per commit, turning the perf guards
    from a pass/fail bit into a recorded trajectory.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def _load(self) -> dict:
        if self.path.exists():
            try:
                return json.loads(self.path.read_text())
            except json.JSONDecodeError:
                pass
        return {"guards": []}

    def record(
        self,
        benchmark: str,
        metric: str,
        value: float,
        threshold: float,
        op: str = ">=",
        passed: bool | None = None,
    ) -> bool:
        if op not in GUARD_OPS:
            raise ValueError(
                f"unknown guard op {op!r}; expected one of "
                f"{sorted(GUARD_OPS)}"
            )
        if passed is None:
            passed = bool(GUARD_OPS[op](value, threshold))
        doc = self._load()
        doc["guards"] = [
            g for g in doc.get("guards", [])
            if (g.get("benchmark"), g.get("metric")) != (benchmark, metric)
        ]
        doc["guards"].append(
            {
                "benchmark": benchmark,
                "metric": metric,
                "value": value,
                "threshold": threshold,
                "op": op,
                "passed": passed,
                "timestamp": datetime.now(timezone.utc).isoformat(),
            }
        )
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(doc, indent=2))
        return passed
