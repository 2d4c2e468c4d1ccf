"""Tier-1 check of the repo benchmark at smoke scale (SF 0.005, one
round): the contract between ``BENCHMARK.json``, ``run.py`` and the
driver holds for every workload, finals match the oracle, and the
exact counters repeat.  Timings are not judged here."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARATION = json.loads(
    (HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Per-layer counters that depend only on the seed.
EXACT = ("storage.partitions_read", "storage.partitions_pruned",
         "engine.steps", "engine.snapshots", "service.cache.hits",
         "service.cache.misses")
SPAN_KEYS = {"id", "name", "start", "end", "parent", "query_id"}


def _start(workload, trace, out_dir, tag):
    dump = out_dir / f"{workload}.{tag}.json"
    spans = out_dir / f"{workload}.{tag}.spans.json"
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--smoke", "--trace", str(trace),
         "--json", str(dump), "--spans", str(spans)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    return process, dump, spans


def _finish(started):
    process, dump, spans = started
    stdout, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stdout + stderr
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line, json.loads(dump.read_text()), spans


def _check_metrics(line, declared):
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert NAME.fullmatch(metric["name"])
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] != 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_contract(workload, tmp_path):
    # The three runs are independent processes; on the 2-cpu box
    # starting them together halves the test's wall time.
    runs = [_start(workload, 0, tmp_path, "e2e"),
            _start(workload, 1, tmp_path, "trace-a"),
            _start(workload, 1, tmp_path, "trace-b")]
    (end_to_end, _dump, _), (first, first_dump, spans), (second, _d, _) = (
        _finish(run) for run in runs)

    _check_metrics(end_to_end, DECLARATION["end_to_end"])
    for metric in end_to_end["metrics"].values():
        assert metric["value"] != 0

    for traced in (first, second):
        _check_metrics(traced, DECLARATION["per_layer"])
    for name in first_dump["not_applicable"]:
        assert first["metrics"][name]["value"] == 0
    for name in EXACT:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name
    for key in ("commit", "nproc", "load1_at_start", "noisy_host",
                "python", "numpy", "preset", "seed", "thread_pins"):
        assert key in first_dump["env"]

    recorded = json.loads(spans.read_text())
    assert recorded
    assert all(set(span) == SPAN_KEYS for span in recorded)
