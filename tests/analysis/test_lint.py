"""Invariant-linter rules: a positive and negative fixture per rule,
suppression comments, output formats, CLI exit codes — and the real
tree staying clean."""

import json
from pathlib import Path
import textwrap

import pytest

from repro import cli
from repro.analysis.lint import (
    ALL_RULES,
    lint_file,
    render_json,
    render_text,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write(tmp_path, relative, source):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _rules(findings):
    return sorted({f.rule for f in findings})


class TestHistoryConcat:
    def test_flags_concat_of_accumulated_state(self, tmp_path):
        path = _write(tmp_path, "state.py", """\
            import numpy as np

            class State:
                def consume_delta(self, part):
                    self.history.append(part)
                    return np.concatenate(self.history)
            """)
        findings = lint_file(path)
        assert _rules(findings) == ["history-concat"]
        assert "consume_delta" in findings[0].message

    def test_bounded_batch_concat_is_fine(self, tmp_path):
        # First argument is a list literal (state grown by one batch),
        # not the accumulated history itself.
        path = _write(tmp_path, "state.py", """\
            import numpy as np

            class State:
                def consume_delta(self, part):
                    self._card = np.concatenate([self._card, part])
                    return self._card
            """)
        assert lint_file(path) == []

    def test_concat_outside_consume_is_fine(self, tmp_path):
        path = _write(tmp_path, "state.py", """\
            import numpy as np

            class State:
                def finalize(self):
                    return np.concatenate(self.history)
            """)
        assert lint_file(path) == []


class TestLockSleep:
    def test_flags_sleep_under_lock(self, tmp_path):
        path = _write(tmp_path, "sched.py", """\
            import time

            class Scheduler:
                def step(self):
                    with self._lock:
                        time.sleep(0.1)
            """)
        findings = lint_file(path)
        assert _rules(findings) == ["lock-sleep"]

    def test_flags_file_io_under_condition(self, tmp_path):
        path = _write(tmp_path, "sched.py", """\
            class Scheduler:
                def step(self):
                    with self._cond:
                        open("state.json").read()
            """)
        findings = lint_file(path)
        assert _rules(findings) == ["lock-sleep"]

    def test_sleep_off_lock_is_fine(self, tmp_path):
        path = _write(tmp_path, "sched.py", """\
            import time

            class Scheduler:
                def step(self):
                    with self._lock:
                        work = self.queue.pop()
                    time.sleep(0.1)
                    return work
            """)
        assert lint_file(path) == []

    def test_non_lock_context_is_fine(self, tmp_path):
        path = _write(tmp_path, "io.py", """\
            import time

            def snapshot(path):
                with open(path) as handle:
                    time.sleep(0.01)
                    return handle.read()
            """)
        assert lint_file(path) == []


class TestBareBenchAssert:
    def test_flags_threshold_assert_in_benchmarks(self, tmp_path):
        path = _write(tmp_path, "benchmarks/bench_x.py", """\
            def test_speedup(guard):
                speedup = 2.0
                assert speedup > 1.5
            """)
        findings = lint_file(path)
        assert _rules(findings) == ["bare-bench-assert"]

    def test_guard_call_is_fine(self, tmp_path):
        path = _write(tmp_path, "benchmarks/bench_x.py", """\
            def test_speedup(guard):
                speedup = 2.0
                guard("speedup", speedup, 1.5, op=">")
            """)
        assert lint_file(path) == []

    def test_structural_asserts_are_fine(self, tmp_path):
        path = _write(tmp_path, "benchmarks/bench_x.py", """\
            def test_shape(rows):
                assert rows[-1] > rows[0]
                assert len(rows) == len(set(rows))
                assert rows, "rows must not be empty"
            """)
        assert lint_file(path) == []

    def test_same_assert_outside_benchmarks_is_fine(self, tmp_path):
        path = _write(tmp_path, "tests/test_x.py", """\
            def test_speedup():
                speedup = 2.0
                assert speedup > 1.5
            """)
        assert lint_file(path) == []


class TestUnseededRandom:
    def test_flags_wall_clock_in_retry(self, tmp_path):
        path = _write(tmp_path, "service/retry.py", """\
            import time

            def backoff_until(attempt):
                return time.time() + 2 ** attempt
            """)
        findings = lint_file(path)
        assert _rules(findings) == ["unseeded-random"]

    def test_flags_global_random_in_faults(self, tmp_path):
        path = _write(tmp_path, "testing/faults.py", """\
            import random

            def should_fail():
                return random.random() < 0.5
            """)
        findings = lint_file(path)
        assert _rules(findings) == ["unseeded-random"]

    def test_flags_unseeded_default_rng(self, tmp_path):
        path = _write(tmp_path, "testing/faults.py", """\
            import numpy as np

            def schedule():
                return np.random.default_rng()
            """)
        findings = lint_file(path)
        assert _rules(findings) == ["unseeded-random"]

    def test_seeded_rng_is_fine(self, tmp_path):
        path = _write(tmp_path, "testing/faults.py", """\
            import numpy as np

            def schedule(seed):
                return np.random.default_rng(seed)
            """)
        assert lint_file(path) == []

    def test_other_modules_unrestricted(self, tmp_path):
        path = _write(tmp_path, "bench/report.py", """\
            import time

            def stamp():
                return time.time()
            """)
        assert lint_file(path) == []


class TestLocalImport:
    def test_flags_local_import_in_hot_path(self, tmp_path):
        path = _write(tmp_path, "engine/ops/filter.py", """\
            def apply(frame):
                import numpy as np
                return np.asarray(frame)
            """)
        findings = lint_file(path)
        assert _rules(findings) == ["local-import"]

    def test_module_scope_import_is_fine(self, tmp_path):
        path = _write(tmp_path, "engine/ops/filter.py", """\
            import numpy as np

            def apply(frame):
                return np.asarray(frame)
            """)
        assert lint_file(path) == []

    def test_cold_path_local_import_is_fine(self, tmp_path):
        path = _write(tmp_path, "api/context.py", """\
            def serve():
                import asyncio
                return asyncio.new_event_loop()
            """)
        assert lint_file(path) == []


class TestMetricHotLookup:
    def test_flags_registry_lookup_in_consume(self, tmp_path):
        path = _write(tmp_path, "ops.py", """\
            class Agg:
                def consume_delta(self, message):
                    self.registry.counter("rows_total").inc(
                        message.n_rows
                    )
            """)
        findings = lint_file(path)
        assert _rules(findings) == ["metric-hot-lookup"]
        assert "pre-bind" in findings[0].message

    def test_flags_label_dict_literal_in_step(self, tmp_path):
        path = _write(tmp_path, "sched.py", """\
            class Scheduler:
                def step(self):
                    self.steps.inc(labels={"session": self.name})
            """)
        findings = lint_file(path)
        assert _rules(findings) == ["metric-hot-lookup"]
        assert "dict per" in findings[0].message

    def test_flags_lookup_in_next(self, tmp_path):
        path = _write(tmp_path, "scan.py", """\
            class Stream:
                def __next__(self):
                    self.registry.histogram("lat").observe(0.1)
            """)
        assert _rules(lint_file(path)) == ["metric-hot-lookup"]

    def test_prebound_instrument_call_is_fine(self, tmp_path):
        path = _write(tmp_path, "ops.py", """\
            class Agg:
                def __init__(self, registry):
                    self._rows = registry.counter("rows_total")

                def consume_delta(self, message):
                    self._rows.inc(message.n_rows)
            """)
        assert lint_file(path) == []

    def test_lookup_outside_hot_bodies_is_fine(self, tmp_path):
        path = _write(tmp_path, "wiring.py", """\
            def build(registry):
                return registry.counter(
                    "rows_total", labels={"table": "sales"}
                )
            """)
        assert lint_file(path) == []


class TestRowLoop:
    def test_flags_row_materialisation_in_hot_path(self, tmp_path):
        path = _write(tmp_path, "dataframe/groupby.py", """\
            def encode(keys):
                for row in keys.iter_rows():
                    yield row

            def dump(frame):
                return frame.to_records()
            """)
        findings = lint_file(path)
        assert _rules(findings) == ["row-loop"]
        assert [f.line for f in findings] == [2, 6]

    def test_flags_loops_over_tolist(self, tmp_path):
        path = _write(tmp_path, "core/orderstat.py", """\
            def merge(starts, ends, values):
                for lo, hi in zip(starts.tolist(), ends.tolist()):
                    values[lo:hi].sort()
                return [v * 2 for v in values.tolist()]
            """)
        findings = lint_file(path)
        assert _rules(findings) == ["row-loop"]
        assert [f.line for f in findings] == [2, 4]
        assert "vectorise" in findings[0].message

    def test_tolist_without_a_loop_is_fine(self, tmp_path):
        path = _write(tmp_path, "engine/ops/sort.py", """\
            def describe(values, columns):
                names = {n: arr.tolist() for n, arr in columns.items()}
                return values.tolist(), names
            """)
        assert lint_file(path) == []

    def test_cold_path_row_loops_are_fine(self, tmp_path):
        path = _write(tmp_path, "storage/partition.py", """\
            def write_csv(frame, out):
                for row in frame.iter_rows():
                    out.write(",".join(map(str, row)))
            """)
        assert lint_file(path) == []

    def test_allow_comment_suppresses(self, tmp_path):
        path = _write(tmp_path, "dataframe/frame.py", """\
            def iter_rows(self):
                return iter(self.to_records())  # lint: allow(row-loop)
            """)
        assert lint_file(path) == []

    def test_state_modules_need_no_exemption(self):
        """core/, the grouper and the operators are clean on merit, not
        by annotation."""
        sources = [
            *(REPO_ROOT / "src/repro/core").glob("*.py"),
            *(REPO_ROOT / "src/repro/engine/ops").glob("*.py"),
            REPO_ROOT / "src/repro/dataframe/groupby.py",
        ]
        assert len(sources) > 15
        for path in sources:
            assert "allow(row-loop)" not in path.read_text(), path


class TestEngineThreading:
    @pytest.mark.parametrize("statement", [
        "import threading",
        "import queue as q",
        "from queue import Queue",
        "from concurrent.futures import ThreadPoolExecutor",
        "import concurrent.futures",
    ])
    @pytest.mark.parametrize("relative", [
        "engine/executor.py", "engine/ops/exchange.py", "core/state.py",
        "dataframe/groupby.py", "storage/partition.py",
    ])
    def test_flags_concurrency_imports(self, tmp_path, relative,
                                       statement):
        path = _write(tmp_path, relative, statement + "\n")
        assert _rules(lint_file(path)) == ["engine-threading"]

    def test_function_local_import_is_caught_too(self, tmp_path):
        path = _write(tmp_path, "engine/executor.py", """\
            def run():
                import threading
                return threading.Thread
            """)
        assert "engine-threading" in _rules(lint_file(path))

    def test_service_and_obs_may_use_threads(self, tmp_path):
        for relative in ("service/scheduler.py", "obs/metrics.py",
                         "api/context.py"):
            path = _write(tmp_path, relative, "import threading\n")
            assert lint_file(path) == []

    def test_lookalike_modules_are_fine(self, tmp_path):
        path = _write(tmp_path, "engine/executor.py", """\
            import queueing
            from collections import deque
            from . import threading
            """)
        assert lint_file(path) == []

    def test_engine_needs_no_exemption(self):
        """The single-threaded layers pass without a suppression."""
        for layer in ("engine", "core", "dataframe", "storage"):
            for path in (REPO_ROOT / "src" / "repro" / layer).rglob(
                    "*.py"):
                assert "allow(engine-threading)" not in path.read_text()


class TestSuppression:
    def test_allow_comment_suppresses_one_rule(self, tmp_path):
        path = _write(tmp_path, "engine/ops/filter.py", """\
            def apply(frame):
                import numpy as np  # lint: allow(local-import)
                return np.asarray(frame)
            """)
        assert lint_file(path) == []

    def test_allow_comment_is_rule_specific(self, tmp_path):
        path = _write(tmp_path, "engine/ops/filter.py", """\
            def apply(frame):
                import numpy as np  # lint: allow(lock-sleep)
                return np.asarray(frame)
            """)
        assert _rules(lint_file(path)) == ["local-import"]


class TestDriverAndFormats:
    def test_run_lint_sorts_and_recurses(self, tmp_path):
        _write(tmp_path, "engine/ops/b.py", """\
            def apply(frame):
                import numpy
                return numpy
            """)
        _write(tmp_path, "engine/ops/a.py", """\
            def apply(frame):
                import numpy
                return numpy
            """)
        findings = run_lint([tmp_path])
        assert [Path(f.path).name for f in findings] == ["a.py", "b.py"]

    def test_render_text_and_json(self, tmp_path):
        path = _write(tmp_path, "engine/ops/a.py", """\
            def apply(frame):
                import numpy
                return numpy
            """)
        findings = run_lint([path])
        text = render_text(findings)
        assert "[local-import]" in text
        assert "1 finding(s)" in text
        payload = json.loads(render_json(findings))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "local-import"
        assert payload["findings"][0]["line"] == 2
        assert render_text([]) == "lint: clean"
        assert json.loads(render_json([]))["count"] == 0

    def test_every_rule_has_a_name(self):
        names = [rule.name for rule in ALL_RULES]
        assert len(names) == len(set(names)) == 8


class TestCli:
    def test_exit_codes_and_output(self, tmp_path, capsys):
        dirty = _write(tmp_path, "engine/ops/a.py", """\
            def apply(frame):
                import numpy
                return numpy
            """)
        assert cli.main(["lint", str(dirty)]) == 1
        assert "[local-import]" in capsys.readouterr().out
        clean = _write(tmp_path, "clean.py", "X = 1\n")
        assert cli.main(["lint", str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        dirty = _write(tmp_path, "engine/ops/a.py", """\
            def apply(frame):
                import numpy
                return numpy
            """)
        assert cli.main(["lint", "--format", "json", str(dirty)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1


@pytest.mark.parametrize("tree", ["src", "benchmarks"])
def test_real_tree_is_clean(tree):
    """The linted invariants hold over the actual codebase — the same
    check CI runs as a blocking job."""
    findings = run_lint([REPO_ROOT / tree])
    assert findings == [], render_text(findings)
