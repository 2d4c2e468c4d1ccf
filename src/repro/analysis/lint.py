"""AST-based invariant linter (layer 2 of the static-analysis
subsystem): ``python -m repro lint``.

The ROADMAP states several engine invariants only as prose; each lint
rule here encodes one of them as a machine check over the syntax tree,
so the regression classes earlier PRs spent whole cycles killing cannot
quietly return:

* ``history-concat`` — concatenating an accumulated ``self.*`` history
  inside a ``consume``/``consume_delta``/``consume_snapshot`` body (the
  O(total-consumed)-per-message regression class; state must be folded
  incrementally, never re-concatenated wholesale on the hot path);
* ``lock-sleep`` — ``time.sleep`` or file I/O while holding a
  lock/condition (``with self._lock: ...``); blocking under the lock
  stalls every thread that waits for it;
* ``bare-bench-assert`` — a threshold-style ``assert`` (an inequality
  against a numeric constant) in ``benchmarks/`` instead of
  ``guard(...)``, which records the measured value into
  ``BENCH_summary.json`` and supports override knobs;
* ``unseeded-random`` — unseeded randomness or wall-clock dependence in
  replay-critical modules (``service/retry.py``, ``testing/faults.py``):
  fault schedules and retry backoff must be deterministic functions of
  their inputs or crash replay diverges;
* ``local-import`` — function-local imports in operator hot paths
  (``engine/ops/``, ``dataframe/``, ``core/``): a per-message import
  lookup on the data path is avoidable overhead and hides the module's
  real dependency surface;
* ``metric-hot-lookup`` — registry instrument lookups
  (``.counter()``/``.gauge()``/``.histogram()``/``.register_view()``)
  or per-call ``labels={...}`` dict allocation inside ``consume*``,
  ``step()``, or ``__next__`` bodies: hot-path telemetry must use
  instruments pre-bound at construction (see :mod:`repro.obs`), so the
  per-message cost is one attribute call, not a dict build plus a
  registry dictionary lookup;
* ``row-loop`` — ``iter_rows()``, ``to_records()`` or a loop over
  ``.tolist()`` in operator hot paths (``engine/ops/``, ``dataframe/``,
  ``core/``): a Python iteration per row or per group turns a
  vectorised per-message cost into interpreter time that grows with the
  data (the multi-key ``Grouper`` spent 71 % of a depth-8 chain there);
* ``engine-threading`` — importing ``threading``, ``queue`` or
  ``concurrent.futures`` under ``engine/``, ``core/``, ``dataframe/`` or
  ``storage/``: operators and the executor are single-threaded and
  concurrency lives in ``service/`` and ``obs/`` (threads inside the
  engine measured 0.66x under the GIL; bringing them back needs a
  measurement and a review, not an import).

A finding on a line containing ``lint: allow(<rule>)`` is suppressed —
the escape hatch for deliberate exceptions (optional-dependency gating,
import cycles), which must justify themselves in the comment.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator

#: Hot-path directories for the ``local-import`` and ``row-loop`` rules
#: (posix fragments matched against the file's path).
_HOT_PATH_FRAGMENTS = ("/engine/ops/", "/dataframe/", "/core/")

#: Single-threaded layers for the ``engine-threading`` rule.
_SINGLE_THREADED_FRAGMENTS = (
    "/engine/", "/core/", "/dataframe/", "/storage/",
)

#: Replay-critical modules for the ``unseeded-random`` rule.
_REPLAY_CRITICAL = ("service/retry.py", "testing/faults.py")

#: ``with`` context expressions that look like locks/conditions.
_LOCKISH = re.compile(r"lock|cond|_work|mutex", re.IGNORECASE)

_ALLOW = re.compile(r"lint:\s*allow\(([a-z-]+)\)")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return asdict(self)

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"[{self.rule}] {self.message}"
        )


class _FileContext:
    """One parsed file plus the path predicates rules scope on."""

    def __init__(self, path: Path, source: str) -> None:
        self.path = path
        self.posix = path.as_posix()
        self.tree = ast.parse(source, filename=str(path))
        self.lines = source.splitlines()

    def in_benchmarks(self) -> bool:
        return (
            "benchmarks" in self.path.parts
            and self.path.name != "conftest.py"
        )

    def in_hot_path(self) -> bool:
        return any(f in self.posix for f in _HOT_PATH_FRAGMENTS)

    def replay_critical(self) -> bool:
        return any(self.posix.endswith(m) for m in _REPLAY_CRITICAL)

    def allowed(self, rule: str, line: int) -> bool:
        """True when the 1-indexed ``line`` carries a suppression
        comment for ``rule``."""
        if not 1 <= line <= len(self.lines):
            return False
        return rule in _ALLOW.findall(self.lines[line - 1])


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class LintRule:
    """One invariant check: ``check`` yields findings for a file."""

    name = "?"

    def check(self, ctx: _FileContext) -> Iterator[LintFinding]:
        raise NotImplementedError

    def _finding(self, ctx: _FileContext, node: ast.AST,
                 message: str) -> LintFinding:
        return LintFinding(
            rule=self.name,
            path=str(ctx.path),
            line=node.lineno,
            col=node.col_offset,
            message=message,
        )


def _is_call_to(node: ast.Call, attrs: tuple[str, ...],
                names: tuple[str, ...] = ()) -> str | None:
    """The matched callable name when ``node`` calls ``<x>.<attr>`` for
    an ``attr`` in ``attrs`` (or a bare ``name`` in ``names``)."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in attrs:
        return func.attr
    if isinstance(func, ast.Name) and func.id in names:
        return func.id
    return None


def _references_self_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and isinstance(
        node.value, ast.Name
    ) and node.value.id == "self"


class HistoryConcatRule(LintRule):
    """Flag wholesale re-concatenation of accumulated state inside
    ``consume*`` bodies.

    The regression shape is ``concat(self.<history>)`` — folding the
    entire accumulated list per message, O(total-consumed).  Growing a
    state array by a bounded batch (``concatenate([self.x, new])``)
    passes a *list literal*, not the history attribute itself, and is
    amortized-fine, so only a direct ``self.*`` argument fires.
    """

    name = "history-concat"

    _CONSUME = ("consume", "consume_delta", "consume_snapshot")

    def check(self, ctx: _FileContext) -> Iterator[LintFinding]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name not in self._CONSUME:
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                called = _is_call_to(node, ("concat", "concatenate"))
                if called is None or not node.args:
                    continue
                if _references_self_attr(node.args[0]):
                    yield self._finding(
                        ctx, node,
                        f"{called}() over accumulated state "
                        f"{ast.unparse(node.args[0])} inside "
                        f"{fn.name}(): per-message cost grows with "
                        f"total consumed; fold increments instead",
                    )


class LockSleepRule(LintRule):
    """Flag ``time.sleep`` / file I/O inside lock-holding ``with``
    blocks."""

    name = "lock-sleep"

    _IO_ATTRS = (
        "sleep", "read_text", "write_text", "read_bytes",
        "write_bytes", "unlink",
    )
    _IO_NAMES = ("open", "sleep")

    def check(self, ctx: _FileContext) -> Iterator[LintFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.With):
                continue
            if not any(
                _LOCKISH.search(ast.unparse(item.context_expr))
                for item in node.items
            ):
                continue
            for stmt in node.body:
                for call in ast.walk(stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    called = _is_call_to(
                        call, self._IO_ATTRS, self._IO_NAMES
                    )
                    if called is not None:
                        yield self._finding(
                            ctx, call,
                            f"{called}() while holding a lock blocks "
                            f"every other thread on it; move the "
                            f"blocking call off-lock",
                        )


class BareBenchAssertRule(LintRule):
    """Flag threshold-style asserts in ``benchmarks/``.

    An inequality against a numeric constant is a performance/accuracy
    threshold; it belongs in ``guard(...)`` so the measured value and
    the threshold land in ``BENCH_summary.json`` and respect override
    knobs.  Structural parity asserts (equality, constant-free
    comparisons) are left alone.
    """

    name = "bare-bench-assert"

    _INEQ = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)

    def check(self, ctx: _FileContext) -> Iterator[LintFinding]:
        if not ctx.in_benchmarks():
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assert):
                continue
            if self._has_threshold_compare(node.test):
                yield self._finding(
                    ctx, node,
                    "threshold assert in a benchmark; use "
                    "guard(metric, value, threshold, op=...) so the "
                    "measurement is recorded in BENCH_summary.json",
                )

    def _has_threshold_compare(self, test: ast.expr) -> bool:
        for node in ast.walk(test):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, self._INEQ) for op in node.ops):
                continue
            for side in (node.left, *node.comparators):
                if self._has_numeric_constant(side):
                    return True
        return False

    def _has_numeric_constant(self, node: ast.expr) -> bool:
        """True when ``node`` contains a numeric literal outside
        subscript indices (``xs[-1] < xs[0]`` is a *relative*
        comparison, not a threshold)."""
        if isinstance(node, ast.Constant):
            return isinstance(
                node.value, (int, float)
            ) and not isinstance(node.value, bool)
        if isinstance(node, ast.Subscript):
            return self._has_numeric_constant(node.value)
        return any(
            self._has_numeric_constant(child)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        )


class UnseededRandomRule(LintRule):
    """Flag wall-clock and unseeded-randomness calls in replay-critical
    modules."""

    name = "unseeded-random"

    _CLOCK_ATTRS = (
        "time", "monotonic", "perf_counter", "now", "utcnow",
    )
    _RANDOM_MODULE_FNS = (
        "random", "randint", "randrange", "choice", "shuffle",
        "uniform", "sample", "getrandbits",
    )

    def check(self, ctx: _FileContext) -> Iterator[LintFinding]:
        if not ctx.replay_critical():
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            base_name = base.id if isinstance(base, ast.Name) else None
            if base_name in ("time", "datetime") and (
                func.attr in self._CLOCK_ATTRS
            ):
                yield self._finding(
                    ctx, node,
                    f"{base_name}.{func.attr}() in a replay-critical "
                    f"module: schedules must be deterministic "
                    f"functions of their inputs",
                )
            elif base_name == "random" and (
                func.attr in self._RANDOM_MODULE_FNS
            ):
                yield self._finding(
                    ctx, node,
                    f"random.{func.attr}() uses the unseeded global "
                    f"generator; derive a seeded Generator from the "
                    f"schedule inputs instead",
                )
            elif func.attr == "default_rng" and not (
                node.args or node.keywords
            ):
                yield self._finding(
                    ctx, node,
                    "default_rng() without a seed is entropy-seeded; "
                    "replay-critical randomness must be seeded from "
                    "the schedule inputs",
                )


class LocalImportRule(LintRule):
    """Flag function-local imports in operator hot-path modules."""

    name = "local-import"

    def check(self, ctx: _FileContext) -> Iterator[LintFinding]:
        if not ctx.in_hot_path():
            return
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield self._finding(
                        ctx, node,
                        f"function-local import inside {fn.name}() on "
                        f"an operator hot path; import at module scope "
                        f"(or justify with lint: allow(local-import))",
                    )


class MetricHotLookupRule(LintRule):
    """Flag registry lookups / label-dict allocation in hot bodies.

    The telemetry design pre-binds instruments once (a
    ``ScanInstruments``/``SchedulerInstruments`` bundle held as an
    attribute) so the metered hot path pays one attribute call per
    event.  Calling ``registry.counter(...)`` — a lock + dict lookup +
    possible allocation — or building a ``labels={...}`` dict inside a
    per-message body silently reintroduces the overhead the
    ``obs_overhead_ratio`` perf guard bounds.
    """

    name = "metric-hot-lookup"

    _HOT_FNS = (
        "consume", "consume_delta", "consume_snapshot", "step",
        "__next__",
    )
    _REGISTRY_ATTRS = ("counter", "gauge", "histogram", "register_view")

    def check(self, ctx: _FileContext) -> Iterator[LintFinding]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name not in self._HOT_FNS:
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                called = _is_call_to(node, self._REGISTRY_ATTRS)
                if called is not None:
                    yield self._finding(
                        ctx, node,
                        f".{called}() inside {fn.name}() re-resolves "
                        f"the instrument per message; pre-bind it at "
                        f"construction and call the bound instrument",
                    )
                    continue
                for kw in node.keywords:
                    if kw.arg == "labels" and isinstance(
                        kw.value, ast.Dict
                    ):
                        yield self._finding(
                            ctx, node,
                            f"labels={{...}} literal inside "
                            f"{fn.name}() allocates a dict per "
                            f"message; pre-bind a labeled instrument "
                            f"at construction instead",
                        )


class RowLoopRule(LintRule):
    """Flag per-row Python iteration in operator hot-path modules."""

    name = "row-loop"

    _ROW_METHODS = ("iter_rows", "to_records")

    def check(self, ctx: _FileContext) -> Iterator[LintFinding]:
        if not ctx.in_hot_path():
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                called = _is_call_to(node, self._ROW_METHODS)
                if called is not None:
                    yield self._finding(
                        ctx, node,
                        f"{called}() materialises python tuples per row "
                        f"on an operator hot path; use column kernels",
                    )
            elif isinstance(node, (ast.For, ast.comprehension)):
                if any(
                    isinstance(call, ast.Call)
                    and _is_call_to(call, ("tolist",))
                    for call in ast.walk(node.iter)
                ):
                    where = node if isinstance(node, ast.For) else node.iter
                    yield self._finding(
                        ctx, where,
                        "python loop over .tolist() on an operator hot "
                        "path: per-element interpreter cost; vectorise "
                        "(searchsorted / reduceat / bisect_batch)",
                    )


class EngineThreadingRule(LintRule):
    """Flag thread / queue / pool imports in the single-threaded layers."""

    name = "engine-threading"

    _MODULES = ("threading", "queue", "concurrent")

    def check(self, ctx: _FileContext) -> Iterator[LintFinding]:
        if not any(f in ctx.posix for f in _SINGLE_THREADED_FRAGMENTS):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.split(".")[0] in self._MODULES:
                    yield self._finding(
                        ctx, node,
                        f"import of {module} in a single-threaded "
                        f"layer; concurrency belongs in service/ or "
                        f"obs/",
                    )


ALL_RULES: tuple[LintRule, ...] = (
    HistoryConcatRule(),
    LockSleepRule(),
    BareBenchAssertRule(),
    UnseededRandomRule(),
    LocalImportRule(),
    MetricHotLookupRule(),
    RowLoopRule(),
    EngineThreadingRule(),
)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
            continue
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if "__pycache__" in child.parts:
                    continue
                yield child


def lint_file(
    path: Path, rules: Iterable[LintRule] = ALL_RULES
) -> list[LintFinding]:
    """All unsuppressed findings for one file."""
    ctx = _FileContext(path, path.read_text())
    findings = []
    for rule in rules:
        for finding in rule.check(ctx):
            if not ctx.allowed(rule.name, finding.line):
                findings.append(finding)
    return findings


def run_lint(
    paths: Iterable[Path | str],
    rules: Iterable[LintRule] = ALL_RULES,
) -> list[LintFinding]:
    """Lint every ``*.py`` under ``paths``; findings sorted by
    location."""
    rules = tuple(rules)
    findings: list[LintFinding] = []
    for path in _python_files(Path(p) for p in paths):
        findings.extend(lint_file(path, rules))
    return sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule)
    )


def render_text(findings: list[LintFinding]) -> str:
    if not findings:
        return "lint: clean"
    lines = [f.format() for f in findings]
    lines.append(f"lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: list[LintFinding]) -> str:
    return json.dumps(
        {
            "findings": [f.to_dict() for f in findings],
            "count": len(findings),
        },
        indent=2,
    )
