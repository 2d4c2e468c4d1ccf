"""Dependency-free metrics registry (counters, gauges, histograms).

Design constraints, in order:

* **Hot-path cost.**  Instruments are *pre-bound*: a call site obtains
  its :class:`Counter`/:class:`Gauge`/:class:`Histogram` once (at
  construction / submit time) and the per-event operation is a single
  locked integer/float update — no name lookup, no label-dict
  allocation, no string formatting.  The ``metric-hot-lookup`` lint
  rule (:mod:`repro.analysis.lint`) enforces this shape for
  ``consume*``/``step()``/``__next__`` bodies.
* **Zero cost when off.**  Telemetry off means no registry at all:
  the only residual cost at an instrumented call site is one ``is not
  None`` check.
* **Determinism.**  The clock is injectable (``clock=``, default
  ``time.monotonic``), so replay-critical callers can pass a virtual
  clock and the PR 8 ``unseeded-random`` lint stays satisfiable.
* **No drift.**  Subsystems that already keep authoritative counters
  (the scan-share pool, the result cache, the scheduler run queue)
  are exposed through *views* — collection-time callbacks — instead of
  shadow counters that could diverge (:meth:`MetricsRegistry.
  register_view`).

Exposition: :meth:`MetricsRegistry.to_dict` (JSON, the NDJSON
``metrics`` op) and :meth:`MetricsRegistry.render_prometheus`
(Prometheus text format 0.0.4, served by the snapshot server's
``GET /metrics`` responder).
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Callable, Mapping, Sequence

from repro.errors import QueryError

#: Latency buckets (seconds) shared by the step/lag histograms —
#: spanning sub-millisecond partition-steps up to multi-second stalls.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelSet = tuple[tuple[str, str], ...]


def _freeze_labels(labels: Mapping[str, str] | None) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing float (events, rows, bytes, seconds)."""

    kind = "counter"

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise QueryError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (depths, lags, sizes)."""

    kind = "gauge"

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram: O(log buckets) per observation, no
    allocation (the bucket counts are preallocated at construction)."""

    kind = "histogram"

    __slots__ = ("name", "labels", "_lock", "_uppers", "_counts",
                 "_sum", "_count")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: LabelSet = (),
    ) -> None:
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise QueryError(f"histogram {name!r} needs >= 1 bucket")
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._uppers = uppers
        # One slot per finite bucket plus the +Inf overflow slot.
        self._counts = [0] * (len(uppers) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self._uppers, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> dict:
        """Cumulative ``le``-keyed buckets plus sum/count (the
        Prometheus histogram contract)."""
        with self._lock:
            counts = list(self._counts)
            total, total_sum = self._count, self._sum
        cumulative: dict[str, int] = {}
        running = 0
        for upper, count in zip(self._uppers, counts):
            running += count
            cumulative[repr(upper)] = running
        cumulative["+Inf"] = total
        return {"buckets": cumulative, "sum": total_sum,
                "count": total}

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


class _View:
    """A collection-time callback over an authoritative external value
    (no shadow counter to drift).  ``fn`` returns either a number or a
    list of ``(labels-dict, number)`` pairs for labeled series."""

    __slots__ = ("name", "kind", "fn", "help")

    def __init__(self, name: str, kind: str,
                 fn: Callable[[], object], help: str) -> None:
        self.name = name
        self.kind = kind
        self.fn = fn
        self.help = help

    def samples(self) -> list[tuple[LabelSet, float]]:
        value = self.fn()
        if isinstance(value, (int, float)):
            return [((), float(value))]
        return [(_freeze_labels(labels), float(v))
                for labels, v in value]  # type: ignore[union-attr]


class MetricsRegistry:
    """Get-or-create instrument factory + exposition surface.

    Instruments are keyed by ``(name, labels)``; asking twice returns
    the same object, so wiring code can re-derive its bindings without
    double counting.  A name registered as one kind cannot be re-used
    as another.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.created_at = clock()
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, LabelSet], object] = {}
        self._meta: dict[str, tuple[str, str]] = {}  # name -> kind, help
        self._views: list[_View] = []

    # -- instrument factories -----------------------------------------------------
    def _get(self, cls, name: str, labels: Mapping[str, str] | None,
             help: str, **kwargs):
        frozen = _freeze_labels(labels)
        key = (name, frozen)
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if existing.kind != cls.kind:  # type: ignore[attr-defined]
                    raise QueryError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"  # type: ignore[attr-defined]
                    )
                return existing
            registered = self._meta.get(name)
            if registered is not None and registered[0] != cls.kind:
                raise QueryError(
                    f"metric {name!r} already registered as "
                    f"{registered[0]}, not {cls.kind}"
                )
            instrument = cls(name, labels=frozen, **kwargs)
            self._instruments[key] = instrument
            if registered is None or (help and not registered[1]):
                self._meta[name] = (cls.kind, help)
            return instrument

    def counter(self, name: str, help: str = "",
                labels: Mapping[str, str] | None = None) -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "",
              labels: Mapping[str, str] | None = None) -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        return self._get(Histogram, name, labels, help,
                         buckets=buckets)

    def register_view(
        self,
        name: str,
        fn: Callable[[], object],
        kind: str = "gauge",
        help: str = "",
    ) -> None:
        """Expose an external authoritative value under ``name`` at
        collection time.  ``fn`` returns a number, or a list of
        ``(labels-dict, number)`` pairs for per-entity series (e.g. one
        sample per session).  A raising/stale view is the registrant's
        bug — views run unguarded so failures surface in tests."""
        if kind not in ("counter", "gauge"):
            raise QueryError(
                f"view {name!r}: kind must be counter|gauge, got {kind!r}"
            )
        with self._lock:
            registered = self._meta.get(name)
            if registered is not None:
                raise QueryError(
                    f"metric {name!r} already registered as "
                    f"{registered[0]}"
                )
            self._meta[name] = (kind, help)
            self._views.append(_View(name, kind, fn, help))

    # -- exposition ---------------------------------------------------------------
    def uptime(self) -> float:
        return self.clock() - self.created_at

    def _families(self) -> dict[str, dict]:
        """name -> {kind, help, samples: [(labels, payload)]} where the
        payload is a float (counter/gauge) or a histogram snapshot."""
        with self._lock:
            instruments = list(self._instruments.values())
            views = list(self._views)
            meta = dict(self._meta)
        families: dict[str, dict] = {
            name: {"kind": kind, "help": help, "samples": []}
            for name, (kind, help) in meta.items()
        }
        for inst in instruments:
            payload = (inst.snapshot() if inst.kind == "histogram"
                       else inst.value)  # type: ignore[attr-defined]
            families[inst.name]["samples"].append(  # type: ignore[attr-defined]
                (inst.labels, payload))  # type: ignore[attr-defined]
        for view in views:
            families[view.name]["samples"].extend(view.samples())
        return families

    def to_dict(self) -> dict:
        """JSON-friendly series dump (the NDJSON ``metrics`` payload)."""
        out: dict[str, dict] = {}
        for name, family in sorted(self._families().items()):
            out[name] = {
                "kind": family["kind"],
                "help": family["help"],
                "samples": [
                    {"labels": dict(labels), "value": payload}
                    for labels, payload in family["samples"]
                ],
            }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for name, family in sorted(self._families().items()):
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['kind']}")
            for labels, payload in family["samples"]:
                if isinstance(payload, dict):  # histogram
                    for le, count in payload["buckets"].items():
                        lines.append(
                            f"{name}_bucket"
                            f"{_label_str(labels, extra=('le', le))} "
                            f"{count}"
                        )
                    lines.append(
                        f"{name}_sum{_label_str(labels)} "
                        f"{_format_value(payload['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_label_str(labels)} "
                        f"{payload['count']}"
                    )
                else:
                    lines.append(
                        f"{name}{_label_str(labels)} "
                        f"{_format_value(payload)}"
                    )
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _label_str(labels: LabelSet,
               extra: tuple[str, str] | None = None) -> str:
    items = list(labels)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(str(value))}"' for key, value in items
    )
    return "{" + body + "}"
