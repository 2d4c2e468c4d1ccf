"""Join operators (paper §3.2 "Join", Fig 6).

* :class:`HashJoinOperator` — general equi-join.  The right (build) input
  is buffered until its EOF, then indexed **once** into a
  :class:`~repro.dataframe.join.JoinIndex`; probe messages stream through
  as dictionary-encoded lookups against the prebuilt index, so
  per-message cost is O(partition) rather than O(build) (right-deep
  chains thus build all hash tables before the probe flows, matching the
  paper's note on Q9/Q10/Q13 first-result latency).
* :class:`MergeJoinOperator` — progressive merge join for two DELTA
  streams clustered/sorted on the same single join key: joins are emitted
  up to the minimum key watermark of the two sides, giving fully
  incremental DELTA output (the lineitem ⋈ orders path of Fig 6).
  Pending rows are buffered as part lists; a release joins the ready
  rows with the :func:`~repro.dataframe.join.merge_join` kernel (binary
  search, no factorization), and while the buffered keys are ascending
  the ready rows are a prefix of the parts, so the leftovers stay as
  slices.
* :class:`CrossJoinOperator` — cartesian product against a small right
  side; with a REPLACE right input it re-emits on every right refresh,
  which is how decorrelated scalar subqueries (Q11, Q14, Q17, Q22) stay
  OLA-interactive.  A DELTA right side is buffered as parts and
  materialized once at its EOF.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Sequence

import numpy as np

from repro.dataframe.frame import DataFrame
from repro.dataframe.join import JoinIndex, is_ascending, merge_join
from repro.dataframe.schema import DType, Field, Schema
from repro.core.properties import Delivery, StreamInfo
from repro.engine.message import Message
from repro.engine.ops.base import Operator, surviving_key


class _JoinOperator(Operator):
    """What the three joins share at plan time: the output naming rule
    (left columns, then right columns minus the dropped keys, collisions
    suffixed) and the per-side key checks and column demand that follow
    from it."""

    n_inputs = 2
    suffix: str

    def _right_renames(self, left, right, dropped=()) -> dict[str, str]:
        """Right-input column → output name (the
        ``dataframe.join._resolve_output_names`` contract)."""
        taken = set(left.names)
        mapping: dict[str, str] = {}
        for name in right.names:
            if name in dropped:
                continue
            out = name if name not in taken else name + self.suffix
            if out in taken:
                raise self.fail(
                    "duplicate-output",
                    f"column {out!r} collides even after applying "
                    f"suffix {self.suffix!r}",
                    column=out,
                )
            mapping[name] = out
            taken.add(out)
        return mapping

    def _joined_schema(self, left, right, dropped=(), retag=None):
        """Left fields, then the surviving right fields under their
        output names; ``retag`` adjusts a right field's dtype/kind."""
        fields = list(left.fields)
        for name, out in self._right_renames(left, right, dropped).items():
            field = right.field(name)
            if retag is not None:
                field = retag(field)
            fields.append(field.renamed(out))
        return Schema(fields)

    def _check_keys(self, left, right, left_on, right_on) -> None:
        for side, schema, keys in (
            ("left", left, left_on), ("right", right, right_on)
        ):
            for key in keys:
                if key not in schema:
                    raise self.fail(
                        "undefined-column",
                        f"{side} key {key!r} not in schema; available: "
                        f"{list(schema.names)}",
                        column=key,
                    )
        for l_key, r_key in zip(left_on, right_on):
            l_dtype, r_dtype = left.dtype(l_key), right.dtype(r_key)
            # Mirrors the runtime kernel's _check_key_dtypes:
            # int/float/date inter-compare; bool only with bool; string
            # only with string.
            if _key_class(l_dtype) != _key_class(r_dtype):
                raise self.fail(
                    "type-mismatch",
                    f"join key dtypes are incompatible: {l_key!r} is "
                    f"{l_dtype.value}, {r_key!r} is {r_dtype.value}",
                    column=l_key,
                )

    def _split_required(
        self, input_schemas, required, left_on=(), right_on=()
    ) -> list[set[str] | None]:
        """Per-side demand: each side supplies its keys plus whichever
        of its columns surface (possibly renamed) in ``required``."""
        if required is None:
            return [None, None]
        left, right = input_schemas
        renames = self._right_renames(left, right, right_on)
        right_req = {name for name, out in renames.items() if out in required}
        # A right column surfaces under its suffixed name only while the
        # same-named left column exists, so that left column stays.
        collided = {name for name in right_req if renames[name] != name}
        return [
            (required & set(left.names)) | collided | set(left_on),
            right_req | set(right_on),
        ]


def _key_class(dtype: DType) -> str:
    if dtype is DType.STRING:
        return "string"
    if dtype is DType.BOOL:
        return "bool"
    return "numeric"


def _null_filled(field: Field) -> Field:
    """Left-join NaN fills promote int/date right columns to float64."""
    if field.dtype in (DType.INT64, DType.DATE):
        return Field(field.name, DType.FLOAT64, field.kind)
    return field


class HashJoinOperator(_JoinOperator):
    """Equi-join; port 0 = probe (streamed), port 1 = build (buffered).

    ``how`` ∈ {inner, left, semi, anti}.  Output delivery follows the
    probe side; the build side is always consumed to EOF first.
    """

    build_ports = (1,)

    def __init__(
        self,
        name: str,
        left_on: Sequence[str],
        right_on: Sequence[str],
        how: str = "inner",
        suffix: str = "_right",
    ) -> None:
        super().__init__(name)
        self.left_on = tuple(left_on)
        self.right_on = tuple(right_on)
        self.how = how
        self.suffix = suffix
        self._build_ready = False
        self._build_parts: list[DataFrame] = []
        self._build_snapshot: DataFrame | None = None
        self._build_index: JoinIndex | None = None
        self._probe_buffer: list[Message] = []
        self._probe_latest: Message | None = None  # REPLACE probe input

    # -- plan time ---------------------------------------------------------------
    def _derive_info(self, inputs: tuple[StreamInfo, ...]) -> StreamInfo:
        left, right = inputs
        self._check_keys(
            left.schema, right.schema, self.left_on, self.right_on
        )
        if self.how in ("semi", "anti"):
            schema = left.schema
        else:
            schema = self._joined_schema(
                left.schema, right.schema, self.right_on,
                _null_filled if self.how == "left" else None,
            )
        return StreamInfo(
            schema=schema,
            primary_key=surviving_key(left.primary_key, schema),
            clustering_key=surviving_key(left.clustering_key, schema),
            delivery=left.delivery,
        )

    def required_inputs(self, input_schemas, required):
        if self.how in ("semi", "anti"):
            left = input_schemas[0]
            left_req = (
                None if required is None
                else (required & set(left.names)) | set(self.left_on)
            )
            return [left_req, set(self.right_on)]
        return self._split_required(
            input_schemas, required, self.left_on, self.right_on
        )

    def reads_versions(self, port: int, wanted: bool) -> bool:
        # The build side is indexed once, from the version standing at
        # its EOF; each probe version is joined on its own.
        return wanted if port == 0 else False

    def signature(self) -> tuple:
        pairs = tuple(zip(self.left_on, self.right_on))
        return (pairs, self.how, self.suffix)

    # -- run time -----------------------------------------------------------------
    def _join(self, probe_frame: DataFrame) -> DataFrame:
        assert self._build_index is not None
        return self._build_index.probe(
            probe_frame, list(self.left_on), how=self.how
        )

    def _handle_message(self, port: int, message: Message) -> list[Message]:
        if port == 1:  # build side: buffer until EOF
            if message.kind == Delivery.REPLACE:
                self._build_snapshot = message.frame
            else:
                self._build_parts.append(message.frame)
            return []
        # probe side
        if not self._build_ready:
            if message.kind == Delivery.REPLACE:
                self._probe_latest = message  # only the latest matters
            else:
                self._probe_buffer.append(message)
            return []
        return [self._emit(message)]

    def _emit(self, message: Message) -> Message:
        """Join a probe message; output progress merges the build side's
        counters so downstream t reflects every source."""
        return Message(
            frame=self._join(message.frame),
            progress=message.progress.merged(self.progress),
            kind=message.kind,
        )

    def _materialize_build(self) -> None:
        """Factorize and sort the build side exactly once; every probe
        partition afterwards is an index lookup."""
        right_schema = self.input_infos[1].schema
        if self._build_snapshot is not None:
            build_frame = self._build_snapshot
        elif self._build_parts:
            build_frame = DataFrame.concat(self._build_parts)
        else:
            build_frame = DataFrame.empty(right_schema)
        self._build_index = JoinIndex(
            build_frame, list(self.right_on), suffix=self.suffix
        )
        self._build_parts = []
        self._build_snapshot = None
        self._build_ready = True

    def _handle_eof(self, port: int) -> list[Message]:
        if port != 1:
            return []
        self._materialize_build()
        out: list[Message] = []
        for message in self._probe_buffer:
            out.append(self._emit(message))
        self._probe_buffer = []
        if self._probe_latest is not None:
            out.append(self._emit(self._probe_latest))
            self._probe_latest = None
        return out


class MergeJoinOperator(_JoinOperator):
    """Progressive merge join on one numeric key; both inputs DELTA and
    clustered/sorted on their respective keys."""

    def __init__(
        self,
        name: str,
        left_on: str,
        right_on: str,
        suffix: str = "_right",
    ) -> None:
        super().__init__(name)
        self.left_on = left_on
        self.right_on = right_on
        self.suffix = suffix
        self._parts: tuple[list[DataFrame], list[DataFrame]] = ([], [])
        self._part_mins: tuple[list[float], list[float]] = ([], [])
        #: Per side: every buffered part is ascending (int or float
        #: keys, no NaN) and starts at or after the previous one's last
        #: key, so the rows a watermark releases are a prefix.
        self._ascending = [True, True]
        #: Per side: the column dtypes of the last release's buffer
        #: while rows stayed behind (``None`` once it emptied).
        self._carried: list[dict | None] = [None, None]
        self._watermarks = [-np.inf, -np.inf]
        self._closed = [False, False]

    def _derive_info(self, inputs: tuple[StreamInfo, ...]) -> StreamInfo:
        left, right = inputs
        self._check_keys(
            left.schema, right.schema, (self.left_on,), (self.right_on,)
        )
        for info, key, side in (
            (left, self.left_on, "left"),
            (right, self.right_on, "right"),
        ):
            fault = self.side_fault(info, key, side)
            if fault is not None:
                code, message, column = fault
                raise self.fail(code, message, column=column)
        schema = self._joined_schema(
            left.schema, right.schema, (self.right_on,)
        )
        return StreamInfo(
            schema=schema,
            primary_key=surviving_key(left.primary_key, schema),
            clustering_key=left.clustering_key,
            delivery=Delivery.DELTA,
        )

    @staticmethod
    def side_fault(
        info: StreamInfo, key: str, side: str,
    ) -> tuple[str, str, str | None] | None:
        """Why ``info`` cannot be the ``side`` input of a merge join on
        ``key``, as ``(code, message, column)``, or ``None`` when it
        can: the one statement of the merge requirement, read by this
        derivation and by ``join(method="auto")``."""
        if info.delivery != Delivery.DELTA:
            return ("delivery-misuse",
                    f"{side} input must stream DELTA messages (got "
                    f"{info.delivery.value}); use a hash join for "
                    f"REPLACE inputs", None)
        if not info.clustered_on((key,)):
            return ("delivery-misuse",
                    f"{side} input is not clustered on {key!r}; use a "
                    f"hash join instead", key)
        if info.schema.dtype(key) is DType.STRING:
            return ("type-mismatch",
                    f"{side} key {key!r} is a string; watermark merging "
                    f"requires a numeric key", key)
        return None

    def required_inputs(self, input_schemas, required):
        return self._split_required(
            input_schemas, required, (self.left_on,), (self.right_on,)
        )

    def signature(self) -> tuple:
        return (self.left_on, self.right_on, self.suffix)

    def _key(self, port: int) -> str:
        return self.left_on if port == 0 else self.right_on

    def _append(self, port: int, frame: DataFrame) -> None:
        """Buffer one partition as a part (no concat on the hot path)."""
        if not frame.n_rows:
            return
        keys = frame.column(self._key(port))
        parts = self._parts[port]
        ascending = (
            self._ascending[port] and keys.dtype.kind in "if"
            and (not parts or keys[0] >= parts[-1].column(
                self._key(port))[-1])
            and is_ascending(keys)
        )
        if ascending:
            low, high = keys[0], keys[-1]
        else:
            self._ascending[port] = False
            low, high = _key_range(keys)
        parts.append(frame)
        self._part_mins[port].append(float(low))
        self._watermarks[port] = max(self._watermarks[port], float(high))

    def _has_ready(self, port: int, threshold: float) -> bool:
        return any(m <= threshold for m in self._part_mins[port])

    def _release(self, port: int, threshold: float) -> DataFrame:
        """Take the buffered rows whose key is at or below ``threshold``
        (as float64; NaN only at the EOF flush, whose threshold is inf)
        off ``port``'s buffer; the rest stay.

        While the buffer is ascending the ready rows are a prefix of the
        parts: whole parts plus a head slice of the boundary part are
        taken and the leftovers stay as slices, with no mask copies.
        Otherwise the parts are concatenated and masked.  Either way the
        released columns carry the dtypes a concatenation of everything
        buffered would have (string widths grow to the widest part
        buffered since the buffer was last empty), so the output never
        depends on the path."""
        parts, mins = self._parts[port], self._part_mins[port]
        if not parts:
            return DataFrame.empty(self.input_infos[port].schema)
        key = self._key(port)
        carried = self._carried[port]
        dtypes = self._carried[port] = {
            name: reduce(np.promote_types,
                         [part.column(name).dtype for part in parts],
                         parts[0].column(name).dtype if carried is None
                         else carried[name])
            for name in parts[0].column_names
        }
        if self._ascending[port]:
            ready: list[DataFrame] = []
            while parts:
                part = parts[0]
                cut = _ready_count(part.column(key), threshold)
                if cut < part.n_rows:
                    if cut:
                        ready.append(part.head(cut))
                        parts[0] = part.slice(cut, part.n_rows)
                        mins[0] = float(part.column(key)[cut])
                    break
                ready.append(parts.pop(0))
                mins.pop(0)
            out = DataFrame.concat(ready) if ready else parts[0].head(0)
        else:
            pending = DataFrame.concat(parts)
            keys = pending.column(key).astype(np.float64)
            ready_mask = (keys <= threshold if threshold < np.inf
                          else np.ones(len(keys), dtype=bool))
            out = pending.mask(ready_mask)
            parts.clear()
            mins.clear()
            if not ready_mask.all():
                leftover = pending.mask(~ready_mask)
                parts.append(leftover)
                mins.append(float(_key_range(leftover.column(key))[0]))
        if not parts:
            # Empty again: later parts start a fresh ascending run and
            # a fresh dtype history.
            self._ascending[port] = True
            self._carried[port] = None
        if any(out.column(name).dtype != dtype
               for name, dtype in dtypes.items()):
            out = DataFrame(
                {name: out.column(name).astype(dtype, copy=False)
                 for name, dtype in dtypes.items()},
                schema=out.schema,
            )
        return out

    def _emitable(self, force: bool = False) -> list[Message]:
        """Join and release all buffered rows at or below the completed
        watermark.  ``force`` emits even an empty result — used at EOF so
        that stream-completion progress always reaches downstream."""
        threshold = min(
            np.inf if self._closed[0] else self._watermarks[0],
            np.inf if self._closed[1] else self._watermarks[1],
        )
        if not force and not (
            self._has_ready(0, threshold) and self._has_ready(1, threshold)
        ):
            return []
        joined = merge_join(
            self._release(0, threshold),
            self._release(1, threshold),
            [self.left_on],
            [self.right_on],
            suffix=self.suffix,
        )
        return [
            Message(frame=joined, progress=self.progress,
                    kind=Delivery.DELTA)
        ]

    def _handle_message(self, port: int, message: Message) -> list[Message]:
        self._append(port, message.frame)
        return self._emitable()

    def _handle_eof(self, port: int) -> list[Message]:
        self._closed[port] = True
        # Force a flush once both sides closed so the final (complete)
        # progress propagates even when nothing remains to join.
        return self._emitable(force=all(self._closed))


def _key_range(keys: np.ndarray) -> tuple:
    """A part's lowest and highest key.  Float keys skip NaN: a NaN row
    waits for the EOF flush and moves no watermark, so an all-NaN part
    reads ``(inf, -inf)``."""
    if keys.dtype.kind == "f":
        keys = keys[~np.isnan(keys)]
        if not len(keys):
            return np.inf, -np.inf
    return keys.min(), keys.max()


def _ready_count(keys: np.ndarray, threshold: float) -> int:
    """How many of the ascending, NaN-free ``keys`` are at or below
    ``threshold`` when cast to float64 — the masked path's test — found
    by binary search on the keys as they are."""
    if threshold == np.inf:
        return len(keys)
    if keys.dtype.kind == "f":
        return int(np.searchsorted(keys, np.float64(threshold),
                                   side="right"))
    if abs(threshold) < 2.0 ** 53:
        # Below 2**53 an integer is at most ``threshold`` as a float
        # exactly when it is at most its floor.
        return int(np.searchsorted(keys, math.floor(threshold),
                                   side="right"))
    return int(np.count_nonzero(keys.astype(np.float64) <= threshold))


class CrossJoinOperator(_JoinOperator):
    """Cartesian product with a small right side (scalar subqueries).

    With a REPLACE right input ("live" mode) the operator accumulates the
    left side and re-emits the full product whenever either side updates;
    with a DELTA right input the right side is buffered to EOF and left
    messages then stream through.
    """

    def __init__(self, name: str, suffix: str = "_right") -> None:
        super().__init__(name)
        self.suffix = suffix
        self._live = False
        self._rename: dict[str, str] = {}
        self._left_parts: list[DataFrame] = []
        self._left_snapshot: DataFrame | None = None
        self._right_parts: list[DataFrame] = []
        self._right_frame: DataFrame | None = None
        self._right_ready = False
        self._probe_buffer: list[Message] = []

    def _derive_info(self, inputs: tuple[StreamInfo, ...]) -> StreamInfo:
        left, right = inputs
        live = right.delivery == Delivery.REPLACE
        return StreamInfo(
            schema=self._joined_schema(
                left.schema, right.schema,
                retag=Field.as_mutable if live else None,
            ),
            primary_key=(),
            clustering_key=(),
            delivery=Delivery.REPLACE if live else left.delivery,
        )

    def _on_bound(self) -> None:
        left, right = self.input_infos
        self._rename = self._right_renames(left.schema, right.schema)
        self._live = right.delivery == Delivery.REPLACE

    @property
    def build_ports(self) -> tuple[int, ...]:
        """A DELTA right side is buffered to its EOF; a live (REPLACE)
        one streams alongside the left."""
        return () if self._live else (1,)

    def required_inputs(self, input_schemas, required):
        return self._split_required(input_schemas, required)

    def reads_versions(self, port: int, wanted: bool) -> bool:
        # Every product is of the latest version of a REPLACE side.
        return wanted

    def signature(self) -> tuple:
        return (self.suffix,)

    def _product(self, left: DataFrame, right: DataFrame) -> DataFrame:
        n, m = left.n_rows, right.n_rows
        data: dict[str, np.ndarray] = {}
        for name in left.column_names:
            data[name] = np.repeat(left.column(name), m)
        for name in right.column_names:
            data[self._rename[name]] = np.tile(right.column(name), n)
        return DataFrame(data, schema=self.output_info.schema)

    def _left_frame(self) -> DataFrame:
        if self._left_snapshot is not None:
            return self._left_snapshot
        if self._left_parts:
            return DataFrame.concat(self._left_parts)
        return DataFrame.empty(self.input_infos[0].schema)

    def _handle_message(self, port: int, message: Message) -> list[Message]:
        if port == 1:
            if self._live:
                self._right_frame = message.frame
                left = self._left_frame()
                if left.n_rows == 0:
                    return []
                return [
                    Message(
                        frame=self._product(left, message.frame),
                        progress=self.progress,
                        kind=Delivery.REPLACE,
                    )
                ]
            if message.kind == Delivery.REPLACE:
                self._right_frame = message.frame
                self._right_parts = []
            else:
                # Buffer DELTA parts; materialized once at the right EOF.
                self._right_parts.append(message.frame)
            return []

        # port 0 (left)
        if message.kind == Delivery.REPLACE:
            self._left_snapshot = message.frame
            self._left_parts = []
        else:
            self._left_parts.append(message.frame)
        if self._live:
            if self._right_frame is None:
                return []
            return [
                Message(
                    frame=self._product(self._left_frame(),
                                        self._right_frame),
                    progress=self.progress,
                    kind=Delivery.REPLACE,
                )
            ]
        if not self._right_ready:
            self._probe_buffer.append(message)
            return []
        return self._stream_left(message)

    def _stream_left(self, message: Message) -> list[Message]:
        right = self._right_frame
        if right is None:
            right = DataFrame.empty(self.input_infos[1].schema)
        return [
            Message(
                frame=self._product(message.frame, right),
                progress=message.progress.merged(self.progress),
                kind=message.kind,
            )
        ]

    def _handle_eof(self, port: int) -> list[Message]:
        if port != 1 or self._live:
            return []
        if self._right_parts:
            parts = ([] if self._right_frame is None
                     else [self._right_frame])
            self._right_frame = DataFrame.concat(parts + self._right_parts)
            self._right_parts = []
        self._right_ready = True
        out: list[Message] = []
        for message in self._probe_buffer:
            out.extend(self._stream_left(message))
        self._probe_buffer = []
        return out
