"""Operator base classes: the node logic of the execution graph (§7).

An operator is *one* description of a node, read at plan time and at run
time.  The plan-time contract is three overridable methods with
conservative defaults — ``_derive_info`` (output schema / keys /
clustering / delivery, raising coded :class:`PlanValidationError` errors),
``required_inputs`` (column demand, default: everything) and
``signature`` (canonical form, default: opaque) — so validation,
``explain``, projection pushdown and plan hashing all read the class
and nothing else.  ``bind`` fixes the derived
:class:`StreamInfo` once per execution (taking it from the plan's
derivation rather than deriving again) and lets ``_on_bound`` pick
runtime modes from it.  At run time the executor feeds the operator
messages (``on_message``) and EOF markers (``on_eof``); the operator
returns output messages.  Operators are single-threaded: the executor
never calls one concurrently (``repro lint``'s ``engine-threading`` rule
keeps threads out of the engine).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import (
    ExecutionError,
    PlanValidationError,
    QueryError,
    SchemaError,
)
from repro.core.properties import Progress, StreamInfo
from repro.dataframe.schema import Schema
from repro.engine.message import Message


def surviving_key(key: tuple[str, ...], schema: Schema) -> tuple[str, ...]:
    """``key`` if every one of its columns is in ``schema``, else ``()``:
    a stream only keeps a primary/clustering key it still carries."""
    return key if all(name in schema for name in key) else ()


class Operator:
    """Base operator; subclasses implement ``_derive_info`` and
    ``_handle_message`` (plus optionally the rest of the plan-time
    contract and the EOF hooks)."""

    #: number of input ports (0 for sources)
    n_inputs: int = 1
    #: Input ports buffered to EOF before the other ports stream; the
    #: executor drains the sources feeding them first.
    build_ports: tuple[int, ...] = ()
    #: Whether some reader wants every version this operator builds
    #: before its final one; the executor sets it from the
    #: :meth:`reads_versions` declarations downstream.  Only the shuffle
    #: aggregate acts on it: an unwanted t < 1 version is not built.
    versions_wanted: bool = True

    def __init__(self, name: str) -> None:
        self.name = name
        self._input_infos: tuple[StreamInfo, ...] | None = None
        self._output_info: StreamInfo | None = None
        self._progress = Progress()
        self._eof_ports: set[int] = set()

    # -- plan-time contract -------------------------------------------------------
    def _derive_info(
        self, inputs: tuple[StreamInfo, ...]
    ) -> StreamInfo:
        """The output stream description for these inputs.  Must be
        pure — no operator state changes — because validation,
        ``explain(mode="types")`` and the optimizer's rewrite checker
        call it on plans that never run.  Malformed plans raise
        :meth:`fail`."""
        raise NotImplementedError

    def required_inputs(
        self, input_schemas: tuple, required: set[str] | None
    ) -> list[set[str] | None]:
        """Columns each input port must supply so this operator can
        produce the ``required`` output columns (``None`` = all).  The
        default demands every column of every input: an operator that
        does not override it blocks projection pushdown below itself
        but can never be starved of a column."""
        return [None] * self.n_inputs

    def reads_versions(self, port: int, wanted: bool) -> bool:
        """Whether input ``port`` needs every REPLACE version its
        producer builds, given whether every version of this operator's
        own output is ``wanted``.  ``False`` means only the version
        standing at the port's EOF is read.  Operators that answer each
        version from that version alone return ``wanted``.  The default
        reads every version, right for any operator whose state carries
        across versions."""
        return True

    def signature(self) -> tuple:
        """Plain hashable values that, with the input subtrees, decide
        when two nodes produce the same bytes (``plan_hash``, the result
        cache's key, is built from them).  Must keep every detail that
        can change output bytes, output order included.  The default is
        unique per instance: never hash-equal."""
        return ("opaque", self.name, id(self))

    def fail(self, code: str, message: str,
             column: str | None = None) -> PlanValidationError:
        """A coded plan error naming this operator (the graph walk adds
        the node id)."""
        return PlanValidationError(
            code, f"{self.name}: {message}",
            operator=self.name, column=column,
        )

    def _schema(self, fields) -> Schema:
        """``Schema(fields)``, with a name collision reported as a
        ``duplicate-output`` plan error."""
        try:
            return Schema(fields)
        except SchemaError as exc:
            raise self.fail("duplicate-output", str(exc)) from exc

    def derive(self, inputs: Sequence[StreamInfo]) -> StreamInfo:
        """Derive the output description without binding."""
        if len(inputs) != self.n_inputs:
            raise QueryError(
                f"operator {self.name!r} expects {self.n_inputs} inputs, "
                f"got {len(inputs)}"
            )
        return self._derive_info(tuple(inputs))

    def bind(
        self,
        input_infos: Sequence[StreamInfo],
        output_info: StreamInfo | None = None,
    ) -> StreamInfo:
        """Fix input stream descriptions and the output description for
        one execution: ``output_info`` when the plan's derivation
        already holds it, else derived here."""
        self._output_info = (self.derive(input_infos)
                             if output_info is None else output_info)
        self._input_infos = tuple(input_infos)
        self._on_bound()
        return self._output_info

    def _on_bound(self) -> None:
        """Pick runtime modes from ``input_infos`` / ``output_info``."""

    @property
    def input_infos(self) -> tuple[StreamInfo, ...]:
        if self._input_infos is None:
            raise ExecutionError(f"operator {self.name!r} is not bound")
        return self._input_infos

    @property
    def output_info(self) -> StreamInfo:
        if self._output_info is None:
            raise ExecutionError(f"operator {self.name!r} is not bound")
        return self._output_info

    # -- run time -----------------------------------------------------------------
    @property
    def progress(self) -> Progress:
        """Merged progress across everything seen on all inputs."""
        return self._progress

    def on_message(self, port: int, message: Message) -> list[Message]:
        if not 0 <= port < self.n_inputs:
            raise ExecutionError(
                f"operator {self.name!r} got message on invalid port {port}"
            )
        if port in self._eof_ports:
            raise ExecutionError(
                f"operator {self.name!r} got message on closed port {port}"
            )
        self._progress = self._progress.merged(message.progress)
        return self._handle_message(port, message)

    def on_eof(self, port: int) -> list[Message]:
        """Mark a port closed; returns any flush messages.

        Subclasses override ``_handle_eof`` (per-port) and
        ``_final_flush`` (all ports closed).
        """
        if port in self._eof_ports:
            raise ExecutionError(
                f"operator {self.name!r} got duplicate EOF on port {port}"
            )
        self._eof_ports.add(port)
        out = self._handle_eof(port)
        if self.eof_complete:
            out = out + self._final_flush()
        return out

    @property
    def eof_complete(self) -> bool:
        return len(self._eof_ports) == self.n_inputs

    # -- subclass hooks -----------------------------------------------------------
    def _handle_message(self, port: int, message: Message) -> list[Message]:
        raise NotImplementedError

    def _handle_eof(self, port: int) -> list[Message]:
        return []

    def _final_flush(self) -> list[Message]:
        return []

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class SourceOperator(Operator):
    """A 0-input operator that produces its own message stream."""

    n_inputs = 0

    def stream(self):
        """Yield :class:`Message` objects; the executor appends EOF."""
        raise NotImplementedError

    def _handle_message(self, port: int, message: Message) -> list[Message]:
        raise ExecutionError(f"source {self.name!r} cannot receive messages")
