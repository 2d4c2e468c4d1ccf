"""Filter operator (paper §3.2 "Filter", §2.3 attribute-kind analysis).

A predicate over *constant* attributes is an order-preserving local
operation (Case 1): each incoming partial is filtered independently and
the delivery kind is preserved.  A predicate touching a *mutable*
attribute can only be evaluated on snapshots: REPLACE inputs are filtered
per snapshot; a DELTA input would have to be accumulated and recomputed
(defensive path — mutable attributes only arise from REPLACE-emitting
aggregations in practice).
"""

from __future__ import annotations

from repro.analysis.schema_check import expr_dtype
from repro.dataframe.expr import Expr
from repro.dataframe.frame import DataFrame
from repro.dataframe.schema import DType
from repro.core.properties import Delivery, StreamInfo
from repro.engine.message import Message
from repro.engine.ops.base import Operator
from repro.engine.plan_node import canon_expr
from repro.storage.zonemap import SargablePredicate, sargable_conjuncts


class FilterOperator(Operator):
    """Keep rows satisfying ``predicate``."""

    def __init__(self, name: str, predicate: Expr) -> None:
        super().__init__(name)
        self.predicate = predicate
        self._recompute = False
        self._accumulated: list[DataFrame] = []

    def sargable(self) -> list[SargablePredicate]:
        """The zone-map-evaluable conjuncts of this filter's predicate.

        Used by the planner's predicate pushdown: each conjunct only ever
        *narrows* what the full predicate keeps, so a partition none of
        whose rows can satisfy some conjunct contributes nothing here —
        skipping it upstream is invisible below this operator.
        """
        return sargable_conjuncts(self.predicate)

    def _derive_info(self, inputs: tuple[StreamInfo, ...]) -> StreamInfo:
        (info,) = inputs
        schema = info.schema
        dtype = expr_dtype(self.predicate, schema, self)
        if dtype is not None and dtype is not DType.BOOL:
            raise self.fail(
                "type-mismatch",
                f"filter predicate {self.predicate!r} has dtype "
                f"{dtype.value}, expected bool",
            )
        # A predicate over mutable attributes can only be evaluated on
        # snapshots, so a DELTA input is accumulated and re-emitted.
        touches_mutable = bool(
            self.predicate.columns() & set(schema.mutable_names)
        )
        return StreamInfo(
            schema=schema,
            primary_key=info.primary_key,
            clustering_key=info.clustering_key,
            delivery=(
                Delivery.REPLACE if touches_mutable else info.delivery
            ),
        )

    def _on_bound(self) -> None:
        self._recompute = (
            self.input_infos[0].delivery == Delivery.DELTA
            and self.output_info.delivery == Delivery.REPLACE
        )

    def required_inputs(self, input_schemas, required):
        if required is None:
            return [None]
        return [required | set(self.predicate.columns())]

    def reads_versions(self, port: int, wanted: bool) -> bool:
        return wanted

    def signature(self) -> tuple:
        return (canon_expr(self.predicate),)

    def _handle_message(self, port: int, message: Message) -> list[Message]:
        if self._recompute:
            # DELTA input over mutable attributes: accumulate + recompute.
            self._accumulated.append(message.frame)
            whole = DataFrame.concat(self._accumulated)
            kept = whole.mask(self.predicate.evaluate(whole))
            return [
                Message(frame=kept, progress=message.progress,
                        kind=Delivery.REPLACE)
            ]
        kept = message.frame.mask(self.predicate.evaluate(message.frame))
        # Empty partials still flow: they advance downstream progress so
        # consumers refresh their estimates once per input partition.
        return [message.replaced_frame(kept)]
