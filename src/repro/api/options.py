"""ExecutionOptions: one validated bundle for every tuning knob.

``options=`` is the only way to tune a run: :class:`WakeContext` holds
a session bundle, ``run`` / ``stream`` / ``explain`` / ``executor_for``
take a per-call replacement, and :class:`~repro.service.QueryService`
(and through it ``repro serve``) threads the same object through every
submit.  Two knobs only come alive at the service layer: ``scan_share``
(one physical partition read fans out to every concurrent query
scanning the same table) and ``result_cache`` (a submit whose canonical
plan hash matches an in-flight or retained session attaches to it
instead of re-executing).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import QueryError
from repro.core.orderstat import DEFAULT_SKETCH_SIZE, QUANTILE_MODES


@dataclass(frozen=True)
class ExecutionOptions:
    """Every execution-tuning knob, validated once.

    Every field is checked at construction (boolean fields must be
    ``bool``), so a bundle that exists is a valid one:

    * ``pushdown`` — the optimizer's two passes, scan projection and
      zone-map partition pruning; off, a plan runs as written.
    * ``validate`` — accepted and ignored: every submit derives its
      plan once, and that derivation is the validation.  The field stays
      only because the frozen end-to-end benchmark passes
      ``validate=False``; ROADMAP item 6(a) deletes it.
    * ``quantile_mode`` / ``sketch_size`` — exact vs reservoir-sketch
      order statistics.  They reach the plan's aggregates when it is
      materialized, so a per-call bundle takes effect, and they are part
      of the plan hash (the result cache's key).
    * ``scan_share`` — service-level shared scans: one partition read
      per (table, partition, column-superset) fans out to every
      subscribed query (semantically invisible; snapshot sequences stay
      byte-identical).
    * ``result_cache`` — service-level plan-hash result cache: an
      identical submit attaches to the in-flight (or retained) session,
      replaying its snapshot prefix, instead of re-executing.
    * ``telemetry`` — service-level observability (metrics registry +
      query-lifecycle tracing, exposed via the ``metrics``/``trace``
      wire ops and ``GET /metrics``).  Observational only: snapshot
      sequences are byte-identical either way.
    """

    pushdown: bool = True
    validate: bool = True
    quantile_mode: str = "exact"
    sketch_size: int = DEFAULT_SKETCH_SIZE
    scan_share: bool = False
    result_cache: bool = False
    telemetry: bool = False

    def __post_init__(self) -> None:
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise QueryError(
                    f"{name} must be a boolean, got {value!r}"
                )
        if self.quantile_mode not in QUANTILE_MODES:
            raise QueryError(
                f"unknown quantile_mode {self.quantile_mode!r}; expected "
                f"one of {QUANTILE_MODES}"
            )
        if self.sketch_size < 2:
            raise QueryError(
                f"sketch_size must be >= 2, got {self.sketch_size}"
            )

    def merged(self, **overrides) -> "ExecutionOptions":
        """A copy with the non-``None`` overrides applied, re-validated
        as a whole; unknown names are rejected."""
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise QueryError(
                f"unknown execution option(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        effective = {k: v for k, v in overrides.items() if v is not None}
        if not effective:
            return self
        return replace(self, **effective)


#: The fields that must hold a ``bool`` (JSON ``true`` / ``false`` on
#: the wire); a truthy string such as ``"false"`` is rejected.
_BOOL_FIELDS = tuple(
    f.name for f in fields(ExecutionOptions) if f.type == "bool"
)
