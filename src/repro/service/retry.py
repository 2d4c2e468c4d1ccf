"""Retry policy for the fault-tolerant scheduler.

One :class:`RetryPolicy` is owned by a
:class:`~repro.service.scheduler.FairShareScheduler` and governs what
happens when a session's ``step()`` raises a *retry-safe transient*
error (see :attr:`~repro.engine.executor.StepExecutor.step_retry_safe`
and :func:`repro.errors.is_transient`):

* up to ``max_attempts`` tries per partition, separated by a
  **deterministic** capped exponential backoff (no jitter — chaos tests
  must replay byte-identically);
* a per-session ``retry_budget`` bounding total retries across the
  whole query, so a degraded disk cannot spin one session forever;
* once retries are exhausted, ``on_partition_error`` picks between
  failing the session (``"fail"``, the default — today's semantics) and
  quarantining the partition (``"skip"``): the scan emits the same
  empty progress-advancing DELTA the zone-map pruning path uses, the
  query keeps refining, and the loss is recorded as degraded state on
  the session (surfaced in ``status`` replies and snapshot events).

Backoff never sleeps inside a step — a cooling session parks in a
ready-time heap while every other session keeps stepping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError

#: Allowed ``on_partition_error`` modes.
PARTITION_ERROR_MODES = ("fail", "skip")


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler handles transient step failures.

    ``max_attempts`` counts *total* tries per partition (1 = fail
    fast, n > 1 allows n - 1 retries).  ``backoff_base`` seconds before
    the first retry, multiplied by ``backoff_factor`` per subsequent
    attempt and capped at ``backoff_max``.  ``retry_budget`` bounds the
    total retries one session may consume over its lifetime.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    retry_budget: int = 64
    on_partition_error: str = "fail"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise QueryError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise QueryError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise QueryError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.retry_budget < 0:
            raise QueryError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.on_partition_error not in PARTITION_ERROR_MODES:
            raise QueryError(
                f"on_partition_error must be one of "
                f"{PARTITION_ERROR_MODES}, got "
                f"{self.on_partition_error!r}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based).

        Deterministic capped exponential:
        ``min(backoff_max, backoff_base * backoff_factor ** (attempt-1))``.
        """
        if attempt < 1:
            raise QueryError(f"attempt must be >= 1, got {attempt}")
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
