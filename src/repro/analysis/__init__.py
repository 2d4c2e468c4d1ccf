"""Static analysis: plan-level schema checking and the codebase linter.

Layer 1 (:mod:`repro.analysis.schema_check`) types expressions for the
operators' derivations (which validate each fluent-API node as it is
built) and walks whole graphs for the optimizer's rewrite-soundness
checker and for graphs built by hand; layer
2 (:mod:`repro.analysis.lint`) is the AST-based invariant linter behind
``python -m repro lint``.
"""

from repro.errors import PlanValidationError
from repro.analysis.lint import ALL_RULES, LintFinding, lint_file, run_lint
from repro.analysis.schema_check import (
    infer_plan,
    plan_fingerprint,
    source_labels,
)

__all__ = [
    "ALL_RULES",
    "LintFinding",
    "PlanValidationError",
    "infer_plan",
    "lint_file",
    "plan_fingerprint",
    "run_lint",
    "source_labels",
]
