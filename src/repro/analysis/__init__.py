"""Static analysis: plan-level schema checking and the codebase linter.

Layer 1 (:mod:`repro.analysis.schema_check`) validates plan graphs at
submit time and powers the optimizer's rewrite-soundness checker; layer
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
