"""Static invariant checker for the vProfile reproduction.

The codebase's core guarantee — byte-identical traces across job
counts, batching modes, cache hits, and streaming vs batch — rests on
conventions that ordinary linters don't know about: seeds flow down
through spawned ``SeedSequence``\\ s, clocks live in ``repro.obs``,
Algorithm-4 updates stay lock-guarded, metric names stay literal, and
the capture cache's schema version moves with its key inputs.  This
package machine-checks those conventions over the repo's own AST.

Usage::

    python -m repro.lint src tests        # or: repro lint
    python -m repro.lint --list-rules
    python -m repro.lint --update-schema-lock

Rules carry ``VPLxxx`` codes (see ``docs/static-analysis.md``).  The
only waiver is an inline ``# vpl: ignore[VPL104]`` comment; repo-wide
scoping lives in ``[tool.repro-lint]`` in pyproject.toml.
"""

from repro.lint.cache import AnalysisCache
from repro.lint.callgraph import CallGraph
from repro.lint.config import (
    LintConfig,
    LintConfigError,
    config_from_mapping,
    load_config,
)
from repro.lint.diagnostics import Diagnostic, format_report
from repro.lint.fingerprint import schema_fingerprint, update_lock
from repro.lint.project import Project
from repro.lint.rules import (
    ModuleContext,
    ProjectContext,
    ProjectRule,
    Rule,
    all_rules,
    iter_rules,
    register,
)
from repro.lint.runner import (
    LintResult,
    collect_files,
    lint_paths,
    lint_source,
    run_lint,
)

__all__ = [
    "AnalysisCache",
    "CallGraph",
    "Diagnostic",
    "LintConfig",
    "LintConfigError",
    "LintResult",
    "ModuleContext",
    "Project",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "collect_files",
    "config_from_mapping",
    "format_report",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "load_config",
    "register",
    "run_lint",
    "schema_fingerprint",
    "update_lock",
]
