"""Drive the rules over a project; the checker's programmatic API.

The run is two passes over one shared parse:

1. **Per-module analysis** (cacheable): parse the file, run every
   module-local rule, extract the whole-program summary.  The
   incremental cache serves this pass wholesale for unchanged bytes —
   a warm run parses *zero* files.
2. **Project analysis** (always recomputed): build the call graph over
   the summaries and run the interprocedural rules (lockset, async
   locks, executor boundaries, seed provenance, schema lock).  Project
   rules read summaries, never trees, so this pass is identical on a
   cold parse and a warm cache restore — byte-identical diagnostics
   either way.

``lint_source`` lints one in-memory module (the unit-test entry point);
``lint_paths`` is the thin list-of-diagnostics wrapper around
:func:`run_lint`, which returns the full :class:`LintResult` (cache and
parse counters included) for the CLI and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from repro.lint.cache import AnalysisCache
from repro.lint.callgraph import CallGraph
from repro.lint.config import LintConfig
from repro.lint.dataflow import extract_summary
from repro.lint.diagnostics import Diagnostic
from repro.lint.project import Project, ProjectModule, collect_files
from repro.lint.rules import (
    ModuleContext,
    ProjectContext,
    ProjectRule,
    Rule,
    all_rules,
    iter_module_rules,
    iter_project_rules,
)
from repro.lint.suppressions import is_suppressed


@dataclass
class LintResult:
    """A lint run's verdict plus the counters tests and the CLI read."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Paths analyzed from source this run (cache misses + cacheless).
    analyzed: list[str] = field(default_factory=list)
    #: Paths served entirely from the incremental cache.
    restored: list[str] = field(default_factory=list)
    #: ``ast.parse`` invocations — the parse-once regression hook.
    parse_count: int = 0


def _syntax_diagnostic(module: ProjectModule) -> Diagnostic:
    exc = module.syntax_error
    assert exc is not None
    return Diagnostic(
        path=module.path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        code="VPL000",
        message=f"syntax error: {exc.msg}",
    )


def _filter(
    diagnostics: Iterable[Diagnostic],
    config: LintConfig,
    project: Project,
) -> list[Diagnostic]:
    """Apply select/ignore scoping and inline suppressions."""
    kept: list[Diagnostic] = []
    for diagnostic in diagnostics:
        if not config.code_enabled(diagnostic.code, diagnostic.path):
            continue
        module = project.modules.get(diagnostic.path)
        if module is not None and is_suppressed(
            module.suppressions, diagnostic.line, diagnostic.code
        ):
            continue
        kept.append(diagnostic)
    return kept


def _analyze_module(
    project: Project,
    module: ProjectModule,
    module_rules: Sequence[Rule],
) -> tuple[Optional[dict[str, Any]], list[Diagnostic]]:
    """Pass 1 for one module: parse, module rules, summary extraction."""
    tree = project.parse_module(module)
    if tree is None:
        return None, [_syntax_diagnostic(module)]
    context = ModuleContext(
        path=module.path,
        tree=tree,
        source=module.source,
        config=project.config,
        root=str(project.root),
        _resolver=module.resolver,
    )
    found: list[Diagnostic] = []
    for rule in module_rules:
        found.extend(rule.check(context))
    assert module.resolver is not None
    summary = extract_summary(
        tree, module.resolver, project.config, module.path, module.modname
    )
    return summary, _filter(sorted(found), project.config, project)


def analyze_project(
    project: Project,
    *,
    rules: Optional[Iterable[Rule]] = None,
    cache: Optional[AnalysisCache] = None,
) -> LintResult:
    """Run both passes over a loaded project.

    ``rules`` overrides the registry (tests injecting throwaway rules);
    custom rule lists bypass the cache, whose key covers only the
    registered catalogue.
    """
    config = project.config
    if rules is not None:
        rule_list = list(rules)
        module_rules: Sequence[Rule] = [
            rule for rule in rule_list if not isinstance(rule, ProjectRule)
        ]
        project_rules: Sequence[ProjectRule] = [
            rule for rule in rule_list if isinstance(rule, ProjectRule)
        ]
        cache = None
    else:
        module_rules = list(iter_module_rules())
        project_rules = list(iter_project_rules())

    result = LintResult()
    summaries: dict[str, dict[str, Any]] = {}
    module_diags: dict[str, list[Diagnostic]] = {}

    # ------------------------------------------------------------- pass 1
    for module in project.sorted_modules():
        cached = cache.get(module.path, module.sha) if cache else None
        if cached is not None:
            summary, diagnostics = cached
            result.restored.append(module.path)
        else:
            summary, diagnostics = _analyze_module(project, module, module_rules)
            result.analyzed.append(module.path)
            if cache is not None and module.syntax_error is None \
                    and summary is not None:
                cache.put(module.path, module.sha, summary, diagnostics)
        if summary:
            summaries[module.path] = summary
        module_diags[module.path] = diagnostics

    # ------------------------------------------------------------- pass 2
    if project_rules and summaries:
        graph = CallGraph(summaries)
        context = ProjectContext(
            config=config,
            root=str(project.root),
            summaries=summaries,
            callgraph=graph,
        )
        project_found: list[Diagnostic] = []
        for rule in project_rules:
            project_found.extend(rule.check_project(context))
        for diagnostic in _filter(sorted(project_found), config, project):
            module_diags.setdefault(diagnostic.path, []).append(diagnostic)

    if cache is not None:
        cache.prune(set(project.modules))
        cache.save()

    for path in sorted(module_diags):
        result.diagnostics.extend(sorted(module_diags[path]))
    result.diagnostics.sort()
    result.parse_count = project.parse_count
    return result


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def run_lint(
    paths: Iterable[str | Path],
    config: Optional[LintConfig] = None,
    *,
    root: str | Path = ".",
    use_cache: bool = False,
) -> LintResult:
    """Lint every Python file reachable from ``paths``."""
    config = config or LintConfig()
    project = Project.load(paths, config, root=root)
    cache = None
    if use_cache:
        cache = AnalysisCache.load(
            Path(root), config, tuple(sorted(all_rules()))
        )
    return analyze_project(project, cache=cache)


def lint_paths(
    paths: Iterable[str | Path],
    config: Optional[LintConfig] = None,
    *,
    root: str | Path = ".",
    use_cache: bool = False,
) -> list[Diagnostic]:
    """Diagnostics-only wrapper around :func:`run_lint`."""
    return run_lint(paths, config, root=root, use_cache=use_cache).diagnostics


def lint_source(
    source: str,
    path: str,
    config: Optional[LintConfig] = None,
    *,
    root: str | Path = ".",
    rules: Optional[Iterable[Rule]] = None,
) -> list[Diagnostic]:
    """Lint one module given as text; ``path`` drives the path scoping.

    The module becomes a single-file project, so project rules that can
    conclude from one module (the schema lock, intra-class locksets)
    still run — cross-module evidence simply isn't there to find.
    """
    config = config or LintConfig()
    project = Project.from_sources({path: source}, config, root=root)
    return analyze_project(project, rules=rules).diagnostics


__all__ = [
    "LintResult",
    "analyze_project",
    "collect_files",
    "lint_paths",
    "lint_source",
    "run_lint",
]
