"""Whole-program view: one shared parse pass over the linted tree.

Every lint run used to be a sequence of independent per-file parses;
interprocedural rules (lockset, taint, executor-boundary) need to see
the *program*.  :class:`Project` is that view: it expands the requested
paths, reads and hashes every source file, parses each file **exactly
once** (``parse_count`` is the regression hook for that contract), and
exposes per-module :class:`ProjectModule` records carrying the tree, the
import resolver, and the inline-suppression table.

Modules restored from the incremental cache skip parsing entirely —
their ``tree`` is ``None`` and analysis works from the cached
:class:`~repro.lint.dataflow.ModuleSummary` instead.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional

from repro.lint.config import LintConfig
from repro.lint.resolver import ImportResolver
from repro.lint.suppressions import collect_suppressions

#: Directory names never descended into.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})

#: Path prefixes stripped when deriving a dotted module name.
SOURCE_PREFIXES = ("src/",)


def collect_files(paths: Iterable[str | Path], root: Path) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for entry in paths:
        path = Path(entry)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not SKIP_DIRS.intersection(candidate.parts) \
                        and "egg-info" not in str(candidate):
                    found.add(candidate)
        elif path.suffix == ".py":
            found.add(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {entry}")
    return sorted(found)


def relative_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(Path(root).resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def module_name(relpath: str) -> tuple[str, bool]:
    """Dotted module name for a repo-relative path, plus is-package.

    ``src/repro/stream/workers.py`` -> ``repro.stream.workers``;
    ``src/repro/lint/__init__.py`` -> ``repro.lint`` (a package);
    ``tests/test_obs.py`` -> ``tests.test_obs``.
    """
    name = relpath
    for prefix in SOURCE_PREFIXES:
        if name.startswith(prefix):
            name = name[len(prefix):]
            break
    if name.endswith(".py"):
        name = name[:-3]
    is_package = name.endswith("/__init__")
    if is_package:
        name = name[: -len("/__init__")]
    return name.replace("/", "."), is_package


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass
class ProjectModule:
    """One source file of the project.

    ``tree``/``resolver`` are ``None`` for modules restored from the
    incremental cache: the parse was skipped and analysis works from the
    cached summary.
    """

    path: str
    modname: str
    is_package: bool
    source: str
    sha: str
    tree: Optional[ast.Module] = None
    resolver: Optional[ImportResolver] = None
    syntax_error: Optional[SyntaxError] = field(default=None, repr=False)
    _suppressions: Optional[Mapping[int, frozenset[str]]] = field(
        default=None, repr=False
    )

    @property
    def suppressions(self) -> Mapping[int, frozenset[str]]:
        if self._suppressions is None:
            self._suppressions = collect_suppressions(self.source)
        return self._suppressions


class Project:
    """The shared parse pass: every linted module, parsed at most once."""

    def __init__(self, config: LintConfig, root: Path):
        self.config = config
        self.root = Path(root)
        self.modules: dict[str, ProjectModule] = {}
        #: Number of ``ast.parse`` calls made on behalf of this project —
        #: the regression hook for the parse-once contract.
        self.parse_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        paths: Iterable[str | Path],
        config: Optional[LintConfig] = None,
        *,
        root: str | Path = ".",
    ) -> "Project":
        """Read, hash and register every lintable file under ``paths``.

        Files are *not* parsed here — :meth:`parse_module` is called
        lazily by the runner only for modules the cache cannot serve.
        """
        config = config or LintConfig()
        project = cls(config, Path(root))
        for path in collect_files(paths, project.root):
            relative = relative_path(path, project.root)
            if config.is_excluded(relative):
                continue
            project.add_source(relative, path.read_text(encoding="utf-8"))
        return project

    @classmethod
    def from_sources(
        cls,
        sources: Mapping[str, str],
        config: Optional[LintConfig] = None,
        *,
        root: str | Path = ".",
    ) -> "Project":
        """In-memory project (unit-test fixtures, ``lint_source``)."""
        config = config or LintConfig()
        project = cls(config, Path(root))
        for path, source in sources.items():
            if not config.is_excluded(path):
                project.add_source(path, source)
        return project

    def add_source(self, relative: str, source: str) -> ProjectModule:
        modname, is_package = module_name(relative)
        module = ProjectModule(
            path=relative,
            modname=modname,
            is_package=is_package,
            source=source,
            sha=source_digest(source),
        )
        self.modules[relative] = module
        return module

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    def parse_module(self, module: ProjectModule) -> Optional[ast.Module]:
        """Parse one module (at most once); ``None`` on syntax errors."""
        if module.tree is not None:
            return module.tree
        if module.syntax_error is not None:
            return None
        self.parse_count += 1
        try:
            module.tree = ast.parse(module.source, filename=module.path)
        except SyntaxError as exc:
            module.syntax_error = exc
            return None
        module.resolver = ImportResolver(
            module.tree, module.modname, is_package=module.is_package
        )
        return module.tree

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def sorted_modules(self) -> list[ProjectModule]:
        return [self.modules[path] for path in sorted(self.modules)]

    def by_modname(self, modname: str) -> Optional[ProjectModule]:
        for module in self.modules.values():
            if module.modname == modname:
                return module
        return None


__all__ = [
    "Project",
    "ProjectModule",
    "SKIP_DIRS",
    "collect_files",
    "module_name",
    "relative_path",
    "source_digest",
]
