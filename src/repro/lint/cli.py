"""Command-line front end: ``python -m repro.lint`` / ``repro lint``.

Both front ends parse with :func:`build_parser` and dispatch to
:func:`run`, so every option is declared once.  Exit codes follow
compiler conventions: 0 clean, 1 violations found, 2 usage errors
(unreadable paths, malformed config).  A finding is waived only inline,
with ``# vpl: ignore[CODE]`` on its line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, Optional, Sequence

from repro.lint import fingerprint as fp
from repro.lint.config import LintConfigError, load_config
from repro.lint.diagnostics import format_report
from repro.lint.rules import iter_rules
from repro.lint.runner import run_lint

DEFAULT_PATHS = ("src", "tests")


def build_parser(add_help: bool = True) -> argparse.ArgumentParser:
    """The lint options; ``repro lint`` reuses them as a parent parser."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        add_help=add_help,
        description="Whole-program invariant checker: determinism, seed "
        "provenance, concurrency safety, executor boundaries, "
        "observability hygiene (VPLxxx).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to check (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root for config lookup and relative paths "
        "(default: cwd)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated codes/prefixes to run (e.g. VPL1,VPL301)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated codes/prefixes to skip",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the incremental analysis cache",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print analyzed/restored/parse counters to stderr",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "--update-schema-lock",
        action="store_true",
        help="re-record the capture-cache schema fingerprint and exit",
    )
    parser.add_argument(
        "-q", "--quiet",
        action="store_true",
        help="suppress the summary line on a clean run",
    )
    return parser


def _codes(raw: Optional[str]) -> tuple[str, ...]:
    if not raw:
        return ()
    return tuple(code.strip().upper() for code in raw.split(",") if code.strip())


def run(args: argparse.Namespace, *,
        stdout: Optional[IO[str]] = None,
        stderr: Optional[IO[str]] = None) -> int:
    """Run the checker for parsed ``args``; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.code}  {rule.name}: {rule.summary}", file=out)
        return 0

    root = Path(args.root)
    try:
        config = load_config(root)
    except LintConfigError as exc:
        print(f"error: {exc}", file=err)
        return 2
    if args.select:
        config.select = _codes(args.select)
    if args.ignore:
        config.ignore = config.ignore + _codes(args.ignore)

    if args.update_schema_lock:
        path = fp.update_lock(root, config)
        print(f"schema lock updated -> {path}", file=out)
        return 0

    try:
        result = run_lint(
            args.paths, config, root=root, use_cache=not args.no_cache
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=err)
        return 2

    if args.stats:
        print(
            f"modules: {len(result.analyzed)} analyzed, "
            f"{len(result.restored)} restored from cache; "
            f"{result.parse_count} parsed",
            file=err,
        )

    if result.diagnostics:
        print(format_report(result.diagnostics), file=out)
        return 1
    if not args.quiet:
        print("all checks passed", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, *,
         stdout: Optional[IO[str]] = None,
         stderr: Optional[IO[str]] = None) -> int:
    return run(build_parser().parse_args(argv), stdout=stdout, stderr=stderr)


__all__ = ["DEFAULT_PATHS", "build_parser", "main", "run"]
