"""The repo's own source must satisfy its invariant checker.

This is the PR-blocking contract behind the CI ``lint`` job: every
determinism / seed / concurrency / observability rule — including the
whole-program family (VPL210/310/311/320) — holds over ``src/`` and
``tests/`` with zero findings (inline ``# vpl: ignore[CODE]`` is the
only waiver), the capture-cache schema lock matches the current
dataclass layout, and both CLI front ends report violations with
``file:line`` diagnostics and a non-zero exit code.
"""

import io
from pathlib import Path

import pytest

from repro.lint import lint_paths, load_config
from repro.lint.cli import main as lint_main
from repro.lint.fingerprint import (
    current_schema_version,
    read_lock,
    schema_fingerprint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_src_and_tests_are_violation_free_modulo_baseline():
    config = load_config(REPO_ROOT)
    diagnostics = lint_paths(["src", "tests"], config, root=REPO_ROOT)
    assert diagnostics == [], "\n".join(d.format() for d in diagnostics)


def test_cli_exits_zero_on_the_repo_with_baseline():
    out, err = io.StringIO(), io.StringIO()
    code = lint_main(
        ["--root", str(REPO_ROOT), "src", "tests"], stdout=out, stderr=err
    )
    assert code == 0, out.getvalue() + err.getvalue()
    assert out.getvalue() == "all checks passed\n"


def test_cli_exits_nonzero_with_located_diagnostics(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "np.random.seed(1)\n"
        "rng = np.random.default_rng()\n"
    )
    out = io.StringIO()
    code = lint_main(["--root", str(tmp_path), str(bad)], stdout=out)
    assert code == 1
    report = out.getvalue()
    assert "bad.py:2:0: VPL101" in report
    assert "bad.py:3:6: VPL102" in report
    assert "found 2 violations" in report


def test_cli_rejects_missing_paths(tmp_path):
    err = io.StringIO()
    code = lint_main(
        ["--root", str(tmp_path), "no/such/dir.py"],
        stdout=io.StringIO(), stderr=err,
    )
    assert code == 2
    assert "error:" in err.getvalue()


def test_repro_cli_lint_subcommand(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", "--root", str(REPO_ROOT), "src"]) == 0
    assert capsys.readouterr().out == "all checks passed\n"


@pytest.mark.parametrize("case", ["clean-repo", "select", "list-rules", "dirty-file"])
def test_repro_lint_and_python_m_repro_lint_agree(case, tmp_path, capsys):
    """``repro lint ARGV`` and ``python -m repro.lint ARGV`` are one command."""
    from repro.cli import main as repro_main

    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    argv = {
        "clean-repo": ["--root", str(REPO_ROOT), "src", "tests"],
        "select": ["--root", str(REPO_ROOT), "--select", "VPL1", "src", "tests"],
        "list-rules": ["--list-rules"],
        "dirty-file": ["--root", str(tmp_path), "--no-cache", str(dirty)],
    }[case]
    lint_code = lint_main(argv)
    lint_out = capsys.readouterr().out
    repro_code = repro_main(["lint", *argv])
    repro_out = capsys.readouterr().out
    assert (repro_code, repro_out) == (lint_code, lint_out)
    assert lint_code == (1 if case == "dirty-file" else 0), lint_out


def test_schema_lock_matches_current_tree():
    """Changing cache-key dataclasses requires a version bump + relock."""
    config = load_config(REPO_ROOT)
    lock = read_lock(REPO_ROOT, config)
    assert lock is not None, (
        "capture_schema.json missing; run python -m repro.lint "
        "--update-schema-lock"
    )
    assert lock["fingerprint"] == schema_fingerprint(REPO_ROOT, config)
    assert lock["schema_version"] == current_schema_version(REPO_ROOT, config)


def test_every_rule_is_documented():
    """docs/static-analysis.md catalogues every registered code."""
    from repro.lint import all_rules

    catalogue = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
    for code in all_rules():
        assert code in catalogue, f"{code} missing from docs/static-analysis.md"
