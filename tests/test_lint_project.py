"""Whole-program analysis engine: shared parse, call graph, new rules.

Covers the interprocedural rule family (VPL210/310/311/320) over
multi-module fixtures, the parse-once contract of the shared
:class:`~repro.lint.project.Project` pass, the incremental analysis
cache (warm runs parse nothing and emit byte-identical diagnostics)
and the project rule registry.
"""

import ast
import json
import textwrap
from pathlib import Path

from repro.lint import LintConfig, lint_source
from repro.lint.callgraph import CallGraph
from repro.lint.dataflow import extract_summary
from repro.lint.project import Project, module_name
from repro.lint.resolver import ImportResolver
from repro.lint.rules import all_rules, iter_module_rules, iter_project_rules
from repro.lint.runner import analyze_project, run_lint


def project_codes(sources, config=None, **cfg):
    """Codes from a multi-module in-memory project, sorted."""
    config = config or LintConfig(**cfg)
    project = Project.from_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()}, config
    )
    return [d.code for d in analyze_project(project).diagnostics]


def project_diags(sources, config=None, **cfg):
    config = config or LintConfig(**cfg)
    project = Project.from_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()}, config
    )
    return analyze_project(project).diagnostics


# ----------------------------------------------------------------------
# ImportResolver edge cases (module context, relative imports, stars)
# ----------------------------------------------------------------------
def _resolver(source, module=None, is_package=False):
    return ImportResolver(
        ast.parse(textwrap.dedent(source)), module, is_package=is_package
    )


def _resolve(resolver, expr):
    return resolver.resolve(ast.parse(expr, mode="eval").body)


def test_resolver_import_as_alias_chain():
    r = _resolver("import numpy.random as npr\n")
    assert _resolve(r, "npr.default_rng") == "numpy.random.default_rng"


def test_resolver_from_import_as_chain():
    r = _resolver("from numpy import random as rnd\n")
    assert _resolve(r, "rnd.default_rng") == "numpy.random.default_rng"


def test_resolver_from_import_as_rebinds_symbol():
    r = _resolver("from repro.perf.parallel import message_seed as ms\n")
    assert _resolve(r, "ms") == "repro.perf.parallel.message_seed"


def test_resolver_relative_import_in_plain_module():
    r = _resolver(
        "from .config import matches_any\n",
        module="repro.lint.rules.determinism",
    )
    assert _resolve(r, "matches_any") == "repro.lint.rules.config.matches_any"


def test_resolver_relative_import_two_levels_up():
    r = _resolver(
        "from ..config import matches_any\n",
        module="repro.lint.rules.determinism",
    )
    assert _resolve(r, "matches_any") == "repro.lint.config.matches_any"


def test_resolver_relative_import_in_package_init():
    # Inside a package __init__, `.runner` is a sibling of the package
    # itself: repro.lint/__init__.py -> repro.lint.runner.
    r = _resolver(
        "from .runner import lint_paths\n",
        module="repro.lint",
        is_package=True,
    )
    assert _resolve(r, "lint_paths") == "repro.lint.runner.lint_paths"


def test_resolver_bare_relative_import():
    r = _resolver(
        "from . import workers\n", module="repro.stream.queues"
    )
    assert _resolve(r, "workers.fold") == "repro.stream.workers.fold"


def test_resolver_relative_without_module_context_resolves_nothing():
    r = _resolver("from .config import matches_any\n")
    assert _resolve(r, "matches_any") is None


def test_resolver_star_import_recorded_not_bound():
    r = _resolver(
        "from repro.perf.parallel import *\n", module="repro.perf.engine"
    )
    assert r.star_imports == ("repro.perf.parallel",)
    assert _resolve(r, "message_seed") is None  # no direct binding


def test_star_import_fallback_resolves_through_callgraph():
    config = LintConfig()
    project = Project.from_sources(
        {
            "src/pkg/util.py": "def helper():\n    return 1\n",
            "src/pkg/app.py": "from pkg.util import *\n\ndef go():\n    return helper()\n",
        },
        config,
    )
    summaries = {}
    for module in project.sorted_modules():
        tree = project.parse_module(module)
        summaries[module.path] = extract_summary(
            tree, module.resolver, config, module.path, module.modname
        )
    graph = CallGraph(summaries)
    assert [callee for callee, _ in graph.callees_of("pkg.app.go")] == [
        "pkg.util.helper"
    ]


def test_callgraph_follows_package_reexport():
    config = LintConfig()
    project = Project.from_sources(
        {
            "src/pkg/__init__.py": "from pkg.impl import work\n",
            "src/pkg/impl.py": "def work():\n    return 1\n",
            "src/main.py": "import pkg\n\ndef go():\n    return pkg.work()\n",
        },
        config,
    )
    summaries = {}
    for module in project.sorted_modules():
        tree = project.parse_module(module)
        summaries[module.path] = extract_summary(
            tree, module.resolver, config, module.path, module.modname
        )
    graph = CallGraph(summaries)
    assert [callee for callee, _ in graph.callees_of("main.go")] == [
        "pkg.impl.work"
    ]


def test_module_name_mapping():
    assert module_name("src/repro/stream/workers.py") == (
        "repro.stream.workers", False
    )
    assert module_name("src/repro/lint/__init__.py") == ("repro.lint", True)
    assert module_name("tests/test_obs.py") == ("tests.test_obs", False)


# ----------------------------------------------------------------------
# The shared parse pass: every file parses exactly once
# ----------------------------------------------------------------------
def test_each_file_parses_exactly_once():
    sources = {
        f"src/repro/stream/m{i}.py": "import threading\n\nclass C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0\n"
        for i in range(5)
    }
    project = Project.from_sources(sources, LintConfig())
    result = analyze_project(project)
    # Module rules + summary extraction + project rules all ran, yet
    # each file hit ast.parse exactly once.
    assert result.parse_count == len(sources)
    assert project.parse_count == len(sources)
    # Re-running analysis over the same project adds no parses.
    analyze_project(project)
    assert project.parse_count == len(sources)


def test_syntax_error_is_reported_once_and_never_reparsed():
    project = Project.from_sources(
        {"src/broken.py": "def broken(:\n"}, LintConfig()
    )
    result = analyze_project(project)
    assert [d.code for d in result.diagnostics] == ["VPL000"]
    assert project.parse_count == 1
    analyze_project(project)
    assert project.parse_count == 1


# ----------------------------------------------------------------------
# VPL310 — interprocedural lockset
# ----------------------------------------------------------------------
WORKERS_RACE = """
    import threading

    class ShardedWorkerPool:
        '''Distilled shape of the historical workers.py lost-update race.'''

        def __init__(self):
            self._update_lock = threading.Lock()
            self.updated = 0
            self._inflight = 0

        def _classify_batch(self, folded):
            with self._update_lock:
                self.updated += folded

        def drain(self):
            # The historical bug: the Algorithm-4 tally is torn here,
            # in a *different* method from the guarded write.
            self.updated += 1
"""


def test_vpl310_catches_cross_method_lost_update():
    found = project_diags({"src/repro/obs/pool.py": WORKERS_RACE})
    assert [d.code for d in found] == ["VPL310"]
    assert "self._update_lock" in found[0].message
    assert "_classify_batch" in found[0].message


def test_vpl310_catches_unlocked_read_of_guarded_attr():
    found = project_diags({"src/repro/obs/pool.py": """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0

            def add(self, n):
                with self._lock:
                    self.total += n

            def report(self):
                return self.total
    """})
    assert [d.code for d in found] == ["VPL310"]
    assert "read" in found[0].message


def test_vpl310_helper_called_only_under_lock_is_clean():
    # The generalisation over VPL301: the helper's bare write is safe
    # because its every call site holds the lock (call-graph fixpoint).
    assert project_codes({"src/repro/obs/pool.py": """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0

            def reset(self):
                with self._lock:
                    self.total = 0

            def add(self, n):
                with self._lock:
                    self._bump(n)

            def add_many(self, ns):
                with self._lock:
                    for n in ns:
                        self._bump(n)

            def _bump(self, n):
                self.total += n
    """}) == []


def test_vpl310_helper_of_helper_chain_resolves_to_fixpoint():
    assert project_codes({"src/repro/obs/pool.py": """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0

            def reset(self):
                with self._lock:
                    self.total = 0

            def add(self, n):
                with self._lock:
                    self._outer(n)

            def _outer(self, n):
                self._bump(n)

            def _bump(self, n):
                self.total += n
    """}) == []


def test_vpl310_helper_with_one_unlocked_call_site_fires():
    found = project_diags({"src/repro/obs/pool.py": """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0

            def reset(self):
                with self._lock:
                    self.total = 0

            def add(self, n):
                with self._lock:
                    self._bump(n)

            def sneak(self, n):
                self._bump(n)   # unlocked path into the helper

            def _bump(self, n):
                self.total += n
    """})
    assert [d.code for d in found] == ["VPL310"]


def test_vpl310_setup_methods_and_unguarded_attrs_are_exempt():
    assert project_codes({"src/repro/obs/pool.py": """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0      # setup write: exempt
                self.name = "p"

            def add(self, n):
                with self._lock:
                    self.total += n

            def rename(self, name):
                self.name = name    # never lock-written: no contract
    """}) == []


def test_vpl310_scoped_by_lockset_paths():
    assert project_codes(
        {"src/other/pool.py": WORKERS_RACE},
        lockset_paths=("src/repro",),
    ) == []


def test_vpl310_inline_suppression():
    assert project_codes({"src/repro/obs/pool.py": """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0

            def add(self, n):
                with self._lock:
                    self.total += n

            def report(self):
                return self.total  # vpl: ignore[VPL310]
    """}) == []


# ----------------------------------------------------------------------
# VPL311 — sync lock across await / blocking call in async code
# ----------------------------------------------------------------------
def test_vpl311_lock_held_across_await_in_async_handler():
    found = project_diags({"src/repro/fleet/gateway.py": """
        import threading

        class Gateway:
            def __init__(self):
                self._lock = threading.Lock()

            async def handle(self, msg):
                with self._lock:
                    await self.route(msg)

            async def route(self, msg):
                return msg
    """})
    assert [d.code for d in found] == ["VPL311"]
    assert "self._lock" in found[0].message


def test_vpl311_module_level_lock_across_await():
    found = project_diags({"src/repro/fleet/gw.py": """
        import threading

        LOCK = threading.Lock()

        async def handle(msg):
            with LOCK:
                await process(msg)

        async def process(msg):
            return msg
    """})
    assert [d.code for d in found] == ["VPL311"]


def test_vpl311_blocking_call_under_lock_in_async_def():
    found = project_diags({"src/repro/fleet/gw.py": """
        import threading
        import time

        LOCK = threading.Lock()

        async def handle(msg):
            with LOCK:
                time.sleep(0.1)
    """})
    codes = [d.code for d in found]
    assert "VPL311" in codes  # VPL303 fires too: both lenses apply


def test_vpl311_transitively_blocking_callee_under_lock():
    found = project_diags({
        "src/repro/fleet/gw.py": """
            import threading
            from repro.fleet.io import persist

            LOCK = threading.Lock()

            async def handle(msg):
                with LOCK:
                    persist(msg)
        """,
        "src/repro/fleet/io.py": """
            import time

            def persist(msg):
                time.sleep(1)
        """,
    })
    assert [d.code for d in found] == ["VPL311"]
    assert "repro.fleet.io.persist" in found[0].message


def test_vpl311_async_lock_via_async_with_is_clean():
    assert project_codes({"src/repro/fleet/gw.py": """
        import asyncio

        LOCK = asyncio.Lock()

        async def handle(msg):
            async with LOCK:
                await process(msg)

        async def process(msg):
            return msg
    """}) == []


def test_vpl311_await_outside_lock_is_clean():
    assert project_codes({"src/repro/fleet/gw.py": """
        import threading

        LOCK = threading.Lock()

        async def handle(msg):
            with LOCK:
                staged = msg.copy()
            await process(staged)

        async def process(msg):
            return msg
    """}) == []


def test_vpl311_scoped_by_async_paths():
    assert project_codes({"src/repro/perf/gw.py": """
        import threading

        LOCK = threading.Lock()

        async def handle(msg):
            with LOCK:
                await process(msg)

        async def process(msg):
            return msg
    """}) == []


# ----------------------------------------------------------------------
# VPL320 — executor-boundary safety
# ----------------------------------------------------------------------
def test_vpl320_flags_lock_file_shm_and_rng_arguments():
    found = project_diags({"src/repro/perf/fan.py": """
        import threading
        import numpy as np
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing.shared_memory import SharedMemory

        def fan_out(work, items):
            lock = threading.Lock()
            handle = open("data.bin", "rb")
            shm = SharedMemory(create=True, size=8)  # vpl: ignore[VPL304]
            rng = np.random.default_rng()  # vpl: ignore[VPL102]
            with ProcessPoolExecutor() as pool:
                pool.submit(work, lock)
                pool.submit(work, handle)
                pool.submit(work, shm)
                pool.submit(work, rng)
                pool.submit(work, items)   # plain data: fine
    """})
    vpl320 = [d for d in found if d.code == "VPL320"]
    assert len(vpl320) == 4
    tags = " ".join(d.message for d in vpl320)
    assert "lock state" in tags and "file state" in tags
    assert "shm state" in tags and "rng state" in tags


def test_vpl320_map_arguments_audited_too():
    found = project_diags({"src/repro/perf/fan.py": """
        import threading
        from concurrent.futures import ProcessPoolExecutor

        def fan_out(work):
            lock = threading.Lock()
            with ProcessPoolExecutor() as pool:
                list(pool.map(work, [lock]))
    """})
    # The list literal hides the lock from the shallow tag walk, so
    # pass it directly to prove the map path is audited:
    found += project_diags({"src/repro/perf/fan2.py": """
        import threading
        from concurrent.futures import ProcessPoolExecutor

        def fan_out(work):
            lock = threading.Lock()
            with ProcessPoolExecutor() as pool:
                list(pool.map(work, lock))
    """})
    assert "VPL320" in [d.code for d in found]


def test_vpl320_executor_factory_from_config_is_audited():
    found = project_diags({"src/repro/perf/fan.py": """
        import threading
        from repro.perf.parallel import get_pool

        def fan_out(work):
            lock = threading.Lock()
            pool = get_pool(4)
            pool.submit(work, lock)
    """})
    assert [d.code for d in found] == ["VPL320"]


def test_vpl320_thread_executor_not_flagged():
    # run_in_executor-style thread pools share the address space; the
    # receiver is not a process pool, so nothing crosses a pickling
    # boundary.
    assert project_codes({"src/repro/fleet/off.py": """
        import threading
        from concurrent.futures import ThreadPoolExecutor

        def fan_out(work):
            lock = threading.Lock()
            pool = ThreadPoolExecutor(4)
            pool.submit(work, lock)
    """}) == []


def test_vpl320_plain_descriptors_are_blessed():
    assert project_codes({"src/repro/perf/fan.py": """
        from concurrent.futures import ProcessPoolExecutor

        def fan_out(work, chunks):
            with ProcessPoolExecutor() as pool:
                for chunk in chunks:
                    pool.submit(work, chunk.name, chunk.lengths, 1234)
    """}) == []


# ----------------------------------------------------------------------
# VPL210 — seed provenance into synthesis sinks
# ----------------------------------------------------------------------
def test_vpl210_literal_seeded_generator_at_sink_fires():
    found = project_diags({"src/repro/render.py": """
        import numpy as np
        from repro.analog.waveform import synthesize_waveform

        def render(frame):
            rng = np.random.default_rng(1234)
            return synthesize_waveform(frame, rng=rng)
    """})
    assert [d.code for d in found] == ["VPL210"]
    assert "spawn" in found[0].message


def test_vpl210_hand_rooted_seedsequence_fires():
    found = project_diags({"src/repro/render.py": """
        import numpy as np
        from repro.analog.waveform import synthesize_waveform

        def render(frame):
            seq = np.random.SeedSequence(42)
            return synthesize_waveform(frame, rng=np.random.default_rng(seq))
    """})
    assert "VPL210" in [d.code for d in found]


def test_vpl210_spawned_and_factory_generators_are_clean():
    assert project_codes({"src/repro/render.py": """
        import numpy as np
        from repro.analog.waveform import synthesize_waveform
        from repro.perf.parallel import message_seed

        def render(frame, root_seq, index):
            child = np.random.default_rng(root_seq.spawn(1)[0])
            fast = np.random.default_rng(message_seed(root_seq, index))
            return synthesize_waveform(frame, rng=child) \\
                + synthesize_waveform(frame, rng=fast)
    """}) == []


def test_vpl210_guarded_default_rng_fallback_is_blessed():
    # The `if rng is None:` fallback mirrors VPL201's injected-generator
    # contract: a caller-provided generator wins, the fresh one is the
    # documented entropy root for ad-hoc use.
    assert project_codes({"src/repro/render.py": """
        import numpy as np
        from repro.analog.waveform import synthesize_waveform

        def render(frame, rng=None):
            if rng is None:
                rng = np.random.default_rng()  # vpl: ignore[VPL102]
            return synthesize_waveform(frame, rng=rng)
    """}) == []


def test_vpl210_traces_bad_generator_through_callers():
    found = project_diags({
        "src/repro/render.py": """
            from repro.analog.waveform import synthesize_waveform

            def render(frame, rng):
                return synthesize_waveform(frame, rng=rng)
        """,
        "src/repro/driver.py": """
            import numpy as np
            from repro.render import render

            def main(frame):
                rng = np.random.default_rng(7)
                return render(frame, rng)
        """,
    })
    assert [d.code for d in found] == ["VPL210"]
    assert found[0].path == "src/repro/driver.py"


def test_vpl210_interprocedural_spawned_caller_is_clean():
    assert project_codes({
        "src/repro/render.py": """
            from repro.analog.waveform import synthesize_waveform

            def render(frame, rng):
                return synthesize_waveform(frame, rng=rng)
        """,
        "src/repro/driver.py": """
            import numpy as np
            from repro.render import render

            def main(frame, root_seq):
                rng = np.random.default_rng(root_seq.spawn(1)[0])
                return render(frame, rng)
        """,
    }) == []


def test_vpl210_parameter_with_no_project_callers_is_blessed():
    # Public API: callers outside the project are invisible, and a
    # missing edge means "unknown", never "unsafe".
    assert project_codes({"src/repro/render.py": """
        from repro.analog.waveform import synthesize_waveform

        def render(frame, rng):
            return synthesize_waveform(frame, rng=rng)
    """}) == []


def test_vpl210_scoped_by_taint_paths():
    assert project_codes(
        {"src/tools/render.py": """
            import numpy as np
            from repro.analog.waveform import synthesize_waveform

            def render(frame):
                rng = np.random.default_rng(1)
                return synthesize_waveform(frame, rng=rng)
        """},
        taint_paths=("src/repro",),
    ) == []


# ----------------------------------------------------------------------
# Incremental cache
# ----------------------------------------------------------------------
CLEAN_MODULE = "import threading\n\nLOCK = threading.Lock()\n"
DIRTY_MODULE = (
    "import numpy as np\n"
    "np.random.seed(1)\n"
)


def _write_tree(root: Path, files: dict) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_cache_warm_run_reanalyzes_nothing_and_matches(tmp_path):
    _write_tree(tmp_path, {
        "src/a.py": CLEAN_MODULE,
        "src/b.py": DIRTY_MODULE,
    })
    config = LintConfig()
    cold = run_lint(["src"], config, root=tmp_path, use_cache=True)
    assert sorted(cold.analyzed) == ["src/a.py", "src/b.py"]
    assert cold.parse_count == 2

    warm = run_lint(["src"], config, root=tmp_path, use_cache=True)
    assert warm.analyzed == []
    assert sorted(warm.restored) == ["src/a.py", "src/b.py"]
    assert warm.parse_count == 0
    assert warm.diagnostics == cold.diagnostics  # byte-identical verdict


def test_cache_invalidates_only_the_edited_file(tmp_path):
    _write_tree(tmp_path, {
        "src/a.py": CLEAN_MODULE,
        "src/b.py": CLEAN_MODULE,
    })
    config = LintConfig()
    run_lint(["src"], config, root=tmp_path, use_cache=True)
    (tmp_path / "src" / "b.py").write_text(DIRTY_MODULE)
    edited = run_lint(["src"], config, root=tmp_path, use_cache=True)
    assert edited.analyzed == ["src/b.py"]
    assert edited.restored == ["src/a.py"]
    assert [d.code for d in edited.diagnostics] == ["VPL101"]


def test_cache_invalidates_on_analysis_version_bump(tmp_path, monkeypatch):
    _write_tree(tmp_path, {"src/a.py": CLEAN_MODULE})
    config = LintConfig()
    run_lint(["src"], config, root=tmp_path, use_cache=True)
    import repro.lint.cache as cache_mod

    monkeypatch.setattr(cache_mod, "ANALYSIS_VERSION", 999)
    bumped = run_lint(["src"], config, root=tmp_path, use_cache=True)
    assert bumped.analyzed == ["src/a.py"]
    assert bumped.restored == []


def test_cache_invalidates_on_config_change(tmp_path):
    _write_tree(tmp_path, {"src/a.py": DIRTY_MODULE})
    run_lint(["src"], LintConfig(), root=tmp_path, use_cache=True)
    changed = run_lint(
        ["src"], LintConfig(select=("VPL9",)), root=tmp_path, use_cache=True
    )
    assert changed.analyzed == ["src/a.py"]
    assert changed.diagnostics == []


def test_cache_corrupt_file_is_treated_as_cold(tmp_path):
    _write_tree(tmp_path, {"src/a.py": CLEAN_MODULE})
    config = LintConfig()
    run_lint(["src"], config, root=tmp_path, use_cache=True)
    cache_file = tmp_path / config.cache_dir / "analysis.json"
    cache_file.write_text("{not json")
    again = run_lint(["src"], config, root=tmp_path, use_cache=True)
    assert again.analyzed == ["src/a.py"]


def test_cache_prunes_deleted_files(tmp_path):
    _write_tree(tmp_path, {"src/a.py": CLEAN_MODULE, "src/b.py": CLEAN_MODULE})
    config = LintConfig()
    run_lint(["src"], config, root=tmp_path, use_cache=True)
    (tmp_path / "src" / "b.py").unlink()
    run_lint(["src"], config, root=tmp_path, use_cache=True)
    payload = json.loads(
        (tmp_path / config.cache_dir / "analysis.json").read_text()
    )
    assert sorted(payload["modules"]) == ["src/a.py"]


def test_cached_project_verdicts_follow_other_files(tmp_path):
    """A project rule's verdict must change even when its anchor file
    does not — the cross-module evidence lives in *other* modules."""
    _write_tree(tmp_path, {
        "src/repro/render.py": textwrap.dedent("""
            from repro.analog.waveform import synthesize_waveform

            def render(frame, rng):
                return synthesize_waveform(frame, rng=rng)
        """),
        "src/repro/driver.py": textwrap.dedent("""
            from repro.render import render

            def main(frame, rng):
                return render(frame, rng)
        """),
    })
    config = LintConfig()
    first = run_lint(["src"], config, root=tmp_path, use_cache=True)
    assert first.diagnostics == []
    # Edit ONLY the driver to pass a literal-seeded generator; the sink
    # module is served from cache yet the taint verdict flips.
    (tmp_path / "src/repro/driver.py").write_text(textwrap.dedent("""
        import numpy as np
        from repro.render import render

        def main(frame):
            rng = np.random.default_rng(7)
            return render(frame, rng)
    """))
    second = run_lint(["src"], config, root=tmp_path, use_cache=True)
    assert second.restored == ["src/repro/render.py"]
    assert [d.code for d in second.diagnostics] == ["VPL210"]


# ----------------------------------------------------------------------
# Registry split
# ----------------------------------------------------------------------
def test_rule_registry_splits_module_and_project_rules():
    module_codes = {rule.code for rule in iter_module_rules()}
    project_rules = {rule.code for rule in iter_project_rules()}
    assert {"VPL210", "VPL310", "VPL311", "VPL320", "VPL402"} <= project_rules
    assert module_codes.isdisjoint(project_rules)
    assert module_codes | project_rules == set(all_rules())


def test_lint_source_still_runs_project_rules_single_module():
    # lint_source wraps a one-file project, so intra-class lockset
    # verdicts still come out of the unit-test entry point.
    found = lint_source(
        textwrap.dedent(WORKERS_RACE), "src/repro/obs/pool.py"
    )
    assert [d.code for d in found] == ["VPL310"]
