"""Every annotation in the stream and perf packages resolves at runtime.

``from __future__ import annotations`` turns annotations into strings, so
a name used only in an annotation and never imported goes unnoticed until
something calls :func:`typing.get_type_hints` on it.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import repro.perf
import repro.stream


def _functions():
    """Module-level functions and class methods defined in both packages."""
    for package in (repro.stream, repro.perf):
        for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{module.__name__}.{name}", obj
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if isinstance(member, (staticmethod, classmethod)):
                            member = member.__func__
                        elif isinstance(member, property):
                            member = member.fget
                        if inspect.isfunction(member):
                            yield f"{module.__name__}.{name}.{attr}", member


def test_type_hints_resolve():
    functions = dict(_functions())
    assert "repro.stream.extractor.StreamingExtractor._extract" in functions
    assert "repro.perf.engine.extract_many_parallel" in functions
    unresolved = {}
    for name, function in functions.items():
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved[name] = str(exc)
    assert unresolved == {}
