"""The benchmark tracer's span points must keep resolving in the package.

``perfbench/tracer.py`` records spans by replacing public functions where
their callers look them up. A rename or move inside ``umdobench`` would make
traced benchmark runs fail (or lose a span), so every lookup is checked here.
The tracer is executed from its source text, so nothing is written next to it.
"""

import functools
import importlib
import types
from pathlib import Path

from umdobench.problem import BlockSystem

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def resolve(module_name, attr):
    """The object the tracer replaces, looked up the way it looks it up."""
    owner = importlib.import_module(module_name)
    cls_name, _, attr = attr.rpartition(".")
    if cls_name:
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_every_span_point_resolves():
    tracer = load_tracer()
    for name, places in tracer.SPAN_POINTS.items():
        for module_name, attr in places:
            target = resolve(module_name, attr)
            assert callable(target) or isinstance(target, functools.cached_property), (
                f"{name}: {module_name}.{attr} is neither a function nor a cached property"
            )


def test_linear_map_is_a_cached_property():
    # The tracer re-wraps the property's function; a plain method or
    # property would be traced on every access instead of once per system.
    assert isinstance(BlockSystem.__dict__["linear_map"], functools.cached_property)


def test_install_restores_every_span_point():
    tracer = load_tracer()
    places = [place for spots in tracer.SPAN_POINTS.values() for place in spots]
    before = [resolve(*place) for place in places]
    with tracer.Tracer().installed():
        during = [resolve(*place) for place in places]
    after = [resolve(*place) for place in places]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))
