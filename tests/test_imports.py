"""Importing the package loads only what it needs at import time.

``scipy.stats`` and ``scipy.optimize`` together cost more than the rest of
the import, and the reference chain uses neither; the process pool is only
needed for parallel benchmarks. A top-level import of any of them fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEFERRED = ("scipy.stats", "scipy.optimize", "concurrent.futures.process")

PROBE = f"""
import sys
import umdobench
import umdobench.cli
print(",".join(m for m in {DEFERRED!r} if m in sys.modules))
"""


def test_import_defers_unused_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_import_defers_the_array_formatter():
    # Without cached bytecode, compiling umdobench._floatfmt costs a few ms
    # and about 1 MiB of peak memory; only a file with a chunk of
    # _MIN_KERNEL values or more needs it, and the p = 6 problems never do.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = (
        "import sys, numpy, umdobench, umdobench.cli\n"
        "from umdobench.problem import _MIN_KERNEL, _emit\n"
        "loaded = lambda: 'umdobench._floatfmt' in sys.modules\n"
        "states = [loaded()]\n"
        "umdobench.problem_digest(umdobench.default_benchmark_problem())\n"
        "states.append(loaded())\n"
        "_emit(numpy.arange(float(_MIN_KERNEL)))\n"
        "print(*states, loaded())"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False", "True"]


def test_public_names_resolve():
    # Each submodule's __all__ names only what it defines, and the package
    # root re-exports only names that some submodule declares public.
    import ast
    import importlib
    import pkgutil

    package = ROOT / "src" / "umdobench"
    for info in pkgutil.iter_modules([str(package)]):
        module = importlib.import_module(f"umdobench.{info.name}")
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert not missing, f"umdobench.{info.name}.__all__ names undefined {missing}"

    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert imports
    for node in imports:
        public = getattr(importlib.import_module(f"umdobench.{node.module}"), "__all__", ())
        stray = [a.name for a in node.names if not a.name.startswith("_") and a.name not in public]
        assert not stray, f"umdobench re-exports {stray} missing from umdobench.{node.module}.__all__"
