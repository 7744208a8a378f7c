"""Importing the package loads only what it needs at import time.

No scipy module loads with the package: ``scipy.linalg`` alone costs more
than the rest of the import together and loads with the first factorization,
``scipy.special`` with the first chance-constraint reduction, and
``scipy.optimize`` with the first optimizer run; the package never needs
``scipy.stats``. The process pool is only needed for parallel benchmarks. A
top-level import of any of them fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEFERRED = (
    "scipy",
    "scipy.linalg",
    "scipy.special",
    "scipy.stats",
    "scipy.optimize",
    "concurrent.futures.process",
)

PROBE = f"""
import sys
import umdobench
import umdobench.cli
print(",".join(m for m in {DEFERRED!r} if m in sys.modules))
"""


def _run(*args):
    """The standard output of ``python *args`` run on this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_defers_unused_modules():
    assert _run("-c", PROBE).strip() == ""


def test_scipy_linalg_loads_at_the_first_factorization():
    # Building, serializing and fingerprinting a problem factors nothing;
    # tuning its threshold factors the coupling matrix. Deferring the import
    # moves no bit: the digest and the reference optimum equal this process's.
    probe = (
        "import json, sys, umdobench\n"
        "loaded = lambda: 'scipy.linalg' in sys.modules\n"
        "states = [loaded()]\n"
        "config = umdobench.ProblemConfig(2, 1, (2, 2), (3, 3), seed=70)\n"
        "umdobench.problem_digest(umdobench.generate(config))\n"
        "states.append(loaded())\n"
        "problem = umdobench.default_benchmark_problem()\n"
        "states.append(loaded())\n"
        "system = umdobench.assemble(problem)\n"
        "qp = umdobench.reduce_margin(system, problem.t, problem.uncertainty.sigma, 2.0)\n"
        "x_star = [float(v).hex() for v in umdobench.solve_qp(qp).x_star]\n"
        "digest = umdobench.problem_digest(problem)\n"
        "print(json.dumps({'states': states, 'digest': digest, 'x_star': x_star}))\n"
    )
    import umdobench

    out = json.loads(_run("-c", probe))
    assert out["states"] == [False, False, True]
    problem = umdobench.default_benchmark_problem()
    assert out["digest"] == umdobench.problem_digest(problem)
    system = umdobench.assemble(problem)
    qp = umdobench.reduce_margin(system, problem.t, problem.uncertainty.sigma, 2.0)
    assert out["x_star"] == [float(v).hex() for v in umdobench.solve_qp(qp).x_star]


def test_import_defers_the_array_formatter():
    # Without cached bytecode, compiling umdobench._floatfmt costs a few ms
    # and about 1 MiB of peak memory. Importing the package and its CLI, and
    # building a problem, never need it; the first file written does, as it
    # writes every float of every file.
    probe = (
        "import sys, umdobench, umdobench.cli\n"
        "loaded = lambda: 'umdobench._floatfmt' in sys.modules\n"
        "states = [loaded()]\n"
        "problem = umdobench.default_benchmark_problem()\n"
        "states.append(loaded())\n"
        "umdobench.serialize(problem)\n"
        "print(*states, loaded())"
    )
    assert _run("-c", probe).split() == ["False", "False", "True"]


def test_module_entry_point_runs_the_cli():
    # README documents `python -m umdobench.cli` beside the console script.
    assert _run("-m", "umdobench.cli", "--version") == "umdo-bench 0.1.0\n"


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
