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
