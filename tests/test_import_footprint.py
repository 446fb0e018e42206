"""Serving never loads SciPy.

SciPy brings about 320 modules and 20 MB of resident memory, and only
synthetic dataset generation calls it (``repro table2``,
``generate_dataset``).  perfbench's ``peak_rss_mb`` is the process's
``ru_maxrss``, imports included, so a module-level SciPy import on the
serving path would be charged to every workload.  Each check runs in a
fresh interpreter, where the import state is the one a ``repro`` process
starts from.
"""

from __future__ import annotations

import os
import subprocess
import sys

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)

#: Makes any later ``import scipy`` (or ``from scipy import ...``) raise.
_BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def test_serving_modules_import_without_scipy():
    result = _python(
        _BLOCK_SCIPY + "import repro.engine, repro.analysis.capacity, repro.cli"
    )
    assert result.returncode == 0, result.stderr


def test_serve_runs_without_scipy():
    result = _python(
        _BLOCK_SCIPY
        + "from repro.cli import main\n"
        + "raise SystemExit(main(['serve', '--frames', '8']))"
    )
    assert result.returncode == 0, result.stderr
    assert "frames delivered" in result.stdout


def test_importing_the_engine_leaves_scipy_unloaded():
    result = _python(
        "import sys\nimport repro.engine\n"
        "assert 'scipy' not in sys.modules, 'repro.engine imported scipy'"
    )
    assert result.returncode == 0, result.stderr
