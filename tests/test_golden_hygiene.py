"""Golden-regen hygiene: every golden is enumerable and safely rewritable.

Two failure modes this file exists to prevent:

* **orphan goldens** — a committed file under ``tests/goldens/`` whose
  regeneration command nobody remembers.  ``REGEN`` maps every golden to
  the exact command that rewrites it; the enumeration test fails the
  moment a golden appears (or disappears) without updating the map.
* **sloppy regen runs** — the historical ``if "--write" in sys.argv``
  pattern silently printed the docstring on a typo'd flag and wrote from
  any working directory.  The strict entry (``tests/golden_cli.py``)
  rejects unknown arguments before a single byte is written and refuses
  to run outside the repo root; the subprocess tests here pin both.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
GOLDEN_DIR = os.path.join(TESTS_DIR, "goldens")

#: Every committed golden and the command that regenerates it, run from
#: the repo root.  Adding a golden without registering it here fails
#: ``test_every_golden_has_a_registered_regen_command``.
REGEN: dict[str, str] = {
    "serve_default.json": (
        "PYTHONPATH=src python tests/test_engine_scheduler.py --write"
    ),
    "table1_repr.txt": "PYTHONPATH=src python tests/test_goldens.py --write",
    "table1_render.txt": "PYTHONPATH=src python tests/test_goldens.py --write",
    "fig9_repr.txt": "PYTHONPATH=src python tests/test_goldens.py --write",
    "fig9_render.txt": "PYTHONPATH=src python tests/test_goldens.py --write",
    "claims_repr.txt": "PYTHONPATH=src python tests/test_goldens.py --write",
    "capacity_fast_points.txt": (
        "PYTHONPATH=src python tests/test_schedule_only.py --write"
    ),
    "capacity_poisson_points.txt": (
        "PYTHONPATH=src python tests/test_schedule_only.py --write"
    ),
    "resilience_fast_rows.txt": (
        "PYTHONPATH=src python tests/test_schedule_only.py --write"
    ),
    "serve_zoo.jsonl": (
        "PYTHONPATH=src python tests/test_serve_zoo_golden.py --write"
    ),
    "bench_serving.json": (
        "PYTHONPATH=src python tests/test_simulated_benches.py --write"
    ),
    "bench_degraded.json": (
        "PYTHONPATH=src python tests/test_simulated_benches.py --write"
    ),
    "bench_chaos.json": (
        "PYTHONPATH=src python tests/test_simulated_benches.py --write"
    ),
    "bench_controlplane.json": (
        "PYTHONPATH=src python tests/test_simulated_benches.py --write"
    ),
}

#: The distinct ``--write`` entrypoint scripts, relative to the repo root.
WRITE_SCRIPTS = (
    os.path.join("tests", "test_goldens.py"),
    os.path.join("tests", "test_engine_scheduler.py"),
    os.path.join("tests", "test_schedule_only.py"),
    os.path.join("tests", "test_serve_zoo_golden.py"),
    os.path.join("tests", "test_simulated_benches.py"),
)


def _golden_digest() -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(GOLDEN_DIR)):
        with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def _run(script: str, *args: str, cwd: str = REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, script), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


# ----------------------------------------------------------------------
# Enumeration: no orphan goldens, no stale map entries
# ----------------------------------------------------------------------
def test_every_golden_has_a_registered_regen_command():
    on_disk = sorted(os.listdir(GOLDEN_DIR))
    assert on_disk == sorted(REGEN), (
        "tests/goldens/ and the REGEN map in tests/test_golden_hygiene.py "
        "disagree — register (or retire) the regen command for the "
        f"difference: {sorted(set(on_disk) ^ set(REGEN))}"
    )
    for name, command in REGEN.items():
        script = command.split("python ", 1)[1].split(" ")[0]
        assert os.path.exists(os.path.join(REPO_ROOT, script)), (
            f"regen command for {name} names a missing script: {script}"
        )
        assert command.endswith("--write")


def test_goldens_are_nonempty():
    for name in REGEN:
        path = os.path.join(GOLDEN_DIR, name)
        assert os.path.getsize(path) > 0, f"golden {name} is empty"


# ----------------------------------------------------------------------
# Strict entry: unknown args fail loudly, before anything is written
# ----------------------------------------------------------------------
@pytest.mark.parametrize("script", WRITE_SCRIPTS)
def test_unknown_args_fail_before_writing(script):
    before = _golden_digest()
    result = _run(script, "--write", "--bogus-flag")
    assert result.returncode != 0, (
        f"{script} accepted an unknown argument:\n{result.stdout}"
    )
    assert "bogus-flag" in result.stderr
    assert _golden_digest() == before, (
        f"{script} modified goldens despite the argument error"
    )


@pytest.mark.parametrize("script", WRITE_SCRIPTS)
def test_typoed_write_flag_is_rejected(script):
    before = _golden_digest()
    result = _run(script, "--wirte")
    assert result.returncode != 0
    assert _golden_digest() == before


# ----------------------------------------------------------------------
# Repo-root cwd assertion
# ----------------------------------------------------------------------
@pytest.mark.parametrize("script", WRITE_SCRIPTS)
def test_write_refuses_to_run_outside_the_repo_root(script, tmp_path):
    before = _golden_digest()
    result = _run(script, "--write", cwd=str(tmp_path))
    assert result.returncode != 0
    assert "repo root" in result.stderr
    assert _golden_digest() == before


@pytest.mark.parametrize("script", WRITE_SCRIPTS)
def test_bare_invocation_prints_docs_and_writes_nothing(script):
    before = _golden_digest()
    result = _run(script)
    assert result.returncode == 0
    assert "Regenerate" in result.stdout  # the module docstring
    assert _golden_digest() == before
