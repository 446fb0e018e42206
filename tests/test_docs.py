"""Tier-1 guard for the paper-to-code documentation layer.

Runs the same checks as the CI docs job (``tools/check_docs.py``): every
``repro.*`` pointer in ``docs/architecture.md``/``README.md`` must import,
every referenced file must exist, every module under ``src/repro``
must have a paper-to-code row, every README flag table must list exactly
its command's parser flags, and each ``repro serve`` name flag's row must
list exactly its registry's keys.
"""

import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER_PATH = os.path.join(REPO_ROOT, "tools", "check_docs.py")


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checker_script_exists():
    assert os.path.isfile(CHECKER_PATH)


def test_architecture_doc_exists():
    assert os.path.isfile(os.path.join(REPO_ROOT, "docs", "architecture.md"))


def test_module_references_import():
    checker = _load_checker()
    assert checker.check_module_references() == []


def test_path_references_exist():
    checker = _load_checker()
    assert checker.check_path_references() == []


def test_every_package_has_a_paper_to_code_row():
    """Every module, each package's ``__init__`` included."""
    checker = _load_checker()
    assert checker.check_module_coverage() == []


def test_module_coverage_check_catches_an_unmapped_module(
    tmp_path, monkeypatch
):
    """A module no backticked path names or lies inside fails the check,
    though its package has a row."""
    checker = _load_checker()
    package = tmp_path / "src" / "repro" / "photonics"
    package.mkdir(parents=True)
    for name in ("__init__.py", "microring.py", "noise.py"):
        (package / name).write_text("")
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    (docs_dir / "architecture.md").write_text(
        "| Rings | `repro.photonics.microring.MicroringResonator` |\n"
    )
    monkeypatch.setattr(checker, "REPO_ROOT", str(tmp_path))
    assert checker.check_module_coverage() == [
        "docs/architecture.md: module `repro.photonics.noise` has no "
        "paper-to-code row"
    ]


def test_readme_flag_tables_match_the_parser():
    checker = _load_checker()
    assert checker.check_flag_tables() == []


@pytest.mark.parametrize(
    "rows, failure",
    [
        (
            ["--output", "--quick", "--seed", "--frobnicate"],
            "table lists unknown `--frobnicate`",
        ),
        (["--output", "--quick"], "table misses `--seed`"),
    ],
    ids=["extra-row", "missing-row"],
)
def test_flag_table_check_catches_stale_rows(
    rows, failure, tmp_path, monkeypatch
):
    """A flag table out of step with the parser fails the check."""
    checker = _load_checker()
    table = "".join(f"| `{flag}` | - | - |\n" for flag in rows)
    (tmp_path / "README.md").write_text(
        "### `repro bench`\n\n| Flag | Default | Meaning |\n"
        f"| --- | --- | --- |\n{table}\n### Next section\n"
        "| `--seed` | - | - |\n"
    )
    monkeypatch.setattr(checker, "REPO_ROOT", str(tmp_path))
    assert checker.check_flag_tables() == [f"README.md: `repro bench` {failure}"]


def test_readme_name_lists_match_the_registries():
    checker = _load_checker()
    assert checker.check_name_lists() == []


def test_name_list_check_catches_a_missing_key(tmp_path, monkeypatch):
    """A ``repro serve`` row that leaves out one of its registry's keys
    fails the check."""
    checker = _load_checker()
    rows = "".join(
        f"| `{flag}` | - | "
        + ", ".join(f"`{key}`" for key in keys if key != "partition")
        + " |\n"
        for flag, keys in checker.registry_names().items()
    )
    (tmp_path / "README.md").write_text(
        "### `repro serve`\n\n| Flag | Default | Meaning |\n"
        f"| --- | --- | --- |\n{rows}"
    )
    monkeypatch.setattr(checker, "REPO_ROOT", str(tmp_path))
    assert checker.check_name_lists() == [
        "README.md: `repro serve` row `--placement` misses `partition`"
    ]


def test_checker_catches_broken_pointers(tmp_path, monkeypatch):
    """The checker is not vacuous: a bad pointer must fail."""
    checker = _load_checker()
    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    (docs_dir / "architecture.md").write_text(
        "`repro.engine.health` is real but `repro.engine.telepathy` and "
        "`src/repro/engine/telepathy.py` are not.\n"
    )
    monkeypatch.setattr(checker, "REPO_ROOT", str(tmp_path))
    docs = ("docs/architecture.md",)
    module_failures = checker.check_module_references(doc_files=docs)
    path_failures = checker.check_path_references(doc_files=docs)
    assert any("telepathy" in failure for failure in module_failures)
    assert any("telepathy" in failure for failure in path_failures)
