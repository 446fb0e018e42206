"""Paper-to-code documentation checker.

Validates the pointers in ``docs/architecture.md`` and ``README.md`` so
the documentation layer cannot rot silently:

1. every backticked dotted path starting with ``repro.`` must import (as
   a module, or as an attribute of its parent module);
2. every backticked repo-relative file/directory reference
   (``src/...``, ``tests/...``, ``benchmarks/...``, ``examples/...``,
   ``docs/...``, ``tools/...``) must exist;
3. every module under ``src/repro`` must appear in
   ``docs/architecture.md`` at least once, as a backticked dotted path or
   inside one (the paper-to-code map must be total);
4. every ``### `repro <command>``` table in ``README.md`` must list
   exactly the ``--flags`` that ``repro.cli.build_parser()`` defines for
   that command;
5. each ``repro serve`` name flag's row must list, backticked in its
   default and meaning cells, exactly the keys of the registry that
   resolves the flag.

Run from the repo root (CI docs job)::

    PYTHONPATH=src python tools/check_docs.py

Exit status 0 means every pointer resolves; failures are listed one per
line.  ``tests/test_docs.py`` runs the same checks in the tier-1 suite.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC_FILES = ("docs/architecture.md", "README.md")

#: Backticked dotted module/attribute path, e.g. `repro.engine.health`.
MODULE_RE = re.compile(r"`(repro(?:\.\w+)+)`")
#: Backticked repo-relative path, e.g. `benchmarks/bench_robustness.py`.
PATH_RE = re.compile(
    r"`((?:src|tests|benchmarks|examples|docs|tools)/[\w./-]+)`"
)
#: Documented paths that are *generated* by running the benches and are
#: legitimately absent from a clean checkout.
GENERATED_PATHS = frozenset({"benchmarks/output/"})
#: README heading of one command's flag table, e.g. ### `repro serve`.
COMMAND_HEADING_RE = re.compile(r"^### `repro (\w+)`$", re.MULTILINE)
#: A flag in a table row's first cell, e.g. | `--frames` |.
FLAG_ROW_RE = re.compile(r"^\| `(--[\w-]+)[^`]*` \|", re.MULTILINE)
#: A flag row's flag and its default and meaning cells.
ROW_CELLS_RE = re.compile(
    r"^\| `(--[\w-]+)` \|([^|\n]*)\|([^|\n]*)\|$", re.MULTILINE
)
#: A backticked name in a table cell, e.g. `node-loss`.
NAME_RE = re.compile(r"`([\w-]+)`")


def _read(relative: str) -> str:
    with open(os.path.join(REPO_ROOT, relative)) as handle:
        return handle.read()


def check_module_references(doc_files=DOC_FILES) -> list[str]:
    """Import every backticked ``repro.*`` dotted path; return failures."""
    failures = []
    for doc in doc_files:
        text = _read(doc)
        for dotted in sorted(set(MODULE_RE.findall(text))):
            if not _resolves(dotted):
                failures.append(f"{doc}: `{dotted}` does not import")
    return failures


def _resolves(dotted: str) -> bool:
    try:
        importlib.import_module(dotted)
        return True
    except ImportError:
        pass
    # Maybe a module attribute (repro.engine.FrameServer).
    parent, _, attribute = dotted.rpartition(".")
    try:
        module = importlib.import_module(parent)
    except ImportError:
        return False
    return hasattr(module, attribute)


def check_path_references(doc_files=DOC_FILES) -> list[str]:
    """Verify every backticked repo-relative path exists; return failures."""
    failures = []
    for doc in doc_files:
        text = _read(doc)
        for path in sorted(set(PATH_RE.findall(text))):
            if path in GENERATED_PATHS:
                continue
            if not os.path.exists(os.path.join(REPO_ROOT, path.rstrip("/"))):
                failures.append(f"{doc}: `{path}` does not exist")
    return failures


def check_module_coverage(doc: str = "docs/architecture.md") -> list[str]:
    """Every module under ``src/repro`` needs a row in the map.

    A module is covered when a backticked dotted path names it or lies
    inside it: `repro.engine.server` and `repro.engine.server.FrameServer`
    both cover ``repro.engine.server`` (and the ``repro.engine`` package).
    """
    covered = set()
    for dotted in set(MODULE_RE.findall(_read(doc))):
        while dotted:  # the path and every path it lies inside
            covered.add(dotted)
            dotted = dotted.rpartition(".")[0]
    failures = []
    source_root = os.path.join(REPO_ROOT, "src")
    walk = os.walk(os.path.join(source_root, "repro"))
    for directory, _, files in sorted(walk):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.relpath(os.path.join(directory, name), source_root)
            module = path[: -len(".py")].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            if module not in covered:
                failures.append(
                    f"{doc}: module `{module}` has no paper-to-code row"
                )
    return failures


def parser_flags() -> dict[str, set[str]]:
    """The ``--flags`` of every ``repro`` command, read from the parser."""
    from repro.cli import build_parser

    parser = build_parser()
    (commands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: {
            flag
            for action in command._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for name, command in commands.choices.items()
    }


def _command_tables(doc: str) -> dict[str, str]:
    """Each ``### `repro <command>``` section, up to the next heading."""
    sections = COMMAND_HEADING_RE.split(_read(doc))
    return {
        command: re.split(r"^#", body, maxsplit=1, flags=re.MULTILINE)[0]
        for command, body in zip(sections[1::2], sections[2::2])
    }


def check_flag_tables(doc: str = "README.md") -> list[str]:
    """Each command's flag table lists exactly its parser flags."""
    flags = parser_flags()
    failures = []
    for command, table in _command_tables(doc).items():
        if command not in flags:
            failures.append(f"{doc}: `repro {command}` is not a command")
            continue
        listed = set(FLAG_ROW_RE.findall(table))
        for flag in sorted(flags[command] - listed):
            failures.append(f"{doc}: `repro {command}` table misses `{flag}`")
        for flag in sorted(listed - flags[command]):
            failures.append(
                f"{doc}: `repro {command}` table lists unknown `{flag}`"
            )
    return failures


def registry_names() -> dict:
    """The registry of keys each ``repro serve`` name flag resolves
    against, by flag."""
    from repro.engine.chaos import CHAOS_PLANS
    from repro.engine.controlplane import PLACEMENTS
    from repro.engine.failover import BROWNOUT_CONFIGS, RETRY_POLICIES
    from repro.engine.health import FAULT_PROFILES
    from repro.engine.scheduler import POLICIES
    from repro.engine.workloads import scenario_registry

    return {
        "--scenario": scenario_registry(),
        "--policy": POLICIES,
        "--fault-profile": FAULT_PROFILES,
        "--chaos-plan": CHAOS_PLANS,
        "--retry-policy": RETRY_POLICIES,
        "--brownout": BROWNOUT_CONFIGS,
        "--placement": PLACEMENTS,
    }


def check_name_lists(doc: str = "README.md") -> list[str]:
    """Each ``repro serve`` name-flag row lists exactly its registry's
    keys across its default and meaning cells."""
    table = _command_tables(doc).get("serve", "")
    rows = {
        flag: NAME_RE.findall(default + meaning)
        for flag, default, meaning in ROW_CELLS_RE.findall(table)
    }
    failures = []
    for flag, keys in registry_names().items():
        listed = set(rows.get(flag, ()))
        for key in sorted(set(keys) - listed):
            failures.append(
                f"{doc}: `repro serve` row `{flag}` misses `{key}`"
            )
        for name in sorted(listed - set(keys)):
            failures.append(
                f"{doc}: `repro serve` row `{flag}` lists unknown `{name}`"
            )
    return failures


def run_all_checks() -> list[str]:
    """Every check, concatenated failure list (empty = docs are sound)."""
    return (
        check_module_references()
        + check_path_references()
        + check_module_coverage()
        + check_flag_tables()
        + check_name_lists()
    )


def main() -> int:
    failures = run_all_checks()
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        print(f"{len(failures)} broken documentation pointer(s)")
        return 1
    print(
        "docs check: every module/path pointer, flag table and name list "
        "resolves"
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    sys.exit(main())
