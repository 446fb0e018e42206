"""Tests for tools/kpi_check.py — the BENCH_*.json trajectory gate."""

import importlib.util
import json
import os
import sys

import pytest

CHECKER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "kpi_check.py",
)

spec = importlib.util.spec_from_file_location("kpi_check", CHECKER_PATH)
kpi_check = importlib.util.module_from_spec(spec)
# dataclass processing resolves the defining module through sys.modules,
# so register before exec (plain spec_from_file_location skips this).
sys.modules["kpi_check"] = kpi_check
spec.loader.exec_module(kpi_check)


def _full(payload):
    return {"quick": False, **payload}


# --------------------------------------------------------------------------
# Plumbing
# --------------------------------------------------------------------------
def test_lookup_dotted_paths():
    payload = {"a": {"b": {"c": 3}}, "x": 1}
    assert kpi_check.lookup(payload, "a.b.c") == 3
    assert kpi_check.lookup(payload, "x") == 1
    assert kpi_check.lookup(payload, "a.missing") is None
    assert kpi_check.lookup(payload, "x.too.deep") is None


def test_load_strict_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        kpi_check.load_strict('{"v": NaN}')
    assert kpi_check.load_strict('{"v": 1.5}') == {"v": 1.5}


def test_every_registered_kpi_names_a_known_kind():
    for name, kpis in kpi_check.KPIS.items():
        for kpi in kpis:
            assert kpi.kind in ("invariant_true", "higher"), (name, kpi)


# --------------------------------------------------------------------------
# Invariants
# --------------------------------------------------------------------------
def _identical_program_latency_payload():
    """Every program-latency invariant satisfied."""
    return {"cold_program": {"bit_identical": True}}


def test_invariant_failure_reported_in_quick_mode_too():
    fresh = {"quick": True, **_identical_program_latency_payload()}
    fresh["cold_program"] = {"bit_identical": False}
    failures = kpi_check.check_invariants("program_latency", fresh)
    assert len(failures) == 1
    assert "cold_program.bit_identical" in failures[0]


def test_missing_invariant_counts_as_failure():
    failures = kpi_check.check_invariants("program_latency", {"quick": False})
    assert len(failures) == len(kpi_check.EXACT_CLAIMS)  # all absent


# --------------------------------------------------------------------------
# Trajectory comparisons
# --------------------------------------------------------------------------
def test_regression_beyond_rel_tol_fails():
    baseline = _full({"cold_program": {"speedup": 100.0}})
    ok = kpi_check.compare_payloads(
        "program_latency", _full({"cold_program": {"speedup": 51.0}}), baseline
    )
    assert ok == []
    bad = kpi_check.compare_payloads(
        "program_latency", _full({"cold_program": {"speedup": 49.0}}), baseline
    )
    assert len(bad) == 1 and "cold_program.speedup" in bad[0]


def test_quick_payloads_never_compared():
    baseline = _full({"cold_program": {"speedup": 100.0}})
    fresh = {"quick": True, "cold_program": {"speedup": 1.0}}
    assert kpi_check.compare_payloads("program_latency", fresh, baseline) == []
    # ... and a quick *baseline* is equally non-binding.
    assert (
        kpi_check.compare_payloads(
            "program_latency",
            _full({"cold_program": {"speedup": 1.0}}),
            {"quick": True, "cold_program": {"speedup": 100.0}},
        )
        == []
    )


def test_absent_metric_is_not_gated():
    baseline = _full({"cold_program": {"speedup": 100.0}})
    assert kpi_check.compare_payloads("program_latency", _full({}), baseline) == []
    assert (
        kpi_check.compare_payloads(
            "program_latency", _full({"cold_program": {"speedup": 100.0}}), _full({})
        )
        == []
    )


# --------------------------------------------------------------------------
# File-level behavior
# --------------------------------------------------------------------------
def test_unknown_bench_passes(tmp_path):
    path = tmp_path / "BENCH_novel.json"
    path.write_text(json.dumps({"bench": "novel", "quick": False}))
    assert kpi_check.check_file(str(path), "HEAD") == []


def test_malformed_json_fails(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text('{"bench": "program_latency", "v": NaN}')
    failures = kpi_check.check_file(str(path), "HEAD")
    assert len(failures) == 1 and "not strict JSON" in failures[0]


def test_committed_benches_pass_the_gate():
    """The working tree must always hold its own committed trajectory."""
    assert kpi_check.main([]) == 0
