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
    return {
        "cold_program": {"bit_identical": True},
        "warm_store": {
            "bit_identical": True,
            "warm_programs_zero": True,
            "restored_bit_identical": True,
        },
    }


def test_invariant_failure_reported_in_quick_mode_too():
    fresh = {"quick": True, **_identical_program_latency_payload()}
    fresh["cold_program"] = {"bit_identical": False}
    failures = kpi_check.check_invariants("program_latency", fresh)
    assert len(failures) == 1
    assert "cold_program.bit_identical" in failures[0]


def test_warm_store_invariants_gated():
    fresh = {"quick": False, **_identical_program_latency_payload()}
    assert kpi_check.check_invariants("program_latency", fresh) == []
    fresh["warm_store"] = {
        "bit_identical": True,
        "warm_programs_zero": False,
        "restored_bit_identical": True,
    }
    failures = kpi_check.check_invariants("program_latency", fresh)
    assert len(failures) == 1
    assert "warm_store.warm_programs_zero" in failures[0]


def test_missing_invariant_counts_as_failure():
    failures = kpi_check.check_invariants("program_latency", {"quick": False})
    assert len(failures) == 4  # all exact claims absent


# --------------------------------------------------------------------------
# Trajectory comparisons
# --------------------------------------------------------------------------
def test_regression_beyond_rel_tol_fails():
    baseline = _full({"recovery_ratio": 1.0})
    ok = kpi_check.compare_payloads(
        "degraded_serving", _full({"recovery_ratio": 0.96}), baseline
    )
    assert ok == []
    bad = kpi_check.compare_payloads(
        "degraded_serving", _full({"recovery_ratio": 0.90}), baseline
    )
    assert len(bad) == 1 and "recovery_ratio" in bad[0]


def test_abs_slack_gates_small_differences():
    baseline = _full({"slo_vs_greedy_hit_gain": 0.05})
    ok = kpi_check.compare_payloads(
        "serving_policies", _full({"slo_vs_greedy_hit_gain": 0.04}), baseline
    )
    assert ok == []
    bad = kpi_check.compare_payloads(
        "serving_policies", _full({"slo_vs_greedy_hit_gain": 0.02}), baseline
    )
    assert len(bad) == 1


def test_quick_payloads_never_compared():
    baseline = _full({"recovery_ratio": 1.0})
    fresh = {"quick": True, "recovery_ratio": 0.1}
    assert kpi_check.compare_payloads("degraded_serving", fresh, baseline) == []
    # ... and a quick *baseline* is equally non-binding.
    assert (
        kpi_check.compare_payloads(
            "degraded_serving",
            _full({"recovery_ratio": 0.1}),
            {"quick": True, "recovery_ratio": 1.0},
        )
        == []
    )


def test_absent_metric_is_not_gated():
    baseline = _full({"recovery_ratio": 1.0})
    assert kpi_check.compare_payloads("degraded_serving", _full({}), baseline) == []
    assert (
        kpi_check.compare_payloads(
            "degraded_serving", _full({"recovery_ratio": 1.0}), _full({})
        )
        == []
    )


def test_chaos_invariants_gated():
    """The resilience flags are exact claims, checked in quick mode too."""
    fresh = {
        "quick": True,
        "default_bit_identical": False,
        "deterministic": True,
    }
    failures = kpi_check.check_invariants("chaos", fresh)
    assert len(failures) == 1
    assert "default_bit_identical" in failures[0]
    fresh["default_bit_identical"] = True
    assert kpi_check.check_invariants("chaos", fresh) == []


def test_controlplane_invariants_gated():
    """The control-plane flags are exact claims, checked in quick mode too."""
    fresh = {
        "quick": True,
        "default_bit_identical": True,
        "deterministic": False,
    }
    failures = kpi_check.check_invariants("controlplane", fresh)
    assert len(failures) == 1
    assert "deterministic" in failures[0]
    fresh["deterministic"] = True
    assert kpi_check.check_invariants("controlplane", fresh) == []


def test_controlplane_savings_and_hit_rate_gated():
    """Node-seconds savings and the deadline-hit rate are trajectory KPIs."""
    baseline = _full(
        {
            "autoscaled_interactive_hit_rate": 1.0,
            "node_seconds_saved_frac": 0.45,
        }
    )
    ok = kpi_check.compare_payloads(
        "controlplane",
        _full(
            {
                "autoscaled_interactive_hit_rate": 0.995,
                "node_seconds_saved_frac": 0.42,
            }
        ),
        baseline,
    )
    assert ok == []
    bad = kpi_check.compare_payloads(
        "controlplane",
        _full(
            {
                "autoscaled_interactive_hit_rate": 0.90,
                "node_seconds_saved_frac": 0.20,
            }
        ),
        baseline,
    )
    assert len(bad) == 2
    assert any("autoscaled_interactive_hit_rate" in f for f in bad)
    assert any("node_seconds_saved_frac" in f for f in bad)


def test_warm_store_speedup_gated_on_any_host():
    """A collapsed store-restore speedup fails the gate."""
    baseline = _full({"warm_store": {"speedup": 40.0}})
    fresh = _full({"warm_store": {"speedup": 5.0}})
    failures = kpi_check.compare_payloads("program_latency", fresh, baseline)
    assert len(failures) == 1 and "warm_store.speedup" in failures[0]


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
