"""Tests for repro.cli — the artifact-regeneration command line."""

import json
import os

import pytest

from repro.analysis.perf import EXACT_CLAIMS
from repro.cli import build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_summary_command(capsys):
    assert main(["summary"]) == 0
    out = capsys.readouterr().out
    assert "efficiency_tops_per_watt" in out
    assert "macs_per_cycle" in out


def test_fig4_command(capsys):
    assert main(["fig4"]) == 0
    assert '"1111"' in capsys.readouterr().out


def test_fig8_command(capsys):
    assert main(["fig8"]) == 0
    assert "Out2" in capsys.readouterr().out


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "OISA (measured)" in out


def test_compare_command(capsys):
    assert main(["compare"]) == 0
    out = capsys.readouterr().out
    assert "Crosslight" in out and "ASIC" in out


def test_claims_command_exit_code(capsys):
    # All claims hold on the default configuration -> exit 0.
    assert main(["claims"]) == 0
    assert "MACs/cycle K=3" in capsys.readouterr().out


def test_sweep_command(capsys):
    assert main(["sweep", "--platforms"]) == 0
    out = capsys.readouterr().out
    assert "Cross-platform sweep" in out
    assert "registered platforms:" in out
    for key in ("oisa", "crosslight", "appcip", "asic"):
        assert key in out


def test_serve_command(capsys):
    assert main(
        ["serve", "--frames", "16", "--nodes", "2", "--batch", "8"]
    ) == 0
    out = capsys.readouterr().out
    assert "FrameServer" in out
    assert "cache hits / misses" in out
    assert "frames on node 1" in out
    # The default scenario keeps the historical two-LeNet demo.
    assert "model-a, model-b" in out
    assert "SLO outcomes" not in out  # best-effort path stays bare


def test_serve_scenario_and_policy_flags(capsys):
    assert main(
        [
            "serve",
            "--scenario",
            "poisson",
            "--policy",
            "edf",
            "--frames",
            "16",
            "--nodes",
            "1",
            "--batch",
            "8",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "poisson" in out
    assert "lenet-4b, mlp-2b" in out
    assert "SLO outcomes — policy 'edf'" in out


def test_serve_models_flag_overrides_scenario(capsys):
    assert main(
        [
            "serve",
            "--models",
            "lenet:2,mlp:4",
            "--frames",
            "12",
            "--nodes",
            "1",
            "--batch",
            "8",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "lenet-2b, mlp-4b" in out


def test_serve_autoscales_an_adhoc_models_stream(capsys):
    # An ad-hoc --models stream is not in the scenario registry, so the
    # autoscaler's capacity model falls back to the analytic bound.
    assert main(
        [
            "serve",
            "--models",
            "lenet:4,mlp:2",
            "--frames",
            "48",
            "--shards",
            "2",
            "--autoscale",
            "1:2:0.01",
        ]
    ) == 0
    assert "scaling decisions" in capsys.readouterr().out


@pytest.mark.parametrize(
    "scenario", ["poisson-burst", "diurnal", "mixed-tenants", "chaos", "zoo"]
)
def test_serve_exercises_every_workload_generator(scenario, capsys):
    """`repro serve --scenario` runs each registered generator end-to-end."""
    assert main(
        [
            "serve",
            "--scenario",
            scenario,
            "--frames",
            "12",
            "--nodes",
            "1",
            "--batch",
            "8",
            "--fps",
            "600",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert scenario in out
    assert "frames delivered" in out


#: The error a malformed field of an ``--autoscale`` or ``--models`` spec
#: reads as.
_SPEC_FIELD_ERRORS = {
    ("--autoscale", "1.5:3"): (
        "min_nodes must be an integer in 'min:max[:window_s]', got '1.5'"
    ),
    ("--autoscale", "1:x"): (
        "max_nodes must be an integer in 'min:max[:window_s]', got 'x'"
    ),
    ("--autoscale", "1:3:abc"): (
        "window_s must be a number in 'min:max[:window_s]', got 'abc'"
    ),
    ("--models", "lenet:x"): (
        "lenet weight bits must be an integer in 'family[:bits]', got 'x'"
    ),
    ("--models", "mlp:2.5"): (
        "mlp weight bits must be an integer in 'family[:bits]', got '2.5'"
    ),
}


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--nodes", "0"),
        ("--frames", "0"),
        ("--frames", "-3"),
        ("--batch", "0"),
        ("--fps", "0"),
        ("--fps", "nan"),
        ("--spares", "-2"),
        ("--shards", "-1"),
        ("--slo-target", "7"),
        ("--slo-target", "0"),
        ("--scenario", "nope"),
        ("--models", "foo"),
        ("--models", "lenet:9"),
        ("--autoscale", "0:3"),
        ("--autoscale", "1:x"),
        ("--autoscale", "3:1"),
        ("--autoscale", "1:3:inf"),
        ("--autoscale", "1.5:3"),
        ("--autoscale", "1:3:abc"),
        ("--models", "lenet:x"),
        ("--models", "mlp:2.5"),
        ("--policy", "bogus"),
        ("--fault-profile", "bogus"),
        ("--chaos-plan", "bogus"),
        ("--retry-policy", "bogus"),
        ("--brownout", "bogus"),
        ("--seed", "-1"),
        ("--seed", "1.5"),
    ],
)
def test_serve_rejects_bad_numeric_flags_at_parse_time(flag, value, capsys):
    """Every checked ``serve`` flag is a usage error (exit 2) before the
    engine runs; each name is checked by the registry that owns it, and a
    malformed number inside a spec names its field and the spec's form."""
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "invalid literal" not in err and "could not convert" not in err
    assert _SPEC_FIELD_ERRORS.get((flag, value), "") in err


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--frames", "8", "--brownout", "NONE", "--shards", "1"],
        [
            "serve", "--frames", "8",
            "--chaos-plan", "NONE", "--retry-policy", " None",
        ],
        [
            "serve", "--frames", "8", "--scenario", "Mixed-Tenants",
            "--policy", " SLO", "--fault-profile", "None ",
        ],
        ["sweep", "--fault-profile", "NONE"],
        ["serve", "--frames", "8", "--scenario", " Mixed-Tenants "],
        ["serve", "--frames", "8", "--shards", "2", "--placement", "Partition"],
        ["serve", "--frames", "8", "--models", "LeNet:4, MLP:2"],
        ["sweep", "--capacity", "--fast", "--capacity-scenario", " Diurnal"],
    ],
    ids=[
        "brownout-shards",
        "chaos-retry",
        "scenario-policy",
        "sweep",
        "scenario-spaces",
        "placement",
        "models",
        "capacity-scenario",
    ],
)
def test_registry_names_parse_to_one_spelling(argv, capsys):
    """A name any registry accepts (any case, surrounding spaces) parses
    to its key, so every later comparison and table sees one spelling:
    the run equals the lower-case spelling's but for wall-clock rows."""

    def stdout(args):
        assert main(args) == 0
        return [
            line
            for line in capsys.readouterr().out.splitlines()
            if "wall-clock" not in line
        ]

    assert stdout(argv) == stdout([arg.strip().lower() for arg in argv])


def test_sweep_capacity_command(capsys):
    assert main(["sweep", "--capacity", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "Capacity planning" in out
    assert "sustainable FPS" in out


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--capacity-nodes", ","),
        ("--capacity-nodes", "0"),
        ("--capacity-nodes", "abc"),
        ("--capacity-policies", "bogus"),
        ("--capacity-policies", ","),
        ("--capacity-scenario", "nope"),
        ("--fault-profile", "bogus"),
        ("--chaos-plan", "bogus"),
        ("--retry-policy", "bogus"),
        ("--spares", "-1"),
    ],
)
def test_sweep_rejects_bad_capacity_flags_at_parse_time(flag, value, capsys):
    """Every checked ``sweep`` flag is a usage error (exit 2) before any
    sweep runs."""
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--capacity", "--fast", flag, value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


_CHAOS_SERVE = [
    "serve",
    "--scenario",
    "chaos",
    "--frames",
    "120",
    "--fps",
    "2400",
    "--nodes",
    "2",
    "--batch",
    "8",
    "--policy",
    "slo",
    "--chaos-plan",
    "node-loss",
]


def test_serve_chaos_failover_report(capsys):
    assert main(
        _CHAOS_SERVE + ["--retry-policy", "deadline", "--spares", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "chaos events fired" in out
    assert "retry policy" in out and "deadline" in out
    assert "spares activated / configured" in out
    assert "chaos-node-loss" in out


def test_serve_check_slo_exit_codes(capsys):
    # With failover the interactive class holds its deadline target...
    assert main(
        _CHAOS_SERVE
        + ["--retry-policy", "deadline", "--spares", "1", "--check-slo"]
    ) == 0
    assert "all classes meet the target" in capsys.readouterr().out
    # ...without it the node loss burns deadlines and the gate trips.
    assert main(_CHAOS_SERVE + ["--check-slo"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_serve_brownout_report(capsys):
    assert main(
        [
            "serve",
            "--scenario",
            "chaos",
            "--frames",
            "160",
            "--fps",
            "2400",
            "--nodes",
            "2",
            "--batch",
            "8",
            "--policy",
            "slo",
            "--chaos-plan",
            "region-outage",
            "--brownout",
            "standard",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "brownout peak tier" in out


def test_sweep_resilience_command(capsys):
    assert main(["sweep", "--resilience", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "Serving resilience" in out
    assert "no-failover" in out and "retry+spares" in out


def test_bench_rejects_a_negative_seed_at_parse_time(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--quick", "--seed", "-1"])
    assert excinfo.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("broken", [None, *EXACT_CLAIMS])
def test_bench_exits_nonzero_naming_each_false_claim(
    broken, monkeypatch, tmp_path, capsys
):
    from repro.analysis import perf

    with open(os.path.join(REPO_ROOT, "BENCH_program.json")) as handle:
        payload = json.load(handle)
    for claim in EXACT_CLAIMS:
        section, flag = claim.split(".")
        payload[section][flag] = claim != broken
    monkeypatch.setattr(perf, "run_bench", lambda quick, seed: payload)
    output = str(tmp_path / "BENCH_program.json")
    assert main(["bench", "--output", output]) == (0 if broken is None else 1)
    out = capsys.readouterr().out
    for claim in EXACT_CLAIMS:
        assert (f"exact claim {claim} is false" in out) == (claim == broken)
    assert os.path.exists(output)
