"""Tests for repro.analysis.capacity — capacity-planning curves."""

import math

import pytest

from repro.analysis.capacity import (
    CapacitySettings,
    build_capacity_report,
    render_capacity_report,
)


@pytest.fixture(scope="module")
def fast_report():
    return build_capacity_report(CapacitySettings.fast())


def test_fast_report_covers_the_grid(fast_report):
    settings = fast_report.settings
    assert len(fast_report.points) == len(settings.policies) * len(
        settings.node_counts
    )
    assert fast_report.analytic_node_fps > 0.0
    assert fast_report.point("greedy", 1) is not None
    assert fast_report.point("slo", 99) is None


def test_capacity_scales_with_nodes(fast_report):
    one = fast_report.point("greedy", 1)
    two = fast_report.point("greedy", 2)
    assert one.sustainable_fps > 0.0
    ratio = two.sustainable_fps / one.sustainable_fps
    # Two nodes buy roughly double the sustainable rate (search is coarse
    # in the fast preset, so leave slack).
    assert 1.5 <= ratio <= 2.5


def test_measured_knee_respects_the_analytic_bound(fast_report):
    # The diurnal ramp peaks at 1.6x the mean rate, so the drop-free knee
    # of a drop-if-busy policy must sit below the steady-state ceiling.
    point = fast_report.point("greedy", 1)
    assert point.sustainable_fps < fast_report.analytic_node_fps
    assert point.drop_rate <= fast_report.settings.max_drop_rate


def test_report_is_deterministic():
    first = build_capacity_report(CapacitySettings.fast())
    second = build_capacity_report(CapacitySettings.fast())
    assert first.points == second.points
    assert first.analytic_node_fps == second.analytic_node_fps


def test_render_capacity_report(fast_report):
    text = render_capacity_report(fast_report)
    assert "Capacity planning" in text
    assert "sustainable FPS" in text
    assert "diurnal" in text


def test_unclosed_bracket_is_flagged_as_lower_bound():
    # A 95% drop tolerance can never fail a 16-frame stream (at most
    # 15/16 = 93.75% of frames can drop), so the expansion cap is hit:
    # the search must flag the result as a bound (>=), not fabricate a
    # bisected knee against an unprobed upper edge.
    settings = CapacitySettings(
        scenario="diurnal",
        policies=("greedy",),
        node_counts=(1,),
        frames=16,
        search_iterations=2,
        max_drop_rate=0.95,
    )
    report = build_capacity_report(settings)
    point = report.point("greedy", 1)
    assert not point.bracketed
    assert point.sustainable_fps > 0.0
    assert ">=" in render_capacity_report(report)


def test_settings_validation():
    for field, value in (
        ("frames", 0),
        ("search_iterations", 0),
        ("fps_floor", 0.0),
        ("policies", ()),
        ("policies", ("greedy", "bogus")),
        ("node_counts", ()),
        ("node_counts", (1, 0)),
        ("max_drop_rate", -0.01),
        ("max_drop_rate", 1.5),
        ("min_hit_rate", -0.5),
        ("min_hit_rate", 1.01),
    ):
        with pytest.raises(ValueError):
            CapacitySettings(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("frames", True),
        ("frames", 2.5),
        ("frames", 4.0),
        ("search_iterations", True),
        ("search_iterations", 2.5),
        ("node_counts", (True,)),
        ("node_counts", (1.5,)),
        ("node_counts", (1, 2.0)),
        ("fps_floor", math.inf),
        ("seed", -1),
        ("seed", 1.5),
    ],
)
def test_settings_reject_non_integer_counts_and_infinite_floor(field, value):
    """Each bad value names its field before any study starts (a
    ``frames=True`` study used to probe 1-frame streams)."""
    with pytest.raises(ValueError, match=field):
        CapacitySettings(**{field: value})


def test_unknown_scenario_fails_at_the_base_build():
    settings = CapacitySettings(scenario="nope")
    with pytest.raises(ValueError, match="unknown scenario"):
        build_capacity_report(settings)
