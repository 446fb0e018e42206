"""Tests for repro.photonics.tuning — TO/EO hybrid costs."""

import pytest

from repro.photonics.tuning import HybridTuning, TuningBudget


@pytest.fixture
def tuner():
    return HybridTuning()


def test_small_shift_is_eo_only(tuner):
    to, eo = tuner.split_shift(tuner.eo_range_m / 2.0)
    assert to == 0.0
    assert eo == pytest.approx(tuner.eo_range_m / 2.0)


def test_large_shift_spills_to_to(tuner):
    shift = 0.5e-9  # well beyond EO range
    to, eo = tuner.split_shift(shift)
    assert eo == pytest.approx(tuner.eo_range_m)
    assert to == pytest.approx(shift - tuner.eo_range_m)


def test_sign_preserved(tuner):
    to, eo = tuner.split_shift(-0.3e-9)
    assert to <= 0.0 and eo <= 0.0


def test_eo_retune_fast_and_cheap(tuner):
    budget = tuner.retune(tuner.eo_range_m / 2.0)
    assert budget.latency_s == pytest.approx(tuner.eo_settle_time_s)
    assert budget.energy_j == pytest.approx(tuner.eo_energy_per_shift_j)


def test_to_retune_slow_and_hot(tuner):
    budget = tuner.retune(0.5e-9)
    assert budget.latency_s == pytest.approx(tuner.to_settle_time_s)
    assert budget.holding_power_w > 0.0
    assert budget.energy_j > tuner.eo_energy_per_shift_j


def test_zero_shift_free(tuner):
    budget = tuner.retune(0.0)
    assert budget.energy_j == 0.0
    assert budget.holding_power_w == 0.0


def test_holding_power_scales_with_shift(tuner):
    small = tuner.retune(0.2e-9).holding_power_w
    large = tuner.retune(0.6e-9).holding_power_w
    assert large > small


def test_mapping_cost_parallel_latency(tuner):
    shifts = [0.4e-9, 0.02e-9, 0.5e-9]
    total = tuner.mapping_cost(shifts)
    slowest = max(tuner.retune(s).latency_s for s in shifts)
    assert total.latency_s == pytest.approx(slowest)
    assert total.energy_j == pytest.approx(
        sum(tuner.retune(s).energy_j for s in shifts)
    )


def test_mapping_cost_empty():
    budget = HybridTuning().mapping_cost([])
    assert budget == TuningBudget(0.0, 0.0, 0.0)


def test_budget_validation():
    with pytest.raises(ValueError):
        TuningBudget(energy_j=-1.0, latency_s=0.0, holding_power_w=0.0)


@pytest.mark.parametrize(
    "name",
    [
        "to_power_per_nm_w",
        "to_settle_time_s",
        "eo_energy_per_shift_j",
        "eo_holding_power_w",
    ],
)
def test_tuner_settings_must_be_finite(name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        HybridTuning(**{name: float("inf")})
