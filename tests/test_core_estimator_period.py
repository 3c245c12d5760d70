"""Unit tests for the proportion estimator (Figure 4) and period heuristic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ControllerConfig
from repro.core.estimator import ProportionEstimator, tick_law
from repro.core.period import PeriodEstimator
from repro.monitor.usage import UsageSample
from repro.swift.pid import PIDGains


def usage(used_us: int, interval_us: int, allocated_ppt: int) -> UsageSample:
    return UsageSample(
        used_us=used_us,
        interval_us=interval_us,
        allocated_us=interval_us * allocated_ppt // 1000,
    )


def full_usage(interval_us: int, allocated_ppt: int) -> UsageSample:
    allocated = interval_us * allocated_ppt // 1000
    return UsageSample(used_us=allocated, interval_us=interval_us, allocated_us=allocated)


class TestProportionEstimator:
    def test_positive_pressure_raises_allocation(self):
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(50):
            result = estimator.estimate(0.4, full_usage(10_000, current), current, dt)
            current = result.desired_ppt
        assert current > 200

    def test_negative_pressure_lowers_allocation(self):
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(100):
            current = estimator.estimate(
                0.4, full_usage(10_000, current), current, dt
            ).desired_ppt
        high = current
        for _ in range(100):
            current = estimator.estimate(
                -0.4, full_usage(10_000, current), current, dt
            ).desired_ppt
        assert current < high

    def test_output_respects_bounds(self):
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(500):
            current = estimator.estimate(
                0.5, full_usage(10_000, current), current, dt
            ).desired_ppt
        assert current == config.max_proportion_ppt
        for _ in range(2_000):
            current = estimator.estimate(
                -0.5, full_usage(10_000, current), current, dt
            ).desired_ppt
        assert current == config.min_proportion_ppt

    def test_zero_pressure_holds_allocation(self):
        """The integral term preserves the level once the error is zero."""
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(60):
            current = estimator.estimate(
                0.3, full_usage(10_000, current), current, dt
            ).desired_ppt
        level = current
        for _ in range(20):
            current = estimator.estimate(
                0.0, full_usage(10_000, current), current, dt
            ).desired_ppt
        assert current == pytest.approx(level, abs=level * 0.15 + 5)

    def test_reclaim_fires_for_unused_allocation(self):
        """Positive pressure but unused allocation: the Figure 4 "too
        generous" branch must override the PID and reduce the
        allocation (the disk-bottlenecked case)."""
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = 500
        reclaimed = False
        for _ in range(30):
            result = estimator.estimate(
                0.4, usage(0, 10_000, current), current, dt
            )
            reclaimed = reclaimed or result.reclaimed
            current = result.desired_ppt
        assert reclaimed
        assert current < 500
        assert estimator.reclaim_count > 0

    def test_reclaim_reduces_by_constant_steps(self):
        config = ControllerConfig(reclaim_decrement_ppt=50, unused_threshold=0.5)
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        # Warm the usage EMA down so the reclaim rule is active.
        current = 600
        for _ in range(10):
            result = estimator.estimate(0.4, usage(0, 10_000, current), current, dt)
            current = result.desired_ppt
        # Once reclaiming, each step drops the allocation by <= C.
        previous = current
        result = estimator.estimate(0.4, usage(0, 10_000, previous), previous, dt)
        assert result.reclaimed
        assert 0 < previous - result.desired_ppt <= 50

    def test_no_reclaim_when_allocation_fully_used(self):
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = 400
        for _ in range(50):
            result = estimator.estimate(
                0.1, full_usage(10_000, current), current, dt
            )
            assert not result.reclaimed
            current = result.desired_ppt

    def test_no_reclaim_at_minimum_proportion(self):
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(20):
            result = estimator.estimate(0.0, usage(0, 10_000, current), current, dt)
            assert not result.reclaimed

    def test_reset(self):
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        estimator.estimate(0.5, full_usage(10_000, 100), 100, 0.01)
        estimator.reset()
        assert estimator.last_desired_ppt == config.min_proportion_ppt
        assert estimator.reclaim_count == 0


class TestPeriodEstimator:
    def test_small_allocation_grows_period(self):
        config = ControllerConfig(adapt_period=True)
        estimator = PeriodEstimator(config, dispatch_interval_us=1_000)
        start = estimator.period_us
        decision = estimator.update(proportion_ppt=10, fill_level=0.5)
        assert decision.grew_for_quantization
        assert decision.period_us > start

    def test_period_capped_at_maximum(self):
        config = ControllerConfig(adapt_period=True, period_max_us=60_000)
        estimator = PeriodEstimator(config, dispatch_interval_us=1_000)
        for _ in range(100):
            estimator.update(proportion_ppt=5, fill_level=0.5)
        assert estimator.period_us <= 60_000

    def test_large_allocation_keeps_period(self):
        config = ControllerConfig(adapt_period=True)
        estimator = PeriodEstimator(config, dispatch_interval_us=1_000)
        start = estimator.period_us
        decision = estimator.update(proportion_ppt=500, fill_level=0.5)
        assert not decision.grew_for_quantization
        assert decision.period_us == start

    def test_oscillation_shrinks_period(self):
        config = ControllerConfig(adapt_period=True, oscillation_threshold=0.1)
        estimator = PeriodEstimator(config, dispatch_interval_us=1_000)
        fills = [0.1, 0.9] * 10
        shrank = False
        for fill in fills:
            decision = estimator.update(proportion_ppt=500, fill_level=fill)
            shrank = shrank or decision.shrank_for_jitter
        assert shrank
        assert estimator.period_us < config.default_period_us

    def test_period_floored_at_minimum(self):
        config = ControllerConfig(
            adapt_period=True, oscillation_threshold=0.05, period_min_us=8_000
        )
        estimator = PeriodEstimator(config, dispatch_interval_us=1_000)
        for i in range(200):
            estimator.update(proportion_ppt=500, fill_level=(i % 2) * 1.0)
        assert estimator.period_us >= 8_000

    def test_initial_period_from_spec(self):
        config = ControllerConfig(adapt_period=True)
        estimator = PeriodEstimator(
            config, dispatch_interval_us=1_000, initial_period_us=42_000
        )
        assert estimator.period_us == 42_000


class TestEstimateTickEquivalence:
    """The fused controller fast path (estimate_tick) must be
    bit-identical to estimate() — same outputs, same internal state —
    over arbitrary histories, since the production controller runs only
    the fused copy while the unfused one remains the readable spec."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.floats(
                    min_value=-2.0, max_value=2.0,
                    allow_nan=False, allow_infinity=False,
                ),
                st.integers(min_value=0, max_value=20_000),   # used_us
                st.integers(min_value=0, max_value=20_000),   # interval_us
                st.integers(min_value=0, max_value=1_000),    # current_ppt
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_fused_path_is_bit_identical(self, steps):
        config = ControllerConfig()
        dt = config.controller_period_s
        unfused = ProportionEstimator(config)
        fused = ProportionEstimator(config)
        for pressure, used, interval, current_ppt in steps:
            allocated = interval * current_ppt // 1000
            reference = unfused.estimate(
                pressure,
                UsageSample(
                    used_us=used, interval_us=interval, allocated_us=allocated
                ),
                current_ppt,
                dt,
            )
            desired, cumulative, reclaimed = fused.estimate_tick(
                pressure, used, interval, allocated, current_ppt, dt
            )
            assert desired == reference.desired_ppt
            assert cumulative == reference.cumulative_pressure
            assert reclaimed == reference.reclaimed
            # Internal state must track exactly, or later steps drift.
            assert fused.pid.integral_value == unfused.pid.integral_value
            assert fused.pid.last_output == unfused.pid.last_output
            assert fused.pid.last_error == unfused.pid.last_error
            assert fused.pid.steps == unfused.pid.steps
            assert fused._usage_ratio_ema == unfused._usage_ratio_ema
            assert fused._used_fraction_ema == unfused._used_fraction_ema
            assert fused.reclaim_count == unfused.reclaim_count
            assert fused.last_desired_ppt == unfused.last_desired_ppt

    @pytest.mark.parametrize(
        "config",
        [
            ControllerConfig(),
            ControllerConfig(k_scale=4.0, max_proportion_ppt=700),
            ControllerConfig(pid_gains=PIDGains(kp=0.5, ki=0.0, kd=0.0)),
        ],
    )
    def test_tick_law_matches_the_pid_it_replaces(self, config):
        """The hoisted constants are the per-estimator PID's own."""
        pid = ProportionEstimator(config).pid
        dt = config.controller_period_s
        law = tick_law(config, dt)
        assert (law.kp, law.ki, law.kd) == (
            pid.gains.kp, pid.gains.ki, pid.gains.kd,
        )
        assert (law.integral_low, law.integral_high) == (
            pid._integrator.limit_low, pid._integrator.limit_high,
        )
        assert (law.output_low, law.output_high) == (pid.output_low, pid.output_high)
        lpf = pid._derivative_filter
        assert law.filter_alpha == dt / (lpf.time_constant_s + dt)

    def test_fused_path_rejects_bad_dt(self):
        estimator = ProportionEstimator(ControllerConfig())
        with pytest.raises(ValueError, match="dt must be positive"):
            estimator.estimate_tick(0.1, 0, 0, 0, 0, 0.0)
