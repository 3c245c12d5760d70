"""Unit tests for the SWiFT feedback toolkit."""

import math

import pytest

from repro.swift.components import (
    Clamp,
    DeadBand,
    Differentiator,
    Gain,
    Integrator,
    LowPassFilter,
    MovingAverage,
    SummingJunction,
)
from repro.swift.pid import PIDController, PIDGains


class TestComponents:
    def test_gain(self):
        assert Gain(2.5).step(4.0, 0.01) == 10.0

    def test_summing_junction_plain(self):
        assert SummingJunction().combine([1.0, 2.0, -0.5]) == 2.5

    def test_summing_junction_signed(self):
        junction = SummingJunction(signs=[1, -1])
        assert junction.combine([3.0, 1.0]) == 2.0

    def test_summing_junction_sign_mismatch(self):
        with pytest.raises(ValueError):
            SummingJunction(signs=[1]).combine([1.0, 2.0])

    def test_integrator_accumulates(self):
        integrator = Integrator()
        integrator.step(1.0, 0.5)
        assert integrator.step(1.0, 0.5) == pytest.approx(1.0)

    def test_integrator_clamps(self):
        integrator = Integrator(limit_low=-1.0, limit_high=1.0)
        for _ in range(100):
            integrator.step(10.0, 0.1)
        assert integrator.value == 1.0
        for _ in range(300):
            integrator.step(-10.0, 0.1)
        assert integrator.value == -1.0

    def test_integrator_reset(self):
        integrator = Integrator(initial=2.0)
        integrator.step(1.0, 1.0)
        integrator.reset()
        assert integrator.value == 2.0

    def test_differentiator_first_sample_is_zero(self):
        assert Differentiator().step(5.0, 0.1) == 0.0

    def test_differentiator_computes_slope(self):
        diff = Differentiator()
        diff.step(1.0, 0.1)
        assert diff.step(2.0, 0.1) == pytest.approx(10.0)

    def test_differentiator_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            Differentiator().step(1.0, 0.0)

    def test_low_pass_first_sample_passes_through(self):
        lpf = LowPassFilter(0.1)
        assert lpf.step(5.0, 0.01) == 5.0

    def test_low_pass_converges_to_constant_input(self):
        lpf = LowPassFilter(0.05)
        value = 0.0
        for _ in range(200):
            value = lpf.step(1.0, 0.01)
        assert value == pytest.approx(1.0, abs=1e-3)

    def test_low_pass_attenuates_step_initially(self):
        lpf = LowPassFilter(time_constant_s=1.0)
        lpf.step(0.0, 0.01)
        assert lpf.step(1.0, 0.01) < 0.05

    def test_low_pass_invalid_time_constant(self):
        with pytest.raises(ValueError):
            LowPassFilter(0.0)

    def test_moving_average(self):
        avg = MovingAverage(3)
        assert avg.step(3.0, 0) == 3.0
        assert avg.step(6.0, 0) == 4.5
        assert avg.step(9.0, 0) == 6.0
        assert avg.step(12.0, 0) == 9.0  # window slides

    def test_moving_average_invalid_window(self):
        with pytest.raises(ValueError):
            MovingAverage(0)

    def test_clamp(self):
        clamp = Clamp(-1.0, 1.0)
        assert clamp.step(5.0, 0) == 1.0
        assert clamp.step(-5.0, 0) == -1.0
        assert clamp.step(0.25, 0) == 0.25

    def test_clamp_invalid_range(self):
        with pytest.raises(ValueError):
            Clamp(1.0, -1.0)

    def test_dead_band(self):
        band = DeadBand(0.1)
        assert band.step(0.05, 0) == 0.0
        assert band.step(-0.05, 0) == 0.0
        assert band.step(0.2, 0) == 0.2


class TestPIDGains:
    def test_defaults_non_negative(self):
        gains = PIDGains()
        assert gains.kp >= 0 and gains.ki >= 0 and gains.kd >= 0

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            PIDGains(kp=-1)


class TestPIDController:
    def test_proportional_only(self):
        pid = PIDController(PIDGains(kp=2.0, ki=0.0, kd=0.0))
        assert pid.step(0.5, 0.01) == pytest.approx(1.0)

    def test_integral_accumulates_error(self):
        pid = PIDController(PIDGains(kp=0.0, ki=1.0, kd=0.0))
        out = 0.0
        for _ in range(100):
            out = pid.step(1.0, 0.01)
        assert out == pytest.approx(1.0, rel=1e-6)

    def test_integral_persists_when_error_returns_to_zero(self):
        pid = PIDController(PIDGains(kp=1.0, ki=1.0, kd=0.0))
        for _ in range(100):
            pid.step(1.0, 0.01)
        settled = pid.step(0.0, 0.01)
        assert settled == pytest.approx(1.0, rel=1e-6)

    def test_output_saturation(self):
        pid = PIDController(
            PIDGains(kp=10.0, ki=0.0, kd=0.0), output_low=0.0, output_high=1.0
        )
        assert pid.step(5.0, 0.01) == 1.0
        assert pid.step(-5.0, 0.01) == 0.0

    def test_anti_windup_limits_integral(self):
        pid = PIDController(
            PIDGains(kp=0.0, ki=1.0, kd=0.0), output_low=0.0, output_high=1.0
        )
        for _ in range(10_000):
            pid.step(1.0, 0.01)
        # After the error flips sign the output must recover quickly
        # because the integral was clamped at the output bound.
        recovery_steps = 0
        while pid.step(-1.0, 0.01) > 0.5 and recovery_steps < 1_000:
            recovery_steps += 1
        assert recovery_steps < 100

    def test_derivative_responds_to_change(self):
        pid = PIDController(
            PIDGains(kp=0.0, ki=0.0, kd=1.0), derivative_filter_s=None
        )
        pid.step(0.0, 0.01)
        assert pid.step(1.0, 0.01) == pytest.approx(100.0)

    def test_preload_integral(self):
        pid = PIDController(PIDGains(kp=0.0, ki=2.0, kd=0.0))
        pid.preload_integral(0.5)
        assert pid.step(0.0, 0.01) == pytest.approx(1.0)

    def test_reset_clears_state(self):
        pid = PIDController()
        pid.step(1.0, 0.01)
        pid.reset()
        assert pid.steps == 0
        assert pid.integral_value == 0.0

    def test_invalid_dt_rejected(self):
        with pytest.raises(ValueError):
            PIDController().step(1.0, 0.0)

    def test_closed_loop_first_order_plant_converges(self):
        """PID around a simple integrating plant reaches the set point."""
        pid = PIDController(PIDGains(kp=2.0, ki=4.0, kd=0.0))
        dt = 0.01
        state = 0.0
        setpoint = 1.0
        for _ in range(2_000):
            control = pid.step(setpoint - state, dt)
            state += control * dt
        assert state == pytest.approx(setpoint, abs=0.01)


class TestPIDInlineConsistency:
    def test_step_matches_explicit_component_composition(self):
        """PIDController.step inlines the component arithmetic for the
        controller hot path; this pins the fast path to the component
        classes so the two implementations cannot drift apart."""
        gains = PIDGains(kp=0.3, ki=0.7, kd=0.01)
        pid = PIDController(gains, output_low=0.0, output_high=2.0)
        integrator = Integrator(limit_low=0.0, limit_high=2.0 / gains.ki)
        differentiator = Differentiator()
        lpf = LowPassFilter(0.05)  # PIDController's default filter
        dt = 0.01
        for error in (0.5, -0.2, 1.3, 0.0, 0.8, -1.0, 0.4, 3.5, -3.5):
            expected = gains.kp * error + gains.ki * integrator.step(error, dt)
            expected += gains.kd * lpf.step(differentiator.step(error, dt), dt)
            expected = min(2.0, max(0.0, expected))
            assert pid.step(error, dt) == expected
        assert pid.integral_value == integrator.value
