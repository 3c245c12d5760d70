"""Proportion estimation (Figure 4).

One :class:`ProportionEstimator` exists per controlled real-rate or
miscellaneous thread.  Each controller period it receives the thread's
summed progress pressure (Figure 3) and its CPU usage over the last
interval, and produces the thread's *desired* proportion:

* **on target** — the cumulative pressure Q_t from the PID block is
  multiplied by the constant scaling factor k to give the new desired
  allocation (``P' = k * Q_t``);
* **too generous** — if the thread left more than a threshold fraction
  of its previous allocation unused, the pressure is assumed to be
  overestimating the real need (for example the thread is bottlenecked
  on a disk) and the allocation is instead reduced by the constant C
  (``P' = P - C``).  The PID integral is wound down to match so the
  next period starts from the reduced value instead of snapping back.

The result is always clamped to the configured [min, max] proportion
range; the minimum is what guarantees the paper's starvation-freedom
property.
"""

# float-order: exact — the estimation law replays the PID arithmetic;
# reassociating it would break golden-trace equality.

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.core.config import PROPORTION_SCALE, ControllerConfig
from repro.monitor.usage import UsageSample
from repro.swift.pid import PIDController


class EstimateResult(NamedTuple):
    """Outcome of one estimation step for one thread.

    A named tuple: one result is constructed per controlled thread per
    controller tick, so creation cost sits on the controller hot path.
    """

    desired_ppt: int
    cumulative_pressure: float
    reclaimed: bool


#: Time constant of the low-pass filter on the PID's derivative term.
DERIVATIVE_FILTER_S = 0.05


class TickLaw(NamedTuple):
    """The estimation law's constants for one controller tick.

    Every estimator of one allocator shares its config, so these are
    the same for every controlled thread and every tick: the allocator
    computes them once with :func:`tick_law`, with the same expressions
    the per-thread code would evaluate, and
    :meth:`ProportionEstimator.estimate_tick` takes them instead of
    re-deriving them per thread.
    """

    kp: float
    ki: float
    kd: float
    integral_low: Optional[float]
    integral_high: Optional[float]
    #: Derivative filter weight ``dt / (time_constant + dt)``.
    filter_alpha: float
    output_low: float
    output_high: float
    k_scale: float
    min_fraction: float
    max_fraction: float
    min_ppt: int
    max_ppt: int
    unused_threshold: float
    reclaim_decrement_ppt: int
    #: Weights of the newest sample and of the history in the usage EMAs.
    ema_alpha: float
    ema_beta: float


def tick_law(config: ControllerConfig, dt: float) -> TickLaw:
    """The :class:`TickLaw` of ``config`` at controller period ``dt``."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    gains = config.pid_gains
    # The PID output is a cumulative pressure; scaling by k turns it
    # into a CPU fraction, so bounding the output at max_fraction / k
    # bounds the desired fraction.  The integral bounds are
    # PIDController's anti-windup clamp for these output bounds.
    output_low = 0.0
    output_high = config.max_fraction / config.k_scale
    integral_low = None
    integral_high = None
    if gains.ki > 0:
        integral_low = output_low / gains.ki
        integral_high = output_high / gains.ki
    alpha = ProportionEstimator.USAGE_EMA_ALPHA
    return TickLaw(
        gains.kp,
        gains.ki,
        gains.kd,
        integral_low,
        integral_high,
        dt / (DERIVATIVE_FILTER_S + dt),
        output_low,
        output_high,
        config.k_scale,
        config.min_fraction,
        config.max_fraction,
        config.min_proportion_ppt,
        config.max_proportion_ppt,
        config.unused_threshold,
        config.reclaim_decrement_ppt,
        alpha,
        1.0 - alpha,
    )


class ProportionEstimator:
    """Per-thread implementation of the Figure 4 estimation law."""

    def __init__(self, config: ControllerConfig) -> None:
        self.config = config
        # The output and integral bounds are the ones tick_law derives.
        self.pid = PIDController(
            config.pid_gains,
            output_low=0.0,
            output_high=config.max_fraction / config.k_scale,
            derivative_filter_s=DERIVATIVE_FILTER_S,
        )
        self.last_desired_ppt = config.min_proportion_ppt
        self.reclaim_count = 0
        # Smoothed used/allocated ratio.  A thread whose reservation
        # period is longer than the controller interval receives its
        # allocation in bursts, so a single interval can legitimately
        # show zero usage; the reclaim rule therefore looks at a short
        # exponential average rather than one sample.
        self._usage_ratio_ema = 1.0
        # Smoothed fraction of the CPU the thread actually used; the
        # reclaim rule never reduces the allocation below this, so a
        # thread that is genuinely using (say) 12% of the machine is not
        # reclaimed down to the floor just because it was granted more.
        self._used_fraction_ema = 0.0

    #: Weight of the newest usage sample in the smoothed ratio.
    USAGE_EMA_ALPHA = 0.25

    def estimate(
        self,
        pressure_raw: float,
        usage: UsageSample,
        current_ppt: int,
        dt: float,
    ) -> EstimateResult:
        """Produce the thread's desired proportion for the next interval.

        Parameters
        ----------
        pressure_raw:
            Σ R·F over the thread's progress metrics (or the
            miscellaneous constant).
        usage:
            CPU used vs. allocated over the previous controller
            interval, for the reclaim rule.
        current_ppt:
            The proportion actually in force over the previous interval
            (post-squish), which is what the reclaim rule decrements.
        dt:
            Controller period in seconds.
        """
        config = self.config
        cumulative = self.pid.step(pressure_raw, dt)
        desired_fraction = config.k_scale * cumulative
        reclaimed = False

        if self._too_generous(usage, current_ppt):
            reclaim_fraction = (
                current_ppt - config.reclaim_decrement_ppt
            ) / PROPORTION_SCALE
            # Never reclaim below what the thread is demonstrably using.
            reclaim_fraction = max(reclaim_fraction, self._used_fraction_ema)
            if reclaim_fraction < desired_fraction:
                desired_fraction = reclaim_fraction
                reclaimed = True
                self.reclaim_count += 1
                self._wind_down_to(desired_fraction)

        desired_fraction = min(config.max_fraction, max(config.min_fraction,
                                                        desired_fraction))
        desired_ppt = int(round(desired_fraction * PROPORTION_SCALE))
        desired_ppt = min(config.max_proportion_ppt,
                          max(config.min_proportion_ppt, desired_ppt))
        self.last_desired_ppt = desired_ppt
        return EstimateResult(
            desired_ppt=desired_ppt,
            cumulative_pressure=cumulative,
            reclaimed=reclaimed,
        )

    def estimate_tick(
        self,
        pressure_raw: float,
        used_us: int,
        interval_us: int,
        allocated_us: int,
        current_ppt: int,
        dt: float,
        law: Optional[TickLaw] = None,
    ) -> tuple[int, float, bool]:
        """Fused fast path of :meth:`estimate` for the controller tick.

        Performs exactly the arithmetic of :meth:`estimate` (PID step,
        reclaim rule with its EMA side effects, wind-down, clamps) in
        the same order on the same state holders, but takes the usage
        sample as three scalars and returns a plain ``(desired_ppt,
        cumulative_pressure, reclaimed)`` tuple — the allocator runs
        this once per controlled thread per tick, so the per-call
        object constructions and method dispatches of the unfused path
        are measurable.  ``law`` is ``tick_law(self.config, dt)``,
        which the allocator computes once rather than per thread; it is
        computed here when omitted.
        ``tests/test_core_estimator_period.py`` pins the two paths
        bit-identical over randomized histories.
        """
        if law is None:
            law = tick_law(self.config, dt)
        (
            kp, ki, kd, integral_low, integral_high, filter_alpha,
            output_low, output_high, k_scale, min_fraction, max_fraction,
            min_ppt, max_ppt, unused_threshold, reclaim_decrement_ppt,
            ema_alpha, ema_beta,
        ) = law
        # -- PIDController.step, inlined (same arithmetic, same order) --
        pid = self.pid
        proportional = kp * pressure_raw
        integrator = pid._integrator
        value = integrator.value + pressure_raw * dt
        if integral_high is not None and value > integral_high:
            value = integral_high
        if integral_low is not None and value < integral_low:
            value = integral_low
        integrator.value = value
        integral = ki * value
        differentiator = pid._differentiator
        previous = differentiator._previous
        if previous is None:
            derivative_raw = 0.0
        else:
            derivative_raw = (pressure_raw - previous) / dt
        differentiator._previous = pressure_raw
        lpf = pid._derivative_filter
        if not lpf._primed:
            lpf.value = derivative_raw
            lpf._primed = True
        else:
            lpf.value += filter_alpha * (derivative_raw - lpf.value)
        cumulative = proportional + integral + kd * lpf.value
        if cumulative > output_high:
            cumulative = output_high
        if cumulative < output_low:
            cumulative = output_low
        pid.last_output = cumulative
        pid.last_error = pressure_raw
        pid.steps += 1

        # -- estimate body: reclaim rule and clamps --
        desired_fraction = k_scale * cumulative
        reclaimed = False
        too_generous = False
        if allocated_us > 0 and interval_us > 0:
            ratio = used_us / allocated_us
            if ratio > 2.0:
                ratio = 2.0
            self._usage_ratio_ema = ema_alpha * ratio + ema_beta * self._usage_ratio_ema
            self._used_fraction_ema = (
                ema_alpha * (used_us / interval_us)
                + ema_beta * self._used_fraction_ema
            )
            if current_ppt > min_ppt:
                ema = self._usage_ratio_ema
                unused = 1.0 - (1.0 if ema > 1.0 else ema)
                too_generous = unused > unused_threshold
        if too_generous:
            reclaim_fraction = (
                current_ppt - reclaim_decrement_ppt
            ) / PROPORTION_SCALE
            used_ema = self._used_fraction_ema
            if used_ema > reclaim_fraction:
                reclaim_fraction = used_ema
            if reclaim_fraction < desired_fraction:
                desired_fraction = reclaim_fraction
                reclaimed = True
                self.reclaim_count += 1
                # _wind_down_to, inlined.
                if ki > 0:
                    target_output = desired_fraction / k_scale
                    if target_output < 0.0:
                        target_output = 0.0
                    integrator.value = target_output / ki
        if desired_fraction < min_fraction:
            desired_fraction = min_fraction
        if desired_fraction > max_fraction:
            desired_fraction = max_fraction
        # round() of a float is already an int: int(round(x)) without
        # the second conversion.
        desired_ppt = round(desired_fraction * PROPORTION_SCALE)
        if desired_ppt < min_ppt:
            desired_ppt = min_ppt
        if desired_ppt > max_ppt:
            desired_ppt = max_ppt
        self.last_desired_ppt = desired_ppt
        return desired_ppt, cumulative, reclaimed

    def _too_generous(self, usage: UsageSample, current_ppt: int) -> bool:
        """Whether the previous allocation overestimated the real need."""
        used_us, interval_us, allocated_us = usage
        if allocated_us <= 0 or interval_us <= 0:
            return False
        ratio = min(2.0, used_us / allocated_us)
        alpha = self.USAGE_EMA_ALPHA
        beta = 1.0 - alpha
        self._usage_ratio_ema = alpha * ratio + beta * self._usage_ratio_ema
        # interval_us > 0 was checked above, so this is exactly
        # usage.used_fraction without the property's guard branch.
        self._used_fraction_ema = (
            alpha * (used_us / interval_us) + beta * self._used_fraction_ema
        )
        if current_ppt <= self.config.min_proportion_ppt:
            return False
        unused = 1.0 - min(1.0, self._usage_ratio_ema)
        return unused > self.config.unused_threshold

    def _wind_down_to(self, desired_fraction: float) -> None:
        """Make the PID's internal state consistent with a reclaim.

        Without this, the integral term would still encode the old
        (too-generous) allocation and the very next period would undo
        the reclaim.  We set the integral so that, at zero error, the
        controller reproduces the reclaimed value.
        """
        gains = self.config.pid_gains
        if gains.ki <= 0:
            return
        target_output = max(0.0, desired_fraction / self.config.k_scale)
        self.pid.preload_integral(target_output / gains.ki)

    def reset(self) -> None:
        """Clear the estimator's internal state."""
        self.pid.reset()
        self.last_desired_ppt = self.config.min_proportion_ppt
        self.reclaim_count = 0
        self._usage_ratio_ema = 1.0
        self._used_fraction_ema = 0.0


__all__ = ["EstimateResult", "ProportionEstimator", "TickLaw", "tick_law"]
