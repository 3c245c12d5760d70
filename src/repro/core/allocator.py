"""The adaptive controller (Figure 1's "Controller" box).

:class:`ProportionAllocator` closes the feedback loop:

1. **Monitor progress** — for every controlled thread it samples the
   symbiotic registry (queue fill levels and roles) or falls back to
   the miscellaneous constant-pressure heuristic.
2. **Estimate** — the per-thread :class:`ProportionEstimator` turns the
   pressure and last-interval CPU usage into a desired proportion
   (Figure 4); real-time and aperiodic real-time threads skip this and
   use their specified proportion.
3. **Resolve overload** — desired allocations are summed; if they
   exceed the overload threshold, real-rate and miscellaneous proposals
   are squished (fair share or weighted fair share), and quality
   exceptions are raised for threads whose queues have saturated.
4. **Actuate** — the resulting (proportion, period) pairs are written
   into the reservation scheduler.

The allocator is deliberately independent of the simulation kernel: it
only needs a scheduler that accepts reservations, a registry to read
fill levels from, and a clock value passed into :meth:`update`.  The
:class:`~repro.core.driver.ControllerDriver` wires it to a simulated
system and models its own CPU cost.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import PROPORTION_SCALE, ControllerConfig
from repro.core.errors import AdmissionError, ControllerError, QualityException
from repro.core.estimator import ProportionEstimator, tick_law
from repro.core.overload import (
    SquishPolicy,
    WeightedFairShareSquish,
    check_admission,
)
from repro.core.period import PeriodEstimator
from repro.core.taxonomy import ThreadClass, ThreadSpec, classify
from repro.ipc.registry import SymbioticRegistry
from repro.monitor.progress import ConstantPressureSource, ProgressSampler
from repro.monitor.usage import UsageMonitor
from repro.sched.rbs import ReservationScheduler
from repro.sim.thread import SimThread, ThreadState


@dataclass
class AllocationDecision:
    """What the controller decided for one thread in one period."""

    thread: SimThread
    thread_class: ThreadClass
    pressure_raw: Optional[float]
    cumulative_pressure: Optional[float]
    desired_ppt: int
    granted_ppt: int
    period_us: int
    squished: bool = False
    reclaimed: bool = False
    #: Saturation direction noted during the decision ("full"/"empty"),
    #: consumed by the quality-exception check during overload.
    _saturation: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def granted_fraction(self) -> float:
        """Granted proportion as a fraction of the CPU."""
        return self.granted_ppt / PROPORTION_SCALE


@dataclass
class _ControlledThread:
    """Internal per-thread controller state."""

    thread: SimThread
    spec: ThreadSpec
    estimator: ProportionEstimator
    sampler: ProgressSampler
    period_estimator: Optional[PeriodEstimator] = None
    current_ppt: int = 0
    #: Registry version at which the thread's class (kept on its
    #: decision) was derived; classification only changes when a
    #: linkage is added or removed, so it is cached between registry
    #: changes, together with what follows from it (see
    #: :meth:`ProportionAllocator._reclassify`).
    class_version: int = -1
    #: Whether the class's proportion comes from the estimator
    #: (real-rate and miscellaneous) rather than the spec.
    estimated: bool = False
    #: The period rule's result for the class, or ``None`` when the
    #: period estimator supplies the period every tick.
    fixed_period_us: Optional[int] = None
    #: Per-thread decision object, mutated in place every tick (one
    #: decision exists per controlled thread per tick by construction,
    #: so reuse saves a nine-field dataclass build per thread-tick).
    decision: Optional[AllocationDecision] = None


class ProportionAllocator:
    """Feedback-driven assignment of proportion and period.

    Parameters
    ----------
    scheduler:
        The reservation scheduler to actuate.
    registry:
        The symbiotic-interface registry to read progress from.
    config:
        Controller tunables.
    squish_policy:
        Overload policy; defaults to weighted fair share (which equals
        plain fair share when all importances are 1, the paper's base
        policy).
    """

    def __init__(
        self,
        scheduler: ReservationScheduler,
        registry: SymbioticRegistry,
        config: Optional[ControllerConfig] = None,
        squish_policy: Optional[SquishPolicy] = None,
    ) -> None:
        self.scheduler = scheduler
        self.registry = registry
        self.config = config if config is not None else ControllerConfig()
        self.squish_policy = (
            squish_policy
            if squish_policy is not None
            else WeightedFairShareSquish(self.config.min_proportion_ppt)
        )
        self.usage_monitor = UsageMonitor()
        self.misc_pressure_source = ConstantPressureSource(self.config.misc_pressure)
        #: The estimation law's constants.  Like the squish floor and the
        #: misc pressure above they derive from the config once: building
        #: them every tick would also hand the trace a fresh float object
        #: per tick wherever the PID output clamps.
        self._dt = self.config.controller_period_s
        self._law = tick_law(self.config, self._dt)
        self.quality_exceptions: list[QualityException] = []
        self.updates = 0
        self._controlled: dict[int, _ControlledThread] = {}

    @property
    def capacity_cpus(self) -> int:
        """CPU count the controller budgets against (scheduler's kernel).

        Counts only *online* CPUs so admission and overload thresholds
        tighten the moment a CPU fails and relax again on recovery.
        """
        return self.scheduler.online_cpu_count

    # ------------------------------------------------------------------
    # registration (what the paper's jobs do explicitly)
    # ------------------------------------------------------------------
    def register(self, thread: SimThread, spec: Optional[ThreadSpec] = None) -> None:
        """Place ``thread`` under control of the allocator.

        Real-time specs (a proportion given) go through admission
        control and are actuated immediately, because a reservation
        must hold from the moment it is accepted, not from the next
        controller tick.  Admission (:func:`check_admission`) certifies
        one packing: the default placement's least-loaded packing of
        the live real-time reservations plus this one, on the online
        CPUs, keeps every online CPU's real-time total at or under the
        admission threshold.  On one CPU that is the paper's test.
        """
        if thread.tid in self._controlled:
            raise ControllerError(f"thread {thread.name!r} is already controlled")
        spec = spec if spec is not None else ThreadSpec()
        if spec.proportion_ppt is not None:
            check_admission(
                self.config,
                self._real_time_reservations(),
                (spec.proportion_ppt, thread.tid, thread.affinity, thread.name),
                n_cpus=self.scheduler.n_cpus,
                online=self.scheduler.online_cpus,
            )
        state = _ControlledThread(
            thread=thread,
            spec=spec,
            estimator=ProportionEstimator(self.config),
            sampler=ProgressSampler(
                thread, self.registry, setpoint=self.config.setpoint_fill
            ),
        )
        if self.config.adapt_period:
            state.period_estimator = PeriodEstimator(
                self.config,
                self.scheduler.dispatch_interval_us,
                initial_period_us=spec.period_us,
            )
        self._controlled[thread.tid] = state
        if spec.specifies_proportion:
            period = spec.period_us or self.config.default_period_us
            self._actuate(state, spec.proportion_ppt, period)

    def would_admit(
        self,
        proportion_ppt: int,
        *,
        affinity: Optional[int] = None,
        name: str = "<candidate>",
    ) -> bool:
        """Whether a real-time reservation of ``proportion_ppt`` would
        pass admission control right now.

        The open-system workload engine's admission-on-arrival check:
        the packing test :meth:`register` runs, returning a verdict
        instead of raising, so a rejected arrival is an expected
        outcome, not an exception.  No thread exists yet, so the
        request ranks after every live reservation of its size, as the
        thread created next would (tids only grow); for that thread a
        ``True`` answer guarantees the immediately following
        ``register`` succeeds (the simulation is single-threaded).
        Capacity freed by an exited job is visible immediately: the
        test only counts *live* real-time reservations.  A pin on an
        offline CPU counts on the lowest online CPU, as placement puts
        it.
        """
        try:
            check_admission(
                self.config,
                self._real_time_reservations(),
                (proportion_ppt, sys.maxsize, affinity, name),
                n_cpus=self.scheduler.n_cpus,
                online=self.scheduler.online_cpus,
            )
        except AdmissionError:
            return False
        return True

    def unregister(self, thread: SimThread) -> None:
        """Remove ``thread`` from control (its reservation is cleared)."""
        state = self._controlled.pop(thread.tid, None)
        if state is None:
            return
        self.usage_monitor.forget(thread)
        if thread.state.is_live:
            self.scheduler.clear_reservation(thread)

    def controlled_threads(self) -> list[SimThread]:
        """All threads currently under control."""
        return [state.thread for state in self._controlled.values()]

    def decision_count(self) -> int:
        """Number of threads the next update will decide for."""
        return len(self._controlled)

    def spec_for(self, thread: SimThread) -> ThreadSpec:
        """The spec a thread registered with."""
        state = self._controlled.get(thread.tid)
        if state is None:
            raise ControllerError(f"thread {thread.name!r} is not controlled")
        return state.spec

    def sampler_for(self, thread: SimThread) -> ProgressSampler:
        """The progress sampler the controller reads for ``thread``.

        Exposed so fault injection can wrap the sensor path (dropout /
        corruption windows) without reaching into private state.
        """
        state = self._controlled.get(thread.tid)
        if state is None:
            raise ControllerError(f"thread {thread.name!r} is not controlled")
        return state.sampler

    def set_sampler(self, thread: SimThread, sampler: ProgressSampler) -> None:
        """Replace the progress sampler the controller reads for ``thread``.

        The counterpart of :meth:`sampler_for`: fault injection swaps in
        a wrapping sensor for the fault window and restores the original
        afterwards.  The sampler must observe the same thread.
        """
        state = self._controlled.get(thread.tid)
        if state is None:
            raise ControllerError(f"thread {thread.name!r} is not controlled")
        if sampler.thread is not thread:
            raise ControllerError(
                f"sampler observes {sampler.thread.name!r}, not {thread.name!r}"
            )
        state.sampler = sampler

    def _real_time_reservations(self) -> list[tuple[int, int, Optional[int], str]]:
        """Live real-time reservations as (proportion, tid, pin, name)."""
        return [
            (
                state.spec.proportion_ppt,
                state.thread.tid,
                state.thread.affinity,
                state.thread.name,
            )
            for state in self._controlled.values()
            if state.spec.proportion_ppt is not None and state.thread.state.is_live
        ]

    # ------------------------------------------------------------------
    # the controller period
    # ------------------------------------------------------------------
    def update(self, now: int) -> list[AllocationDecision]:
        """Run one controller period at virtual time ``now``.

        Returns the decisions made, in registration order, after
        actuating them on the scheduler.

        The returned :class:`AllocationDecision` objects are **reused
        across ticks** (one long-lived instance per controlled thread,
        mutated in place) — a deliberate hot-path trade-off, since one
        decision exists per thread per tick.  Read them before the next
        update; a caller that wants a history must copy the fields it
        cares about, not retain the objects.

        A tick is three passes over the controlled threads: one decide
        loop for every thread class, the overload squish (only when the
        desired total exceeds the threshold) and one batched write of
        every reservation.
        """
        config = self.config
        dt = self._dt
        law = self._law
        self.updates += 1
        self._drop_exited()
        states = list(self._controlled.values())

        # Constants of the per-thread loop.
        version = self.registry.version
        usage_last = self.usage_monitor._last
        misc_pressure = self.misc_pressure_source.pressure
        min_ppt = config.min_proportion_ppt
        max_ppt = config.max_proportion_ppt
        real_rate = ThreadClass.REAL_RATE

        decisions: list[AllocationDecision] = []
        threads: list[SimThread] = []
        granted: list[int] = []
        periods: list[int] = []
        total_desired = 0
        for state in states:
            if state.class_version != version:
                self._reclassify(state, version)
            decision = state.decision
            decision.squished = False
            decision._saturation = None
            thread = state.thread
            # Usage sampling (UsageMonitor.sample, inlined): one dict
            # probe and three integer ops per thread-tick.  Real-time
            # threads are sampled too, so the monitor's bookkeeping
            # stays continuous.
            tid = thread.tid
            total = thread.accounting.total_us
            previous = usage_last.get(tid)
            usage_last[tid] = (total, now)
            current_ppt = state.current_ppt
            period = state.fixed_period_us

            if state.estimated:
                # Real-rate and miscellaneous threads: the estimator.
                if decision.thread_class is real_rate:
                    sample = state.sampler.sample()
                    if sample is None:
                        pressure_raw = 0.0
                        fill_level = None
                    else:
                        pressure_raw = sample.raw
                        fill_level = sample.mean_fill
                else:
                    sample = None
                    pressure_raw = misc_pressure
                    fill_level = None
                if previous is None:
                    used = 0
                    interval = 0
                else:
                    used = total - previous[0]
                    if used < 0:
                        used = 0
                    interval = now - previous[1]
                    if interval < 0:
                        interval = 0
                desired_ppt, cumulative, reclaimed = state.estimator.estimate_tick(
                    pressure_raw,
                    used,
                    interval,
                    interval * current_ppt // 1000,
                    current_ppt,
                    dt,
                    law,
                )
                decision.pressure_raw = pressure_raw
                decision.cumulative_pressure = cumulative
                decision.reclaimed = reclaimed
                if period is None:
                    period = state.period_estimator.update(
                        current_ppt or min_ppt, fill_level
                    ).period_us
                if state.spec.interactive:
                    # Interactive jobs: "assigning them a small period
                    # and estimating their proportion by measuring the
                    # amount of time they typically run before
                    # blocking".  Their input queues are empty almost
                    # all the time, so the fill-level feedback alone
                    # would park them at the floor; the run-before-block
                    # heuristic reserves enough to serve one typical
                    # burst within each (small) period.
                    burst_us = thread.accounting.run_before_block_ema_us
                    if burst_us > 0:
                        heuristic_ppt = int(
                            round(1.5 * burst_us * PROPORTION_SCALE / period)
                        )
                        heuristic_ppt = min(max_ppt, heuristic_ppt)
                        desired_ppt = max(desired_ppt, heuristic_ppt)
                if sample is not None and sample.per_channel:
                    # A quality exception is only warranted when a queue
                    # saturated in the direction that means this thread
                    # is falling behind (signed pressure at its
                    # maximum): a consumer's queue completely full, or a
                    # producer's queue completely empty.
                    if max(sample.per_channel.values()) >= 0.45:
                        if sample.saturated_full:
                            decision._saturation = "full"
                        elif sample.saturated_empty:
                            decision._saturation = "empty"
            else:
                # Real-time and aperiodic real-time: the specified
                # proportion, kept exactly.
                desired_ppt = state.spec.proportion_ppt
                decision.pressure_raw = None
                decision.cumulative_pressure = None
                decision.reclaimed = False

            decision.desired_ppt = desired_ppt
            decision.granted_ppt = desired_ppt
            decision.period_us = period
            total_desired += desired_ppt
            decisions.append(decision)
            threads.append(thread)
            granted.append(desired_ppt)
            periods.append(period)

        threshold = config.overload_threshold_total_ppt(self.capacity_cpus)
        if total_desired > threshold:
            self._resolve_overload(states, decisions, granted, threshold, now)

        self.scheduler.set_reservations(threads, granted, periods, now=now)
        for state, proportion_ppt in zip(states, granted):
            state.current_ppt = proportion_ppt
        return decisions

    def _reclassify(self, state: _ControlledThread, version: int) -> None:
        """Derive ``state``'s class, and what follows from it, at
        registry ``version``.

        Classification is a pure function of the spec and the
        registry's linkage knowledge, so the allocator caches it until
        a linkage is added or removed.
        """
        thread_class = classify(
            state.spec, self.registry.has_progress_metric(state.thread)
        )
        state.class_version = version
        state.estimated = not thread_class.has_reservation_spec
        state.fixed_period_us = self._period_rule(state, thread_class)
        if state.decision is None:
            state.decision = AllocationDecision(
                thread=state.thread,
                thread_class=thread_class,
                pressure_raw=None,
                cumulative_pressure=None,
                desired_ppt=0,
                granted_ppt=0,
                period_us=0,
            )
        else:
            state.decision.thread_class = thread_class

    def _period_rule(
        self, state: _ControlledThread, thread_class: ThreadClass
    ) -> Optional[int]:
        """The one period rule.

        A real-time thread keeps its specified period.  Otherwise an
        interactive job gets the interactive period, then a specified
        period wins, then the period estimator's adapted period
        (real-rate threads, when adaptation is on; ``None`` here, as the
        estimator decides it every tick), then the default.
        """
        spec = state.spec
        if thread_class is ThreadClass.REAL_TIME:
            return spec.period_us
        if spec.interactive:
            return self.config.interactive_period_us
        if spec.period_us is not None:
            return spec.period_us
        if (
            state.period_estimator is not None
            and thread_class is ThreadClass.REAL_RATE
        ):
            return None
        return self.config.default_period_us

    # ------------------------------------------------------------------
    # overload resolution
    # ------------------------------------------------------------------
    def _resolve_overload(
        self,
        states: list[_ControlledThread],
        decisions: list[AllocationDecision],
        granted: list[int],
        threshold: int,
        now: int,
    ) -> None:
        """Fit the proposed allocations under the overload threshold.

        Real-time (and aperiodic real-time) reservations are protected.
        The remaining capacity is handed out in two tiers, which is what
        produces the Figure 7 behaviour where the CPU hog "effectively
        loses allocation to the consumer":

        1. real-rate threads — whose desired allocation reflects a
           *measured* need — are satisfied first, squished
           proportionally among themselves only if they alone exceed
           the available capacity;
        2. miscellaneous threads — whose constant pseudo-pressure just
           says "give me whatever is spare" — share the residual via
           the (weighted) fair-share squish policy, never dropping
           below the minimum proportion (starvation freedom).

        ``states``, ``decisions`` and ``granted`` are index-aligned;
        squished grants are written to both the decision and
        ``granted``.
        """
        # Squishable == real-rate or miscellaneous, so the three
        # buckets partition the classes.
        protected = 0
        real_rate: list[int] = []
        misc: list[int] = []
        real_rate_class = ThreadClass.REAL_RATE
        misc_class = ThreadClass.MISCELLANEOUS
        for i, decision in enumerate(decisions):
            thread_class = decision.thread_class
            if thread_class is misc_class:
                misc.append(i)
            elif thread_class is real_rate_class:
                real_rate.append(i)
            else:
                protected += decision.desired_ppt
        available = max(0, threshold - protected)
        # ``granted`` still holds the desired proportions here.
        real_rate_total = sum([granted[i] for i in real_rate])
        if real_rate_total > available:
            self._apply_squish(real_rate, states, decisions, granted, available, now)
            misc_available = 0
        else:
            misc_available = available - real_rate_total
        self._apply_squish(misc, states, decisions, granted, misc_available, now)

    def _apply_squish(
        self,
        indices: list[int],
        states: list[_ControlledThread],
        decisions: list[AllocationDecision],
        granted: list[int],
        available_ppt: int,
        now: int,
    ) -> None:
        """Squish the bucket ``indices`` (into the tick's index-aligned
        lists) into ``available_ppt``."""
        if not indices:
            return
        desired = [granted[i] for i in indices]
        grants = self.squish_policy.squish_lists(
            desired, [states[i].spec.importance for i in indices], available_ppt
        )
        min_ppt = self.config.min_proportion_ppt
        for i, want, got in zip(indices, desired, grants):
            if got < want:
                if got < min_ppt:
                    got = min_ppt
                granted[i] = got
                decision = decisions[i]
                decision.granted_ppt = got
                decision.squished = True
                if decision._saturation is not None:
                    self._quality_exception(decision, states[i].spec, now)

    def _quality_exception(
        self, decision: AllocationDecision, spec: ThreadSpec, now: int
    ) -> None:
        exception = QualityException(
            time_us=now,
            thread=decision.thread,
            reason=f"queue {decision._saturation} while overloaded",
            desired_ppt=decision.desired_ppt,
            granted_ppt=decision.granted_ppt,
        )
        self.quality_exceptions.append(exception)
        if spec.quality_callback is not None:
            spec.quality_callback(exception)

    # ------------------------------------------------------------------
    # actuation
    # ------------------------------------------------------------------
    def _actuate(
        self,
        state: _ControlledThread,
        proportion_ppt: int,
        period_us: int,
        now: Optional[int] = None,
    ) -> None:
        self.scheduler.set_reservation(
            state.thread, proportion_ppt, period_us, now=now
        )
        state.current_ppt = proportion_ppt

    def _drop_exited(self) -> None:
        # Inline the is_live property: this runs over every controlled
        # thread once per controller tick.
        exited = ThreadState.EXITED
        gone = [
            tid for tid, s in self._controlled.items()
            if s.thread.state is exited
        ]
        for tid in gone:
            state = self._controlled.pop(tid)
            self.usage_monitor.forget(state.thread)

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def current_allocation_ppt(self, thread: SimThread) -> int:
        """The proportion currently actuated for ``thread``."""
        state = self._controlled.get(thread.tid)
        if state is None:
            raise ControllerError(f"thread {thread.name!r} is not controlled")
        return state.current_ppt

    def total_allocated_ppt(self) -> int:
        """Sum of currently actuated proportions across controlled threads."""
        return sum(s.current_ppt for s in self._controlled.values())


__all__ = ["AllocationDecision", "ProportionAllocator"]
