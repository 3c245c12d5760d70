"""CPU hotplug (fail/recover) semantics and forced-exit edge cases.

The second half is the forced-exit audit: ``kill_thread`` and
``fail_cpu`` arriving via calendar events in the middle of long compute
bursts must take effect at exactly the scripted virtual time, keep the
conservation identity, and replay bit-identically at a fixed setup.
Calling either from inside a dispatch round (which the calendar can
never do) is rejected.
"""

from __future__ import annotations

import pytest

from repro.sched.rbs import ReservationScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.errors import SimulationError
from repro.sim.kernel import Kernel

from tests.conftest import finite_body, spin_body


def make_kernel(n_cpus=2, **kwargs) -> Kernel:
    defaults = dict(
        charge_dispatch_overhead=False, syscall_cost_us=0,
        record_dispatches=True,
    )
    defaults.update(kwargs)
    return Kernel(
        RoundRobinScheduler(), n_cpus=n_cpus, **defaults
    )


class TestFailRecover:
    def test_fail_drains_pinned_threads_and_recover_restores(self):
        kernel = make_kernel(n_cpus=3)
        pinned = kernel.spawn("pinned", spin_body(), affinity=2)
        free = kernel.spawn("free", spin_body())
        kernel.run_for(5_000)
        drained = kernel.fail_cpu(2)
        assert drained == [pinned]
        assert pinned.affinity == 0  # lowest-numbered online CPU
        assert kernel.online_cpu_indices() == (0, 1)
        kernel.run_for(5_000)
        restored = kernel.recover_cpu(2)
        assert restored == [pinned]
        assert pinned.affinity == 2
        assert free.affinity is None

    def test_drained_thread_repinned_elsewhere_keeps_new_pin(self):
        kernel = make_kernel(n_cpus=3)
        pinned = kernel.spawn("pinned", spin_body(), affinity=2)
        kernel.run_for(2_000)
        kernel.fail_cpu(2)
        pinned.pin_to(1)  # the workload re-pins while the CPU is down
        kernel.run_for(2_000)
        restored = kernel.recover_cpu(2)
        assert restored == []
        assert pinned.affinity == 1

    def test_offline_cpu_accrues_offline_not_idle(self):
        kernel = make_kernel(n_cpus=2)
        kernel.spawn("w", spin_body())
        kernel.run_for(10_000)
        kernel.fail_cpu(1)
        idle_before = kernel.cpu_states[1].idle_us
        kernel.run_for(10_000)
        assert kernel.cpu_states[1].idle_us == idle_before
        assert kernel.cpu_states[1].offline_us == 10_000
        assert kernel.offline_us == 10_000
        # Conservation with the offline term.
        assert (
            kernel.total_thread_cpu_us() + kernel.idle_us + kernel.stolen_us
            + kernel.offline_us == kernel.capacity_us()
        )

    def test_capacity_listeners_fire_on_both_transitions(self):
        kernel = make_kernel(n_cpus=2)
        kernel.spawn("w", spin_body())
        calls = []
        kernel.add_capacity_listener(
            lambda now, online: calls.append((now, online))
        )
        kernel.run_for(3_000)
        kernel.fail_cpu(1)
        kernel.run_for(3_000)
        kernel.recover_cpu(1)
        assert calls == [(3_000, 1), (6_000, 2)]

    def test_error_guards(self):
        kernel = make_kernel(n_cpus=2)
        with pytest.raises(SimulationError, match="kernel has 2"):
            kernel.fail_cpu(5)
        with pytest.raises(SimulationError, match="kernel has 2"):
            kernel.recover_cpu(-1)
        with pytest.raises(SimulationError, match="already online"):
            kernel.recover_cpu(1)
        kernel.fail_cpu(1)
        with pytest.raises(SimulationError, match="already offline"):
            kernel.fail_cpu(1)
        with pytest.raises(SimulationError, match="last online CPU"):
            kernel.fail_cpu(0)

    def test_cannot_hotplug_mid_round(self):
        kernel = make_kernel(n_cpus=2)
        kernel._now_override = 100  # simulate being inside a dispatch
        with pytest.raises(SimulationError, match="inside a dispatch round"):
            kernel.fail_cpu(1)
        kernel._now_override = None
        kernel.fail_cpu(1)
        kernel._now_override = 100
        with pytest.raises(SimulationError, match="inside a dispatch round"):
            kernel.recover_cpu(1)
        kernel._now_override = None

    def test_add_thread_rejects_pin_to_offline_cpu(self):
        kernel = make_kernel(n_cpus=2)
        kernel.fail_cpu(1)
        with pytest.raises(SimulationError, match="offline"):
            kernel.spawn("w", spin_body(), affinity=1)

    def test_pin_to_offline_cpu_rejected(self):
        kernel = make_kernel(n_cpus=2)
        thread = kernel.spawn("w", spin_body())
        kernel.fail_cpu(1)
        with pytest.raises(Exception, match="offline"):
            thread.pin_to(1)


def _observe(kernel):
    return (
        tuple(kernel.dispatch_log),
        {
            t.name: (t.accounting.total_us, t.state.value, t.affinity)
            for t in kernel.threads
        },
        (kernel.now, kernel.idle_us, kernel.offline_us),
    )


def _assert_conserved(kernel):
    assert (
        kernel.total_thread_cpu_us() + kernel.idle_us + kernel.stolen_us
        + kernel.offline_us
        == kernel.capacity_us()
    ), "conservation identity violated"


def _starts(kernel, *, name=None, cpu=None):
    """Start times of the logged dispatches matching ``name``/``cpu``."""
    return [
        entry[0]
        for entry in kernel.dispatch_log
        if (name is None or entry[2] == name)
        and (cpu is None or entry[1] == cpu)
    ]


class TestKillAndHotplugEvents:
    """Kill and hotplug events landing in the middle of long bursts."""

    @pytest.mark.parametrize("scheduler_cls", [RoundRobinScheduler,
                                               ReservationScheduler])
    def test_kill_lands_at_scripted_time(self, scheduler_cls):
        # Long bursts keep the victim mid-computation when the kill
        # fires at an odd time.
        def build():
            kernel = Kernel(
                scheduler_cls(), n_cpus=2,
                charge_dispatch_overhead=False, syscall_cost_us=0,
                record_dispatches=True,
            )
            victim = kernel.spawn("victim", spin_body(25_000))
            kernel.spawn("other", spin_body(25_000))
            kernel.spawn("third", finite_body(40_000, 25_000))
            killed_at = []

            def kill():
                killed_at.append(kernel.now)
                assert kernel.kill_thread(victim)

            kernel.events.schedule(13_337, kill, label="kill")
            return kernel, victim, killed_at

        results = []
        for _ in range(2):
            kernel, victim, killed_at = build()
            kernel.run_for(60_000)
            assert killed_at == [13_337]
            assert not victim.state.is_live
            assert all(t < 13_337 for t in _starts(kernel, name="victim"))
            _assert_conserved(kernel)
            results.append(_observe(kernel))
        assert results[0] == results[1]

    def test_fail_cpu_mid_burst_drains_and_recovers(self):
        def build():
            kernel = Kernel(
                RoundRobinScheduler(), n_cpus=4,
                charge_dispatch_overhead=False, syscall_cost_us=0,
                record_dispatches=True,
            )
            pinned = kernel.spawn("pinned", spin_body(25_000), affinity=1)
            for i in range(3):
                kernel.spawn(f"w{i}", spin_body(25_000))
            kernel.events.schedule(
                13_337, lambda: kernel.fail_cpu(1), label="fail"
            )
            kernel.events.schedule(
                41_221, lambda: kernel.recover_cpu(1), label="recover"
            )
            return kernel, pinned

        results = []
        for _ in range(2):
            kernel, pinned = build()
            kernel.run_for(80_000)
            assert kernel.online_cpu_count == 4
            assert pinned.affinity == 1
            starts = _starts(kernel, cpu=1)
            assert not [t for t in starts if 13_337 <= t < 41_221]
            assert [t for t in starts if t >= 41_221]
            assert kernel.offline_us == 41_221 - 13_337
            _assert_conserved(kernel)
            results.append(_observe(kernel))
        assert results[0] == results[1]

    def test_kill_on_failed_cpus_thread(self):
        """The drained thread is killed while its home CPU is down, and
        the CPU later recovers: nothing dangles."""

        def build():
            kernel = Kernel(
                RoundRobinScheduler(), n_cpus=2,
                charge_dispatch_overhead=False, syscall_cost_us=0,
                record_dispatches=True,
            )
            victim = kernel.spawn("victim", spin_body(25_000), affinity=1)
            kernel.spawn("other", spin_body(25_000))
            kernel.events.schedule(
                10_003, lambda: kernel.fail_cpu(1), label="fail"
            )
            kernel.events.schedule(
                20_011, lambda: kernel.kill_thread(victim), label="kill"
            )
            kernel.events.schedule(
                30_029, lambda: kernel.recover_cpu(1), label="recover"
            )
            return kernel, victim

        results = []
        for _ in range(2):
            kernel, victim = build()
            kernel.run_for(60_000)
            assert not victim.state.is_live
            # The dead thread's pin was not restored on recovery.
            assert victim.affinity == 0
            assert max(_starts(kernel, name="victim")) < 20_011
            assert not [
                t for t in _starts(kernel, cpu=1) if 10_003 <= t < 30_029
            ]
            _assert_conserved(kernel)
            results.append(_observe(kernel))
        assert results[0] == results[1]
