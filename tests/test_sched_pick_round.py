"""Differential test: the fused SMP round against sequential per-CPU picks.

:meth:`Scheduler.pick_round` must return exactly what the sequential
round returns: place the runnable threads, then let each online CPU in
index order take :meth:`Scheduler.pick_next_cpu`'s answer, claiming it
(state ``RUNNING``) before the next CPU picks.  :func:`sequential_round`
below is that loop, written out as the oracle.

* :class:`ReservationScheduler` fuses the round (one placement, one
  queue service, one walk of the rate-monotonic order).  Hypothesis
  drives a fused and a sequential twin through identical operations —
  random pins (online or offline CPUs), best-effort threads, threads
  woken between placement and the picks, throttled and replenishing
  reservations, CPU failure and recovery — and every round's picks and
  round-robin cursor must match, as must all reservation state.
* At kernel level a 4-CPU run with the fused round and one with the
  sequential round must produce byte-identical dispatch logs, for the
  reservation scheduler and for two baselines that inherit the base
  class's loop (lottery and goodness).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.goodness import LinuxGoodnessScheduler
from repro.sched.lottery import LotteryScheduler
from repro.sched.rbs import ReservationScheduler
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Sleep
from repro.sim.thread import SchedulingPolicy, SimThread, ThreadState

N_CPUS = 4


def sequential_round(scheduler, cpus, now) -> list[Optional[SimThread]]:
    """The reference round: place, then one claimed pick per CPU."""
    scheduler.place_threads(now)
    picks: list[Optional[SimThread]] = []
    for cpu in cpus:
        thread = scheduler.pick_next_cpu(cpu, now)
        if thread is not None:
            thread.state = ThreadState.RUNNING
        picks.append(thread)
    return picks


def _names(picks) -> list[Optional[str]]:
    return [None if t is None else t.name for t in picks]


# ---------------------------------------------------------------------
# scheduler level: fused vs sequential twins
# ---------------------------------------------------------------------
@dataclass
class _FakeKernel:
    """Just enough kernel for a detached scheduler: time and CPUs."""

    now: int = 0
    n_cpus: int = N_CPUS
    dispatch_interval_us: int = 1_000
    online: tuple[int, ...] = tuple(range(N_CPUS))

    @property
    def online_cpu_count(self) -> int:
        return len(self.online)

    def online_cpu_indices(self) -> tuple[int, ...]:
        return self.online


class _LateWakeRBS(ReservationScheduler):
    """Wakes the threads queued in ``late`` right after placement, so
    they are runnable for the picks but absent from the placement map
    (a wake-up landing between placement and the picks)."""

    def __init__(self) -> None:
        super().__init__()
        self.late: list[SimThread] = []

    def place_threads(self, now: int) -> dict[int, int]:
        mapping = super().place_threads(now)
        for thread in self.late:
            thread.state = ThreadState.READY
            self.on_ready(thread, now)
        self.late = []
        return mapping


class _Side:
    """One twin: a scheduler, its fake kernel and its threads."""

    def __init__(self) -> None:
        self.kernel = _FakeKernel()
        self.sched = _LateWakeRBS()
        self.sched.attach(self.kernel)
        self.threads: list[SimThread] = []

    def add(self, index: int) -> None:
        thread = SimThread(f"t{index}", policy=SchedulingPolicy.BEST_EFFORT)
        thread.state = ThreadState.READY
        self.threads.append(thread)
        self.sched.add_thread(thread)
        self.sched.on_ready(thread, 0)


class RoundHarness:
    """Drives a fused and a sequential twin in lockstep."""

    def __init__(self, n_threads: int) -> None:
        self.now = 0
        self.fused = _Side()
        self.seq = _Side()
        for i in range(n_threads):
            # Interleaved creation keeps the twins' relative tid order
            # (the rate-monotonic and placement tiebreak) identical.
            self.fused.add(i)
            self.seq.add(i)
        self.rounds = 0

    def _sides(self):
        return (self.fused, self.seq)

    def _pairs(self, index: int):
        return [(side, side.threads[index]) for side in self._sides()]

    # -- operations ----------------------------------------------------
    def reserve(self, index: int, ppt: int, period_us: int) -> None:
        for side, thread in self._pairs(index):
            side.kernel.now = self.now
            side.sched.set_reservation(thread, ppt, period_us, now=self.now)

    def clear(self, index: int) -> None:
        for side, thread in self._pairs(index):
            side.sched.clear_reservation(thread)

    def block(self, index: int) -> None:
        for side, thread in self._pairs(index):
            if thread.state is ThreadState.READY:
                thread.state = ThreadState.BLOCKED
                side.sched.on_block(thread, self.now)

    def wake(self, index: int) -> None:
        for side, thread in self._pairs(index):
            if thread.state is ThreadState.BLOCKED:
                thread.state = ThreadState.READY
                side.sched.on_ready(thread, self.now)

    def pin(self, index: int, cpu: Optional[int]) -> None:
        for _side, thread in self._pairs(index):
            thread.pin_to(cpu)

    def fail(self, cpu: int) -> None:
        """Take ``cpu`` offline and drain its pins, as the kernel does."""
        online = self.fused.kernel.online
        if cpu not in online or len(online) == 1:
            return
        remaining = tuple(c for c in online if c != cpu)
        for side in self._sides():
            side.kernel.online = remaining
            for thread in side.threads:
                if thread.affinity == cpu:
                    thread.pin_to(remaining[0])

    def recover(self, cpu: int) -> None:
        online = self.fused.kernel.online
        if cpu in online:
            return
        for side in self._sides():
            side.kernel.online = tuple(sorted(online + (cpu,)))

    def refresh(self, skip_us: int) -> None:
        self.now += skip_us
        for side in self._sides():
            side.kernel.now = self.now
            side.sched.refresh(self.now)
        self._assert_same_state()

    def round(self, consumed_us: int, late: list[int]) -> list[Optional[str]]:
        """One dispatch round; ``late`` threads wake after placement.
        Returns the picked thread names, one per online CPU."""
        for side in self._sides():
            side.kernel.now = self.now
            side.sched.late = [
                side.threads[i]
                for i in sorted(set(late))
                if side.threads[i].state is ThreadState.BLOCKED
            ]
        cpus = self.fused.kernel.online
        fused = self.fused.sched.pick_round(cpus, self.now)
        reference = sequential_round(self.seq.sched, cpus, self.now)
        assert _names(fused) == _names(reference), (
            f"round {self.rounds} at t={self.now} on CPUs {cpus}: "
            f"fused={_names(fused)} sequential={_names(reference)}"
        )
        assert (
            self.fused.sched._best_effort_cursor
            == self.seq.sched._best_effort_cursor
        )
        for picks in (fused, reference):
            assert all(
                t.state is ThreadState.RUNNING for t in picks if t is not None
            )
        # The picked threads run and are charged; slices end preempted.
        end = self.now + max(1, consumed_us)
        for side, picks in ((self.fused, fused), (self.seq, reference)):
            for thread in picks:
                if thread is None:
                    continue
                side.sched.charge(thread, consumed_us, end)
                thread.state = ThreadState.READY
                side.sched.on_preempt(thread, end)
        self.now = end
        self.rounds += 1
        self._assert_same_state()
        return _names(fused)

    # -- comparison ----------------------------------------------------
    def _assert_same_state(self) -> None:
        a, b = self.fused.sched, self.seq.sched
        assert a.deadline_misses() == b.deadline_misses()
        assert a.total_reserved_ppt() == b.total_reserved_ppt()
        assert a.next_wakeup(self.now) == b.next_wakeup(self.now)

    def check_final(self) -> None:
        for a, b in zip(self.fused.threads, self.seq.threads):
            # Same implementation on both sides, so even the lazily
            # rolled diagnostic fields must agree exactly.
            assert self.fused.sched.reservation(a) == self.seq.sched.reservation(b), a.name
            assert a.state is b.state and a.affinity == b.affinity


def _operations(n_threads: int):
    index = st.integers(min_value=0, max_value=n_threads - 1)
    cpu = st.integers(min_value=0, max_value=N_CPUS - 1)
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("reserve"),
                index,
                st.integers(min_value=0, max_value=400),
                st.sampled_from([2_000, 5_000, 10_000, 30_000]),
            ),
            st.tuples(st.just("clear"), index),
            st.tuples(st.just("block"), index),
            st.tuples(st.just("wake"), index),
            st.tuples(st.just("pin"), index, st.one_of(st.none(), cpu)),
            st.tuples(st.just("fail"), cpu),
            st.tuples(st.just("recover"), cpu),
            st.tuples(
                st.just("round"),
                st.integers(min_value=0, max_value=3_000),
                st.lists(index, max_size=3),
            ),
            st.tuples(st.just("refresh"), st.integers(min_value=0, max_value=40_000)),
        ),
        min_size=10,
        max_size=60,
    )


workload = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(st.just(n), _operations(n))
)


@given(case=workload)
@settings(max_examples=150, deadline=None)
def test_rbs_pick_round_matches_sequential_picks(case):
    n_threads, operations = case
    harness = RoundHarness(n_threads)
    for op in operations:
        getattr(harness, op[0])(*op[1:])
    # Settled rounds at the end, so throttling and replenishment get
    # exercised even for sequences short on rounds.
    for _ in range(5):
        harness.round(2_500, [])
    harness.check_final()


def test_unplaced_entry_takes_lowest_unfilled_cpu():
    """A reservation placement did not see runs on the lowest CPU not
    filled by an earlier rate-monotonic entry, as sequential picks
    give it."""
    harness = RoundHarness(3)
    harness.reserve(0, 300, 5_000)   # shortest period: picked first
    harness.reserve(1, 300, 10_000)
    harness.reserve(2, 300, 30_000)
    harness.pin(0, 0)
    harness.block(1)
    # t1 wakes after placement; t2 is placed on CPU 1 (CPU 0 carries
    # t0's pinned weight), so t1 takes CPU 1 first and t2 waits.
    picks = harness.round(500, [1])
    placement = harness.fused.sched._placement_map
    assert harness.fused.threads[1].tid not in placement
    assert placement[harness.fused.threads[2].tid] == 1
    assert picks == ["t0", "t1", None, None]


# ---------------------------------------------------------------------
# kernel level: byte-identical dispatch logs
# ---------------------------------------------------------------------
def _sequential(cls):
    """``cls`` with its round replaced by the sequential oracle."""
    return type(
        f"Sequential{cls.__name__}",
        (cls,),
        {"pick_round": lambda self, cpus, now: sequential_round(self, cpus, now)},
    )


def _worker(rng: random.Random):
    bursts = [rng.randrange(200, 4_000) for _ in range(8)]
    sleeps = [rng.randrange(0, 6_000) for _ in range(8)]

    def body(env):
        i = 0
        while True:
            yield Compute(bursts[i % 8])
            if sleeps[i % 8]:
                yield Sleep(sleeps[i % 8])
            i += 1

    return body


def _run(scheduler, seed: int) -> Kernel:
    """A 4-CPU run mixing reservations, best-effort threads, pins and a
    CPU failure plus recovery; returns the finished kernel."""
    kernel = Kernel(scheduler, n_cpus=N_CPUS, record_dispatches=True)
    rng = random.Random(seed)
    for i in range(12):
        policy = (
            SchedulingPolicy.BEST_EFFORT if i % 3 == 2
            else SchedulingPolicy.RESERVATION
        )
        affinity = rng.choice([None, None, None, rng.randrange(N_CPUS)])
        thread = kernel.spawn(
            f"w{i}", _worker(rng), policy=policy, affinity=affinity,
            tickets=rng.randrange(1, 300), nice=rng.randrange(-5, 6),
        )
        if isinstance(scheduler, ReservationScheduler) and i % 3 != 2:
            scheduler.set_reservation(
                thread, rng.randrange(50, 400),
                rng.choice([5_000, 10_000, 20_000]),
            )
    kernel.events.schedule(60_000, lambda: kernel.fail_cpu(2))
    kernel.events.schedule(90_000, lambda: kernel.fail_cpu(0))
    kernel.events.schedule(150_000, lambda: kernel.recover_cpu(2))
    kernel.events.schedule(210_000, lambda: kernel.recover_cpu(0))
    kernel.run_for(300_000)
    assert kernel.conservation_ok()
    return kernel


SCHEDULERS = {
    "rbs": ReservationScheduler,
    "lottery": lambda: LotteryScheduler(seed=7),
    "goodness": lambda: LinuxGoodnessScheduler(base_quantum_us=20_000),
}
SEQUENTIAL = {
    "rbs": _sequential(ReservationScheduler),
    "lottery": lambda: _sequential(LotteryScheduler)(seed=7),
    "goodness": lambda: _sequential(LinuxGoodnessScheduler)(
        base_quantum_us=20_000
    ),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_dispatch_log_identical_to_sequential_round(name, seed):
    fused = _run(SCHEDULERS[name](), seed)
    reference = _run(SEQUENTIAL[name](), seed)
    assert len(fused.dispatch_log) > 500
    assert fused.dispatch_log == reference.dispatch_log
    assert fused.idle_us == reference.idle_us
    assert fused.offline_us == reference.offline_us
