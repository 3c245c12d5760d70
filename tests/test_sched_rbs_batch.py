"""Differential test: batched versus per-thread reservation writes.

:meth:`ReservationScheduler.set_reservations` routes every thread
exactly as :meth:`ReservationScheduler.set_reservation` does, but
stages re-keyed ready-heap entries and rebuilds the heap once per
batch.  Two detached schedulers are driven in lockstep through the
same history — reservations, dispatch rounds with charges, blocks and
wake-ups — until their threads are spread over every routing case
(ready, blocked, exhausted, throttled, pending).  Then one side takes a
random batch through ``set_reservations`` and the other the same writes
one ``set_reservation`` call at a time.  The aggregates, the live heap
entries and the next 50 picks must be identical.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.rbs import ReservationScheduler
from repro.sim.errors import SchedulerError
from repro.sim.thread import SchedulingPolicy, SimThread, ThreadState

PERIODS = (2_000, 5_000, 10_000, 30_000)


class Twins:
    """The batched and the per-thread scheduler, driven in lockstep."""

    def __init__(self, n_threads: int) -> None:
        self.now = 0
        self.batched = ReservationScheduler()
        self.single = ReservationScheduler()
        self.threads: dict[str, list[SimThread]] = {"batched": [], "single": []}
        for i in range(n_threads):
            for side, scheduler in self._sides():
                thread = SimThread(f"t{i}", policy=SchedulingPolicy.RESERVATION)
                thread.state = ThreadState.READY
                scheduler.add_thread(thread)
                scheduler.on_ready(thread, 0)
                self.threads[side].append(thread)

    def _sides(self):
        return (("batched", self.batched), ("single", self.single))

    def reserve(self, index: int, ppt: int, period_us: int) -> None:
        for side, scheduler in self._sides():
            scheduler.set_reservation(
                self.threads[side][index], ppt, period_us, now=self.now
            )

    def block(self, index: int) -> None:
        for side, scheduler in self._sides():
            thread = self.threads[side][index]
            if thread.state is ThreadState.READY:
                thread.state = ThreadState.BLOCKED
                scheduler.on_block(thread, self.now)

    def wake(self, index: int) -> None:
        for side, scheduler in self._sides():
            thread = self.threads[side][index]
            if thread.state is ThreadState.BLOCKED:
                thread.state = ThreadState.READY
                scheduler.on_ready(thread, self.now)

    def charge(self, index: int, consumed_us: int) -> None:
        """Charge without a pick: an exhausted thread is left pending."""
        for side, scheduler in self._sides():
            scheduler.charge(self.threads[side][index], consumed_us, self.now)

    def round(self, consumed_us: int) -> Optional[str]:
        """One pick/charge round on both sides; returns the pick."""
        picked = []
        end = self.now + max(1, consumed_us)
        for _, scheduler in self._sides():
            thread = scheduler.pick_next(self.now)
            picked.append(thread.name if thread is not None else None)
            if thread is not None:
                scheduler.charge(thread, consumed_us, end)
                scheduler.on_preempt(thread, end)
        assert picked[0] == picked[1], f"pick diverged at t={self.now}: {picked}"
        self.now = end
        return picked[0]

    def write(self, batch: list[tuple[int, int, int]]) -> None:
        """The same writes: one batch on one side, one by one on the other."""
        self.batched.set_reservations(
            [self.threads["batched"][i] for i, _, _ in batch],
            [ppt for _, ppt, _ in batch],
            [period for _, _, period in batch],
            now=self.now,
        )
        for i, ppt, period in batch:
            self.single.set_reservation(
                self.threads["single"][i], ppt, period, now=self.now
            )

    def routing_cases(self) -> set[str]:
        """Which routing cases the threads currently cover (batched side)."""
        scheduler = self.batched
        cases = set()
        for thread in self.threads["batched"]:
            tid = thread.tid
            reservation = scheduler.reservation(thread)
            if thread.state is ThreadState.BLOCKED:
                cases.add("blocked")
            if reservation is not None and reservation.exhausted:
                cases.add("exhausted")
            if tid in scheduler._pending_set:
                cases.add("pending")
            elif tid in scheduler._rm_heap:
                cases.add("ready")
            elif tid in scheduler._replenish:
                cases.add("throttled")
        return cases

    def _state(self, scheduler: ReservationScheduler, side: str) -> tuple:
        names = {t.tid: t.name for t in self.threads[side]}

        def entries(heap) -> list[tuple]:
            # Tids differ between the sides; names do not.
            return [entry[:-1] + (names[entry[-1]],) for entry in heap.live_sorted()]

        return (
            scheduler.total_reserved_ppt(),
            scheduler.deadline_misses(),
            entries(scheduler._rm_heap),
            entries(scheduler._replenish),
            sorted(names[tid] for tid in scheduler._pending_set),
            scheduler.next_wakeup(self.now),
        )

    def assert_same(self) -> None:
        assert self._state(self.batched, "batched") == self._state(
            self.single, "single"
        )


def _spread(twins: Twins, ppts: list[int], periods: list[int]) -> None:
    """Reserve every thread, then run a history that leaves threads in
    every routing case."""
    n = len(ppts)
    for i in range(n):
        twins.reserve(i, ppts[i], periods[i])
    for _ in range(3 * n):
        twins.round(700)
    # Exhaust the thread just picked (its window is fresh) and let the
    # next pick throttle it; exhaust the next pick and leave it pending.
    for _ in range(2):
        picked = twins.round(700)
        if picked is not None:
            twins.charge(int(picked[1:]), 40_000)
    twins.round(700)
    picked = twins.round(700)
    if picked is not None:
        twins.charge(int(picked[1:]), 40_000)
    # One blocked thread, and one blocked and woken again (pending).
    twins.block(0)
    twins.block(n - 1)
    twins.wake(n - 1)


@given(
    ppts=st.lists(st.integers(min_value=0, max_value=400), min_size=6, max_size=12),
    periods=st.lists(st.sampled_from(PERIODS), min_size=12, max_size=12),
    batch=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=400),
            st.sampled_from(PERIODS + (None,)),
        ),
        min_size=1,
        max_size=12,
        unique_by=lambda item: item[0],
    ),
)
@settings(max_examples=150, deadline=None)
def test_batched_write_matches_per_thread_writes(ppts, periods, batch):
    n = len(ppts)
    twins = Twins(n)
    _spread(twins, ppts, periods[:n])
    twins.assert_same()
    writes = [
        # ``None`` keeps the thread's period: a proportion-only change.
        (i, ppt, period if period is not None else periods[i])
        for i, ppt, period in batch
        if i < n
    ]
    twins.write(writes)
    twins.assert_same()
    for _ in range(50):
        twins.round(600)
    twins.assert_same()


def test_spread_covers_every_routing_case():
    """The history the property test runs really reaches all five cases."""
    twins = Twins(8)
    _spread(twins, [300, 120, 200, 150, 50, 100, 30, 250], [10_000] * 8)
    assert twins.routing_cases() == {
        "ready", "blocked", "exhausted", "throttled", "pending",
    }
    twins.write([(i, 60 + 30 * i, 10_000) for i in range(8)])
    twins.assert_same()
    picks = [twins.round(500) for _ in range(50)]
    twins.assert_same()
    assert len(set(picks)) > 1


def test_batched_write_rejects_unregistered_thread_and_keeps_heap_usable():
    scheduler = ReservationScheduler()
    registered = SimThread("in", policy=SchedulingPolicy.RESERVATION)
    registered.state = ThreadState.READY
    scheduler.add_thread(registered)
    scheduler.on_ready(registered, 0)
    scheduler.set_reservation(registered, 100, 10_000, now=0)
    assert scheduler.pick_next(0) is registered
    stranger = SimThread("out", policy=SchedulingPolicy.RESERVATION)
    with pytest.raises(SchedulerError, match="not registered"):
        scheduler.set_reservations(
            [registered, stranger], [200, 200], [10_000, 10_000], now=0
        )
    # The write before the failure stands, and the heap was rebuilt.
    assert scheduler.total_reserved_ppt() == 200
    assert scheduler.pick_next(0) is registered
