"""Lottery scheduling.

Waldspurger & Weihl's lottery scheduler ([21] in the paper) is the
best-known proportional-share alternative to reservations.  It is
included as a related-work baseline: it delivers *expected* proportions
matching ticket ratios but, unlike the paper's scheme, provides no
period (jitter bound) and no automatic adaptation — the ticket counts
are still chosen by a human.

The random draw uses an explicit seed so experiments remain
reproducible.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.sched.base import Scheduler
from repro.sim.errors import SchedulerError
from repro.sim.thread import SimThread


class LotteryScheduler(Scheduler):
    """Probabilistic proportional-share scheduling by ticket count."""

    SCHED_KEY = "lottery"

    def __init__(self, seed: int = 0, slice_us: Optional[int] = None) -> None:
        super().__init__()
        self._rng = random.Random(seed)
        self._slice_us = slice_us
        self.draws = 0

    def set_tickets(self, thread: SimThread, tickets: int) -> None:
        """Assign ``tickets`` to ``thread`` (must be positive)."""
        if tickets <= 0:
            raise SchedulerError(
                f"ticket count must be positive, got {tickets} for "
                f"{thread.name!r}"
            )
        thread.tickets = int(tickets)

    def pick_next(self, now: int, cpu: Optional[int] = None) -> Optional[SimThread]:
        runnable = self.dispatch_candidates(cpu)
        if not runnable:
            return None
        # One pass over the tickets; the weights are reused for the
        # winner walk so each thread's count is read exactly once.
        weights = [t.tickets if t.tickets > 1 else 1 for t in runnable]
        winner_ticket = self._rng.randrange(sum(weights))
        self.draws += 1
        upto = 0
        for thread, weight in zip(runnable, weights):
            upto += weight
            if winner_ticket < upto:
                return thread
        return runnable[-1]  # pragma: no cover - defensive, unreachable

    def time_slice(self, thread: SimThread, now: int) -> int:
        if self._slice_us is not None:
            return self._slice_us
        return self.dispatch_interval_us


__all__ = ["LotteryScheduler"]
