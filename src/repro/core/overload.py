"""Overload handling: admission control and squishing.

"When the sum of the desired [allocations] is greater than the amount
of available CPU, the controller must somehow reduce the allocations to
the threads."  Two mechanisms, as in the paper:

* **Admission control** for real-time reservations: a new request is
  rejected if it would push the real-time total over the admission
  threshold — on an SMP kernel, the real-time load of any CPU under
  the default placement's packing (:func:`check_admission`).
* **Squishing** for real-rate and miscellaneous threads: their proposed
  allocations are scaled down so that, together with the protected
  real-time reservations, the total fits under the overload threshold.
  :class:`FairShareSquish` scales each proposal proportionally to its
  size, which "results in equal allocation of the CPU to all competing
  jobs over time"; :class:`WeightedFairShareSquish` additionally weights
  each proposal by the thread's importance — a more important job gets
  a larger share of the shortfall absorbed by others, but (unlike a
  priority) it can never starve a less important job because every job
  keeps at least the minimum proportion.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.config import ControllerConfig
from repro.core.errors import AdmissionError
from repro.sched.placement import pack_least_loaded


@dataclass
class SquishRequest:
    """One squishable thread's proposal entering the squish step."""

    key: int
    desired_ppt: int
    importance: float = 1.0

    def __post_init__(self) -> None:
        if self.desired_ppt < 0:
            raise ValueError(
                f"desired proportion cannot be negative, got {self.desired_ppt}"
            )
        if self.importance <= 0:
            raise ValueError(f"importance must be positive, got {self.importance}")


class SquishPolicy(ABC):
    """Strategy for distributing a limited budget over proposals."""

    def __init__(self, min_proportion_ppt: int = 1) -> None:
        if min_proportion_ppt < 0:
            raise ValueError(
                f"minimum proportion cannot be negative, got {min_proportion_ppt}"
            )
        self.min_proportion_ppt = min_proportion_ppt

    @abstractmethod
    def weights(
        self, desired_ppt: list[int], importance: list[float]
    ) -> list[float]:
        """Relative weights used to share the available budget, one per
        proposal (``desired_ppt`` and ``importance`` are parallel)."""

    def squish(
        self, requests: list[SquishRequest], available_ppt: int
    ) -> dict[int, int]:
        """Scale the proposals down into ``available_ppt``.

        Returns a mapping from request key to granted proportion.  If
        the proposals already fit, they are returned unchanged.  Each
        grant is capped at its proposal (squishing never gives a thread
        more than it asked for) and floored at the minimum proportion
        (starvation freedom), even if the floor technically exceeds the
        budget — the overload threshold's reserve capacity absorbs that.
        """
        if not requests:
            return {}
        grants = self.squish_lists(
            [r.desired_ppt for r in requests],
            [r.importance for r in requests],
            available_ppt,
        )
        return {r.key: granted for r, granted in zip(requests, grants)}

    def squish_lists(
        self,
        desired_ppt: list[int],
        importance: list[float],
        available_ppt: int,
    ) -> list[int]:
        """:meth:`squish` on parallel lists: the grants, index-aligned
        with ``desired_ppt``.  The one water-filling implementation; the
        controller calls it directly, building no request objects."""
        if sum(desired_ppt) <= available_ppt:
            return list(desired_ppt)

        available = max(0, available_ppt)
        grants = [0] * len(desired_ppt)
        # A proposal's weight does not depend on the others, so one
        # list serves every round.
        weights = self.weights(desired_ppt, importance)
        remaining = list(range(len(desired_ppt)))
        total_weight = sum(weights)
        # Iterative water-filling: grant proportionally to weight, cap at
        # the proposal, and redistribute leftover budget from capped
        # proposals to the rest.  An uncapped proposal's share is only
        # final in a round where nobody capped; proposals still
        # remaining when the budget runs out are granted zero.
        while remaining and available > 0 and total_weight > 0:
            next_round: list[int] = []
            used = 0
            for i in remaining:
                share = int(available * weights[i] / total_weight)
                want = desired_ppt[i]
                if share >= want:
                    share = want
                    used += want
                else:
                    next_round.append(i)
                grants[i] = share
            if len(next_round) == len(remaining):
                remaining = []
                break
            available -= used
            remaining = next_round
            total_weight = sum([weights[i] for i in remaining])
        for i in remaining:
            grants[i] = 0
        # Starvation freedom: every thread keeps at least the minimum.
        minimum = self.min_proportion_ppt
        for i, want in enumerate(desired_ppt):
            floor = minimum if minimum < want else want
            if grants[i] < floor:
                grants[i] = floor
        return grants


class FairShareSquish(SquishPolicy):
    """Scale every proposal by the same factor (plain fair share)."""

    def weights(
        self, desired_ppt: list[int], importance: list[float]
    ) -> list[float]:
        return [float(want) for want in desired_ppt]


class WeightedFairShareSquish(SquishPolicy):
    """Scale proposals by importance-weighted size (weighted fair share)."""

    def weights(
        self, desired_ppt: list[int], importance: list[float]
    ) -> list[float]:
        return [
            float(want) * weight for want, weight in zip(desired_ppt, importance)
        ]


#: One real-time reservation as admission sees it:
#: ``(proportion_ppt, tid, pin-or-None, name)``.
_RealTime = tuple[int, int, Optional[int], str]


def check_admission(
    config: ControllerConfig,
    reservations: Iterable[_RealTime],
    request: _RealTime,
    *,
    n_cpus: int,
    online: tuple[int, ...],
) -> None:
    """Admission control for a new real-time reservation.

    Packs the live real-time ``reservations`` plus the ``request`` the
    way :class:`~repro.sched.placement.LeastLoadedPlacement` places
    them (:func:`~repro.sched.placement.pack_least_loaded`: heaviest
    first, ties by tid, pinned ones on their CPU, the rest on the
    least-loaded online CPU) and raises :class:`AdmissionError` if any
    online CPU ends above the admission threshold.  On one CPU this is
    the paper's test, the real-time total against the threshold.  On
    an SMP kernel a sum test is not enough (five unpinned 640 ppt
    reservations total 3200 ppt on four CPUs yet cannot be packed
    under 1000 ppt per CPU); this one certifies the packing placement
    produces when the real-time threads are the runnable set.
    """
    requested_ppt, _, _, name = request
    _, loads = pack_least_loaded(
        [(-ppt, tid, pin, label) for ppt, tid, pin, label in (*reservations, request)],
        n_cpus,
        online,
    )
    overflow = int(max(loads[cpu] for cpu in online)) - config.admission_threshold_ppt
    if overflow > 0:
        # "Available" is the request less the fullest CPU's overflow:
        # on one CPU, the threshold minus the live real-time total.
        raise AdmissionError(
            requested_ppt=requested_ppt,
            available_ppt=max(0, requested_ppt - overflow),
            thread_name=name,
        )


__all__ = [
    "FairShareSquish",
    "SquishPolicy",
    "SquishRequest",
    "WeightedFairShareSquish",
    "check_admission",
]
