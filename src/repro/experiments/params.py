"""Shared parameter declarations and reproducibility stamps.

Every registered experiment must expose the ``seed`` reproducibility
knob and stamp the dispatch fingerprint of every kernel it built into
its result metadata, so any run can be diffed bit-for-bit against any
other (the experiment-registry lint check enforces both).  Declaring
the parameter once keeps its help text and default identical across
the registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.experiments.registry import Param
from repro.workloads.engine import dispatch_fingerprint

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.results import ExperimentResult
    from repro.sim.kernel import Kernel

#: Deterministic-replay seed.  Experiments whose drivers draw no random
#: numbers still expose it (recorded in metadata) so every registry
#: entry is invoked the same way.
SEED_PARAM = Param(
    "seed", kind="int", default=None,
    help="RNG seed (recorded in metadata; deterministic drivers ignore it)",
)


def stamp_reproducibility(
    result: "ExperimentResult",
    *kernels: "Kernel",
    seed: Optional[int] = None,
) -> None:
    """Stamp the dispatch fingerprint(s) into ``result.metadata``.

    Multi-point experiments pass every kernel they built (in sweep
    order); the fingerprints are joined with ``"+"`` into one composite
    identity, the same convention the response-curve and SLO
    experiments established.  Kernels must have been built with
    ``record_dispatches=True``.
    """
    if not kernels:
        raise ValueError("stamp_reproducibility needs at least one kernel")
    result.metadata["dispatch_fingerprint"] = "+".join(
        dispatch_fingerprint(kernel) for kernel in kernels
    )
    result.metadata["seed"] = seed


__all__ = ["SEED_PARAM", "stamp_reproducibility"]
