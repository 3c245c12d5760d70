"""Experiment-registry violations: missing knobs, no fingerprint."""

from repro.experiments.registry import Param, experiment


@experiment(
    name="fixture_bad",
    description="missing seed and never fingerprints",
    params=(
        Param("sim_seconds", kind="float", default=1.0),
    ),
)
def fixture_bad_experiment(*, sim_seconds: float = 1.0):
    # BAD: no seed param, and no dispatch_fingerprint stamp
    return {"sim_seconds": sim_seconds}
