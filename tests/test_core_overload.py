"""Unit tests for admission control and the squish policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ControllerConfig
from repro.core.errors import AdmissionError
from repro.core.overload import (
    FairShareSquish,
    SquishRequest,
    WeightedFairShareSquish,
    check_admission,
)


class TestSquishRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            SquishRequest(key=1, desired_ppt=-1)
        with pytest.raises(ValueError):
            SquishRequest(key=1, desired_ppt=100, importance=0)


class TestFairShareSquish:
    def test_no_squish_when_fits(self):
        policy = FairShareSquish()
        requests = [SquishRequest(1, 200), SquishRequest(2, 300)]
        grants = policy.squish(requests, available_ppt=600)
        assert grants == {1: 200, 2: 300}

    def test_proportional_reduction(self):
        policy = FairShareSquish()
        requests = [SquishRequest(1, 600), SquishRequest(2, 300)]
        grants = policy.squish(requests, available_ppt=450)
        # Scaled by one half, preserving the 2:1 ratio.
        assert grants[1] == pytest.approx(300, abs=2)
        assert grants[2] == pytest.approx(150, abs=2)

    def test_equal_desires_get_equal_grants(self):
        policy = FairShareSquish()
        requests = [SquishRequest(i, 900) for i in range(3)]
        grants = policy.squish(requests, available_ppt=600)
        values = list(grants.values())
        assert max(values) - min(values) <= 1
        assert sum(values) <= 600

    def test_total_never_exceeds_available(self):
        policy = FairShareSquish()
        requests = [SquishRequest(i, 500 + i * 100) for i in range(5)]
        grants = policy.squish(requests, available_ppt=700)
        assert sum(grants.values()) <= 700 + len(requests)  # floor rounding slack

    def test_small_request_not_inflated(self):
        policy = FairShareSquish()
        requests = [SquishRequest(1, 50), SquishRequest(2, 900)]
        grants = policy.squish(requests, available_ppt=800)
        assert grants[1] <= 50

    def test_empty_requests(self):
        assert FairShareSquish().squish([], 500) == {}

    def test_zero_available_floors_at_minimum(self):
        policy = FairShareSquish(min_proportion_ppt=5)
        requests = [SquishRequest(1, 400), SquishRequest(2, 400)]
        grants = policy.squish(requests, available_ppt=0)
        assert grants[1] == 5
        assert grants[2] == 5

    def test_minimum_proportion_enforced(self):
        policy = FairShareSquish(min_proportion_ppt=10)
        requests = [SquishRequest(1, 900), SquishRequest(2, 900), SquishRequest(3, 20)]
        grants = policy.squish(requests, available_ppt=100)
        assert all(g >= 10 for g in grants.values())


class TestWeightedFairShareSquish:
    def test_importance_biases_shares(self):
        policy = WeightedFairShareSquish()
        requests = [
            SquishRequest(1, 900, importance=1.0),
            SquishRequest(2, 900, importance=3.0),
        ]
        grants = policy.squish(requests, available_ppt=400)
        assert grants[2] > grants[1]
        assert grants[2] / grants[1] == pytest.approx(3.0, rel=0.1)

    def test_importance_cannot_starve(self):
        policy = WeightedFairShareSquish(min_proportion_ppt=5)
        requests = [
            SquishRequest(1, 900, importance=0.001),
            SquishRequest(2, 900, importance=1_000.0),
        ]
        grants = policy.squish(requests, available_ppt=500)
        assert grants[1] >= 5

    def test_equal_importance_reduces_to_fair_share(self):
        weighted = WeightedFairShareSquish()
        fair = FairShareSquish()
        requests = [SquishRequest(1, 600), SquishRequest(2, 300)]
        assert weighted.squish(requests, 450) == fair.squish(requests, 450)

    def test_capped_request_redistributes(self):
        policy = WeightedFairShareSquish()
        requests = [
            SquishRequest(1, 100, importance=10.0),  # wants little, high importance
            SquishRequest(2, 900, importance=1.0),
        ]
        grants = policy.squish(requests, available_ppt=600)
        assert grants[1] == 100          # capped at its own desire
        assert grants[2] >= 400          # leftover goes to the other request


def _request_water_filling(policy, requests, available_ppt):
    """The request-object water-filling the list core replaced, kept as
    an oracle: weights recomputed per round over the remaining
    requests, grants in a dict, remaining requests granted zero."""
    total_desired = sum(r.desired_ppt for r in requests)
    if total_desired <= available_ppt:
        return {r.key: r.desired_ppt for r in requests}
    available = max(0, available_ppt)
    grants = {}
    remaining = list(requests)
    while remaining and available > 0:
        weights = policy.weights(
            [r.desired_ppt for r in remaining], [r.importance for r in remaining]
        )
        total_weight = sum(weights)
        if total_weight <= 0:
            break
        capped, next_round, used = [], [], 0
        for request, weight in zip(remaining, weights):
            share = int(available * weight / total_weight)
            if share >= request.desired_ppt:
                grants[request.key] = request.desired_ppt
                used += request.desired_ppt
                capped.append(request)
            else:
                next_round.append(request)
        if not capped:
            for request, weight in zip(remaining, weights):
                grants[request.key] = int(available * weight / total_weight)
            remaining = []
            break
        available -= used
        remaining = next_round
    for request in remaining:
        grants.setdefault(request.key, 0)
    for request in requests:
        floor = min(policy.min_proportion_ppt, request.desired_ppt)
        if grants.get(request.key, 0) < floor:
            grants[request.key] = floor
    return grants


class TestSquishListsCore:
    """``squish_lists`` (what the controller calls) equals ``squish``
    (the request-object contract) and the historical request-based
    water-filling, for both policies."""

    @settings(max_examples=300, deadline=None)
    @given(
        proposals=st.lists(
            st.tuples(
                # Sizes around the floor exercise the floor lifting.
                st.one_of(
                    st.integers(min_value=0, max_value=10),
                    st.integers(min_value=0, max_value=1_000),
                ),
                st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=24,
        ),
        available=st.one_of(
            st.just(0),
            st.integers(min_value=-50, max_value=3_000),
        ),
        minimum=st.integers(min_value=0, max_value=40),
    )
    def test_list_core_equals_squish_and_oracle(self, proposals, available, minimum):
        desired = [want for want, _ in proposals]
        importance = [weight for _, weight in proposals]
        requests = [
            SquishRequest(key, want, weight)
            for key, (want, weight) in enumerate(proposals)
        ]
        for policy in (FairShareSquish(minimum), WeightedFairShareSquish(minimum)):
            grants = policy.squish_lists(desired, importance, available)
            by_key = policy.squish(requests, available)
            assert grants == [by_key[key] for key in range(len(requests))]
            assert by_key == _request_water_filling(policy, requests, available)

    def test_floor_lifts_a_zero_share(self):
        # With no budget every grant is lifted to min(floor, desired).
        policy = FairShareSquish(5)
        assert policy.squish_lists([900, 3, 0], [1.0, 1.0, 1.0], 0) == [5, 3, 0]

    def test_capped_proposal_frees_budget_for_the_rest(self):
        # Round 1: the small proposal's share covers it; the rest is
        # re-shared between the two large ones.
        policy = WeightedFairShareSquish(1)
        assert policy.squish_lists([50, 600, 600], [10.0, 1.0, 1.0], 500) == [
            50, 225, 225,
        ]


class TestAdmissionControl:
    def test_accepts_within_threshold(self):
        config = ControllerConfig(admission_threshold_ppt=800)
        check_admission(config, [(300, 1, None, "old")], (400, 2, None, "rt"),
                        n_cpus=1, online=(0,))

    def test_rejects_over_threshold(self):
        config = ControllerConfig(admission_threshold_ppt=800)
        with pytest.raises(AdmissionError) as excinfo:
            check_admission(config, [(700, 1, None, "old")], (200, 2, None, "rt"),
                            n_cpus=1, online=(0,))
        assert excinfo.value.requested_ppt == 200
        assert excinfo.value.available_ppt == 100
        assert "rt" in str(excinfo.value)

    def test_exact_fit_accepted(self):
        config = ControllerConfig(admission_threshold_ppt=800)
        check_admission(config, [(600, 1, None, "old")], (200, 2, None, "rt"),
                        n_cpus=1, online=(0,))
