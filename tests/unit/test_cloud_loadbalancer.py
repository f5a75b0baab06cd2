"""Unit tests for demand tracking and helper-host recruitment."""

import itertools

import numpy as np
from hypothesis import given, strategies as st

from repro.cloud.loadbalancer import DemandTracker, HelperHostRecruiter
from repro.cloud.services import Service, ServiceConfig
from repro.fleet import FleetStore
from repro.simtime.clock import SIM_EPOCH

from tests.conftest import tiny_profile
from tests.oracles import DemandHistoryOracle


def make_service():
    return Service(config=ServiceConfig(name="s"), account_id="a", image_id="i")


def make_fleet(n=40):
    return FleetStore([f"h{i}" for i in range(n)])


def make_tracker(**overrides):
    return DemandTracker(tiny_profile(**overrides))


class TestDemandTracker:
    def test_cold_service_is_not_hot(self):
        tracker = make_tracker()
        assert not tracker.is_hot(make_service(), SIM_EPOCH)

    def test_recent_high_demand_makes_hot(self):
        tracker = make_tracker(hot_min_concurrency=10)
        service = make_service()
        tracker.record_demand(service, SIM_EPOCH, 50)
        assert tracker.is_hot(service, SIM_EPOCH + 600.0)

    def test_old_demand_expires(self):
        profile = tiny_profile(hot_min_concurrency=10)
        tracker = DemandTracker(profile)
        service = make_service()
        tracker.record_demand(service, SIM_EPOCH, 50)
        assert not tracker.is_hot(service, SIM_EPOCH + profile.hot_window + 1.0)

    def test_low_demand_never_hot(self):
        tracker = make_tracker(hot_min_concurrency=100)
        service = make_service()
        tracker.record_demand(service, SIM_EPOCH, 50)
        assert not tracker.is_hot(service, SIM_EPOCH + 60.0)

    def test_history_is_latest_hot_time(self):
        profile = tiny_profile(hot_min_concurrency=10)
        tracker = DemandTracker(profile)
        service = make_service()
        for i in range(100):
            tracker.record_demand(service, SIM_EPOCH + i * 60.0, 50 if i < 70 else 5)
        assert service.last_hot_demand_at == SIM_EPOCH + 69 * 60.0


class TestDemandMatchesListOracle:
    """The one-float history answers hotness exactly as the trimmed event
    list with its newest-first scan, on every nondecreasing event stream
    queried at or after its newest event."""

    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 60.0, 600.0, 1800.0, 3600.0, 7200.0]),
                st.integers(0, 30),
                st.floats(0.0, 4000.0),
            ),
            min_size=1,
            max_size=60,
        ),
        min_concurrency=st.integers(1, 20),
    )
    def test_is_hot_matches_list_scan(self, steps, min_concurrency):
        profile = tiny_profile(hot_min_concurrency=min_concurrency)
        tracker = DemandTracker(profile)
        service = make_service()
        oracle = DemandHistoryOracle(profile.hot_window, min_concurrency)
        times = itertools.accumulate(gap for gap, _c, _q in steps)
        for now, (_gap, concurrency, query_after) in zip(times, steps):
            now += SIM_EPOCH
            query = now + query_after
            assert tracker.is_hot(service, query) == oracle.is_hot(query)
            tracker.record_demand(service, now, concurrency)
            oracle.record_demand(now, concurrency)
            for at in (now, now + profile.hot_window, now + query_after):
                assert tracker.is_hot(service, at) == oracle.is_hot(at)


class TestHelperRecruiter:
    def recruit(self, new_instances, candidates=30, cap=12, fraction=0.25, seed=0):
        profile = tiny_profile(helper_pool_cap=cap, helper_recruit_fraction=fraction)
        recruiter = HelperHostRecruiter(profile, np.random.default_rng(seed))
        service = make_service()
        store = make_fleet()
        pool = store.indices_of([f"h{i}" for i in range(candidates)])
        recruited = recruiter.recruit(service, new_instances, pool, store)
        return recruited, service

    def test_recruits_proportionally_to_new_instances(self):
        few, _ = self.recruit(new_instances=4)
        many, _ = self.recruit(new_instances=40)
        assert len(few) < len(many)

    def test_zero_new_instances_recruits_nothing(self):
        recruited, _ = self.recruit(new_instances=0)
        assert recruited == []

    def test_respects_pool_cap(self):
        recruited, service = self.recruit(new_instances=1000, cap=5)
        assert len(recruited) == 5
        assert len(service.helper_host_ids) == 5

    def test_cap_accounts_for_existing_helpers(self):
        profile = tiny_profile(helper_pool_cap=6, helper_recruit_fraction=1.0)
        recruiter = HelperHostRecruiter(profile, np.random.default_rng(0))
        service = make_service()
        store = make_fleet()
        pool = [f"h{i}" for i in range(30)]
        recruiter.recruit(service, 4, store.indices_of(pool), store)
        remaining = [h for h in pool if h not in service.helper_host_ids]
        recruiter.recruit(service, 100, store.indices_of(remaining), store)
        assert len(service.helper_host_ids) == 6

    def test_recruits_only_from_candidates(self):
        recruited, _ = self.recruit(new_instances=20, candidates=10)
        assert set(recruited) <= {f"h{i}" for i in range(10)}

    def test_no_candidates_recruits_nothing(self):
        profile = tiny_profile()
        recruiter = HelperHostRecruiter(profile, np.random.default_rng(0))
        store = make_fleet()
        empty = np.empty(0, dtype=np.int64)
        assert recruiter.recruit(make_service(), 50, empty, store) == []

    def test_no_duplicate_recruits_in_one_call(self):
        recruited, _ = self.recruit(new_instances=100, candidates=20, cap=20, fraction=1.0)
        assert len(recruited) == len(set(recruited))
