"""Demand tracking and helper-host recruitment.

This module implements the load-balancing behavior the paper reverse
engineers in Experiment 4 (Observation 5): when a service sustains high
demand within a ~30-minute window, the orchestrator relieves pressure on the
account's base hosts by recruiting extra *helper hosts* for that service.
Helper sets are per-service, grow with the number of newly created instances
(short launch intervals terminate few instances, so few new hosts appear),
and saturate after repeated launches.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cloud.services import Service
from repro.cloud.topology import RegionProfile
from repro.fleet import FleetStore


class DemandTracker:
    """Maintains per-service demand history for hotness decisions."""

    def __init__(self, profile: RegionProfile) -> None:
        self._profile = profile

    def record_demand(self, service: Service, now: float, concurrency: int) -> None:
        """Record that ``service`` ran ``concurrency`` concurrent instances.

        :meth:`is_hot` needs only the latest time at which concurrency
        reached ``profile.hot_min_concurrency``, so that one float is the
        whole history.  Demand is recorded at the simulated clock's time,
        which never goes backwards, so the latest record is the newest.
        """
        if concurrency >= self._profile.hot_min_concurrency:
            service.last_hot_demand_at = now

    def is_hot(self, service: Service, now: float) -> bool:
        """True when the service saw high demand within the hot window.

        A *cold* service (no qualifying demand in the past
        ``profile.hot_window``) is placed on base hosts only; a hot one is
        eligible for helper-host recruitment.
        """
        return service.last_hot_demand_at > now - self._profile.hot_window


class HelperHostRecruiter:
    """Grows a hot service's helper-host pool.

    Recruitment is proportional to the number of instances the launch had to
    newly create (Observation 5's mechanism: replacing terminated idle
    instances is what spills onto new hosts), and saturates at the profile's
    per-service cap.
    """

    def __init__(self, profile: RegionProfile, rng: np.random.Generator) -> None:
        self._profile = profile
        self._rng = rng

    def recruit(
        self,
        service: Service,
        new_instance_count: int,
        candidates: np.ndarray,
        store: FleetStore,
    ) -> list[str]:
        """Recruit helper hosts for ``service`` and return the new ones.

        Parameters
        ----------
        service:
            The hot service being scaled out.
        new_instance_count:
            Instances the orchestrator must newly create for this launch.
        candidates:
            Index array (into ``store``) of serving-pool hosts not already
            used by this service (neither base nor existing helpers), in
            pool order — the draw below indexes into this order.
        store:
            The fleet store resolving indices back to host ids.
        """
        if new_instance_count <= 0 or candidates.size == 0:
            return []
        room = self._profile.helper_pool_cap - len(service.helper_host_ids)
        if room <= 0:
            return []
        want = math.ceil(new_instance_count * self._profile.helper_recruit_fraction)
        count = min(want, room, candidates.size)
        if count <= 0:
            return []
        picked_pos = self._rng.choice(candidates.size, size=count, replace=False)
        # Same single RNG draw as ever; the id resolve is one gather over
        # the store's cached id column instead of a per-pick Python loop
        # (recruitment batches reach thousands of hosts at 64x scale).
        picked = list(store.ids_of(candidates[picked_pos]))
        service.helper_host_ids.extend(picked)
        return picked
