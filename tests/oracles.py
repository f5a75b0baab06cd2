"""Scalar reference engines, kept as test oracles.

``src/`` has one engine per layer.  The historical scalar implementations
live here instead, and the twin-world suites pin production against them:
same verdicts, hit counts, RNG end states, placements, and counts.

* :func:`loop_oracle` — a covert channel whose test window runs the
  per-round loop (one probe round-trip per instance per round) instead of
  the one-pass ``observe_window`` engine.
* :func:`scalar_window` — the same per-round loop at the resource level:
  one scalar ``observe`` per observer per round, host by host.
* :func:`use_scalar_launch` — an orchestrator whose launch commit runs the
  per-instance loop (one seed draw, an eagerly built sandbox on a
  ``default_rng`` generator, count increment, and retry loop per instance)
  instead of committing runs whose sandboxes are built on first touch.
* :func:`use_scalar_idle_out` — an orchestrator whose idle-out runs the
  per-instance loop (one window lookup, state-index lookup and deadline
  draw per instance) instead of one batched call.
* :func:`census_reduce_scalar` — the set-based census reduction that
  :class:`~repro.analysis.aggregation.FootprintAccumulator` replaces.
* :class:`DemandHistoryOracle` — the per-service list of demand events,
  trimmed in place, that one float per service replaces.
"""

from __future__ import annotations

import functools
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.cloud.api import InstanceHandle
from repro.cloud.instance import ContainerInstance
from repro.cloud.orchestrator import Orchestrator
from repro.cloud.services import Service
from repro.core.covert import RngCovertChannel
from repro.errors import InstanceGoneError, LaunchError
from repro.hardware.rng_resource import ContentionResource
from repro.sandbox.gvisor import GVisorSandbox
from repro.sandbox.microvm import MicroVMSandbox
from repro.telemetry import current_telemetry


# ----------------------------------------------------------------------
# CTest: the per-round window loop
# ----------------------------------------------------------------------
class LoopWindowOracle:
    """Mixin: replaces a channel's window observer with the per-round loop.

    Every live instance starts pressuring, one probe round-trip each; then
    each round visits them in schedule order; an instance reaching its
    fault-injected death round stops its pressure and observes no more,
    and an instance found gone is marked dead.
    """

    def _observe_round(self, sandbox) -> int:
        return sandbox.observe_channel_contention(self.kind)

    def _observe_window(
        self,
        live: Sequence[InstanceHandle],
        dead: set[str],
        death_round: dict[str, int],
        threshold_of: dict[str, int],
    ) -> dict[str, int]:
        for handle in live:
            handle.run(self._start)
        hits = {handle.instance_id: 0 for handle in live}
        for round_index in range(self.total_rounds):
            for handle in live:
                instance_id = handle.instance_id
                if instance_id in dead:
                    continue
                if death_round.get(instance_id) == round_index:
                    dead.add(instance_id)
                    try:
                        handle.run(self._stop)
                    except InstanceGoneError:
                        pass
                    continue
                try:
                    level = handle.run(self._observe_round)
                except InstanceGoneError:
                    dead.add(instance_id)
                    continue
                if level >= threshold_of[instance_id]:
                    hits[instance_id] += 1
        return hits


@functools.cache
def loop_oracle(channel_cls: type[RngCovertChannel]) -> type[RngCovertChannel]:
    """``channel_cls`` with its test window run by the per-round loop."""
    return type(f"Loop{channel_cls.__name__}", (LoopWindowOracle, channel_cls), {})


def scalar_window(
    hosts: Sequence[tuple[ContentionResource, Sequence[tuple[str, np.random.Generator]]]],
    n_rounds: int,
    stop_rounds: Sequence[int | None] | None = None,
) -> list[list[int]]:
    """Per-round scalar loop over a window; one level list per observer.

    Each round visits a host's observers in schedule order; an observer
    reaching its stop round unregisters its pressure at its own slot and
    observes no more.  Hosts share no state, so they run one after the
    other.  Mutates the resources (dead observers are unregistered).
    """
    n_observers = sum(len(observers) for _resource, observers in hosts)
    stops = list(stop_rounds) if stop_rounds is not None else [None] * n_observers
    levels: list[list[int]] = []
    index = 0
    for resource, observers in hosts:
        host_levels: list[list[int]] = [[] for _ in observers]
        host_stops = stops[index : index + len(observers)]
        index += len(observers)
        dead: set[str] = set()
        for round_index in range(n_rounds):
            for (instance_id, rng), stop, seen in zip(observers, host_stops, host_levels):
                if instance_id in dead:
                    continue
                if stop == round_index:
                    dead.add(instance_id)
                    resource.stop_pressure(instance_id)
                    continue
                seen.append(resource.observe(instance_id, rng))
        levels.extend(host_levels)
    return levels


# ----------------------------------------------------------------------
# Launch commit: the per-instance loop
# ----------------------------------------------------------------------
class ScalarLaunchOrchestrator(Orchestrator):
    """An orchestrator whose launch commit is the per-instance loop."""

    def _commit_launch(
        self,
        service: Service,
        chosen: np.ndarray,
        created: list[ContainerInstance],
    ) -> None:
        fleet = self.fleet
        qualified = service.qualified_name
        now = self.clock.now()
        state_index = self._svc_state.ensure(qualified)
        counts = fleet.service_counts(qualified)
        service_list = self._service_instances.setdefault(qualified, [])
        cls = GVisorSandbox if self._generation(service) == "gen1" else MicroVMSandbox
        for host_index in chosen.tolist():
            host_id = fleet.ids[host_index]
            instance_id = f"{qualified}#{next(self._instance_counter):07d}"
            self._attempt_launch(instance_id)
            counts.inc(host_index)
            sandbox = cls(
                self.datacenter.host(host_id),
                self.clock,
                np.random.default_rng(self._rng.integers(2**63)),
                instance_id,
                tsc_policy=self.tsc_policy,
                boot_time=self.clock.now(),
            )
            instance = ContainerInstance(
                instance_id=instance_id,
                service=service,
                host_id=host_id,
                sandbox=sandbox,
                created_at=now,
            )
            self.instances[instance_id] = instance
            self._billed_seconds[instance_id] = 0.0
            service_list.append(instance)
            self._svc_state.on_created(state_index)
            created.append(instance)

    def _attempt_launch(self, instance_id: str) -> None:
        plan = self.fault_plan
        if plan is None:
            return
        attempt = 0
        while plan.launch_fails(instance_id, attempt):
            if attempt >= self.retry_policy.max_retries:
                raise LaunchError(
                    f"instance {instance_id!r} failed to launch after "
                    f"{attempt + 1} attempts"
                )
            self.clock.sleep(self.retry_policy.backoff(attempt))
            plan.counters.launch_retries += 1
            current_telemetry().count("faults.launch_retries")
            attempt += 1


def use_scalar_launch(orchestrator: Orchestrator) -> None:
    """Switch an already-built orchestrator to the per-instance launch loop."""
    orchestrator.__class__ = ScalarLaunchOrchestrator


# ----------------------------------------------------------------------
# Idle-out: the per-instance loop
# ----------------------------------------------------------------------
class ScalarIdleOutOrchestrator(Orchestrator):
    """An orchestrator whose idle-out is the per-instance loop."""

    def _idle_out_many(
        self, service: Service, instances: list[ContainerInstance], now: float
    ) -> None:
        for instance in instances:
            self._idle_out(instance, now)

    def _idle_out(self, instance: ContainerInstance, now: float) -> None:
        """Idle one instance and schedule its eventual termination."""
        profile = self.datacenter.profile
        instance.go_idle(now)
        index = self._svc_state.ensure(instance.service.qualified_name)
        self._svc_state.on_idled(index)
        self._settle_billing(instance)
        idle_grace, idle_deadline = profile.idle_grace, profile.idle_deadline
        if self.platform is not None:
            idle_grace, idle_deadline = self.platform.idle_window(
                idle_grace, idle_deadline
            )
        stream = self._idle_streams.get(instance.service.qualified_name)
        if stream is None:
            deadline = now + self._rng.uniform(idle_grace, idle_deadline)
        else:
            span_s = idle_deadline - idle_grace
            deadline = now + idle_grace + stream(instance.instance_id) * span_s
        self._schedule_idle_reap(instance, index, when=deadline)


def use_scalar_idle_out(orchestrator: Orchestrator) -> None:
    """Switch an already-built orchestrator to the per-instance idle-out loop."""
    orchestrator.__class__ = ScalarIdleOutOrchestrator


# ----------------------------------------------------------------------
# Census aggregation: the set reduction
# ----------------------------------------------------------------------
def census_reduce_scalar(
    launches: Iterable[Iterable[Hashable]],
) -> tuple[list[int], list[int]]:
    """The set-based census reduction.

    Returns ``(per_launch, cumulative_unique)`` for a sequence of launch
    footprints.
    """
    seen: set[Hashable] = set()
    per_launch: list[int] = []
    cumulative: list[int] = []
    for launch in launches:
        footprint = set(launch)
        seen |= footprint
        per_launch.append(len(footprint))
        cumulative.append(len(seen))
    return per_launch, cumulative


# ----------------------------------------------------------------------
# Demand history: the per-service event list
# ----------------------------------------------------------------------
class DemandHistoryOracle:
    """One service's demand history as a time-sorted event list.

    Records ``(time, concurrency)`` events, trims the prefix too old to
    matter in place, and answers hotness by scanning newest first — the
    history :class:`~repro.cloud.loadbalancer.DemandTracker` kept before
    it reduced it to the latest hot time.
    """

    def __init__(self, hot_window: float, hot_min_concurrency: int) -> None:
        self.hot_window = hot_window
        self.hot_min_concurrency = hot_min_concurrency
        self.events: list[tuple[float, int]] = []

    def record_demand(self, now: float, concurrency: int) -> None:
        events = self.events
        events.append((now, concurrency))
        horizon = now - 2 * self.hot_window
        stale = 0
        while stale < len(events) and events[stale][0] < horizon:
            stale += 1
        if stale:
            del events[:stale]

    def is_hot(self, now: float) -> bool:
        cutoff = now - self.hot_window
        for t, c in reversed(self.events):
            if t <= cutoff:
                return False
            if c >= self.hot_min_concurrency:
                return True
        return False
