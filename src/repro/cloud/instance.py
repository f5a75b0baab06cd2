"""Container instances and their lifecycle.

The lifecycle mirrors the Cloud Run container contract (paper §2.2): an
instance is created to serve requests, stays *active* while it has open
connections, becomes *idle* when the last connection closes, and is sent
SIGTERM and destroyed if it stays idle too long.
"""

from __future__ import annotations

import enum
from typing import Callable, Mapping, TypeVar

from repro.cloud.services import Service
from repro.errors import InstanceGoneError
from repro.hardware.host import PhysicalHost
from repro.sandbox.base import Sandbox, TscPolicy
from repro.sandbox.seeding import sandbox_generators
from repro.simtime.clock import SimClock

T = TypeVar("T")


class InstanceState(enum.Enum):
    """Lifecycle state of a container instance."""

    ACTIVE = "active"
    IDLE = "idle"
    TERMINATED = "terminated"


class LaunchRun:
    """The sandboxes of one committed launch run, built on first touch.

    The orchestrator commits a launch run with one vector draw of sandbox
    seeds, then records here what the run's sandboxes need instead of
    building them.  The first access to any member's
    :attr:`ContainerInstance.sandbox` builds *every* member's sandbox in
    one :func:`~repro.sandbox.seeding.sandbox_generators` call and unlinks
    the members from the run, which is then garbage.  Background tenants
    are never probed, so most runs are never built, and a world snapshot
    pickles an unbuilt run as its seeds and member list, with no
    generators.

    Deferring is draw-order-safe: a sandbox's construction draws only from
    its own generator, reads only immutable host state, and boots at the
    run's ``boot_time``, not at build time.  The boot time is the clock
    when the run was committed: the members' ``created_at``, or later for
    a run committed after a launch retry's backoff sleep.
    """

    __slots__ = ("sandbox_cls", "hosts", "clock", "tsc_policy", "boot_time", "seeds", "members")

    def __init__(
        self,
        sandbox_cls: type[Sandbox],
        hosts: Mapping[str, PhysicalHost],
        clock: SimClock,
        tsc_policy: TscPolicy,
        boot_time: float,
        seeds: tuple[int, ...],
    ) -> None:
        self.sandbox_cls = sandbox_cls
        self.hosts = hosts
        self.clock = clock
        self.tsc_policy = tsc_policy
        self.boot_time = boot_time
        self.seeds = seeds
        self.members: list[ContainerInstance] = []

    def build(self) -> None:
        """Build every member's sandbox (members in launch order)."""
        cls, hosts, clock = self.sandbox_cls, self.hosts, self.clock
        for instance, rng in zip(self.members, sandbox_generators(self.seeds)):
            instance._sandbox = cls(
                hosts[instance.host_id],
                clock,
                rng,
                instance.instance_id,
                tsc_policy=self.tsc_policy,
                boot_time=self.boot_time,
            )
            instance._run = None


class ContainerInstance:
    """One running container instance of a service.

    Attributes
    ----------
    instance_id:
        Unique identifier (also the sandbox id on the host RNG).
    service:
        The service this instance belongs to.
    host_id:
        The physical host (simulator-side ground truth; never exposed to
        guests or to the attacker-facing API).
    sandbox:
        The sandboxed execution environment guest code runs in.  Pass a
        built ``sandbox`` or the instance's :class:`LaunchRun` as ``run``;
        a run-launched instance builds its run's sandboxes on first access.
    created_at / last_active_at:
        Lifecycle timestamps (simulated wall clock).
    active_since:
        Start of the current active period, or ``None`` while idle.
    on_sigterm:
        Callback invoked (with the current wall time) when the orchestrator
        sends SIGTERM before termination; the idle-termination experiment
        (Fig. 6) registers a reporter here.
    """

    __slots__ = (
        "instance_id", "service", "host_id", "created_at", "state",
        "active_since", "last_active_at", "active_seconds_total", "on_sigterm",
        "_sandbox", "_run",
    )

    def __init__(
        self,
        *,
        instance_id: str,
        service: Service,
        host_id: str,
        created_at: float,
        sandbox: Sandbox | None = None,
        run: LaunchRun | None = None,
    ) -> None:
        if (sandbox is None) == (run is None):
            raise TypeError("ContainerInstance takes exactly one of sandbox= or run=")
        self.instance_id = instance_id
        self.service = service
        self.host_id = host_id
        self.created_at = created_at
        self.state = InstanceState.ACTIVE
        self.active_since: float | None = created_at
        self.last_active_at = created_at
        self.active_seconds_total = 0.0
        self.on_sigterm: Callable[[float], None] | None = None
        self._sandbox = sandbox
        self._run = run

    def __repr__(self) -> str:
        return (
            f"ContainerInstance({self.instance_id!r}, host={self.host_id!r}, "
            f"state={self.state.value})"
        )

    @property
    def sandbox(self) -> Sandbox:
        """The instance's sandbox (builds its launch run's on first access)."""
        if self._sandbox is None:
            self._run.build()
        return self._sandbox

    @property
    def generation(self) -> str:
        """Sandbox generation ("gen1"/"gen2"), answered without a build."""
        if self._sandbox is None:
            return self._run.sandbox_cls.generation
        return self._sandbox.generation

    @property
    def alive(self) -> bool:
        """True until the instance has been terminated."""
        return self.state is not InstanceState.TERMINATED

    def require_alive(self) -> None:
        """Raise :class:`InstanceGoneError` if the instance is terminated."""
        if not self.alive:
            raise InstanceGoneError(f"instance {self.instance_id!r} was terminated")

    def run_probe(self, probe: Callable[[Sandbox], T]) -> T:
        """Execute ``probe(sandbox)`` inside this instance if it is alive.

        The single execution gate shared by
        :meth:`repro.cloud.api.InstanceHandle.run` and the batched
        :meth:`repro.cloud.api.InstanceHandle.run_batch` engine hook: both
        paths check liveness the same way, so a terminated instance raises
        :class:`InstanceGoneError` identically under either engine.
        """
        self.require_alive()
        return probe(self.sandbox)

    def go_idle(self, now: float) -> None:
        """Transition ACTIVE -> IDLE, accumulating billable active time."""
        self.require_alive()
        if self.state is InstanceState.ACTIVE and self.active_since is not None:
            self.active_seconds_total += now - self.active_since
            self.active_since = None
        self.state = InstanceState.IDLE
        self.last_active_at = now

    def go_active(self, now: float) -> None:
        """Transition IDLE -> ACTIVE (a new connection arrived)."""
        self.require_alive()
        if self.state is InstanceState.IDLE:
            self.active_since = now
        self.state = InstanceState.ACTIVE

    def terminate(self, now: float) -> None:
        """Send SIGTERM and destroy the instance."""
        if not self.alive:
            return
        if self.state is InstanceState.ACTIVE and self.active_since is not None:
            self.active_seconds_total += now - self.active_since
            self.active_since = None
        if self.on_sigterm is not None:
            self.on_sigterm(now)
        self.state = InstanceState.TERMINATED
