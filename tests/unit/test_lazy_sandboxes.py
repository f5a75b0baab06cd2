"""Lazy per-launch-run sandboxes.

The orchestrator records each committed launch run in a
:class:`~repro.cloud.instance.LaunchRun` and builds the run's sandboxes on
the first touch of any member.  These tests pin that a deferred build is
invisible: a sandbox probed hours after launch reads exactly what the
eagerly built sandbox of the per-instance oracle (:mod:`tests.oracles`)
reads, a world snapshot taken before any build forks into a world that
probes like a fresh one, and a terminated instance still raises before
anything is built.
"""

from __future__ import annotations

import pytest

import repro.cloud.instance as instance_module
from repro import units
from repro.cloud.api import InstanceHandle
from repro.cloud.services import ServiceConfig
from repro.errors import InstanceGoneError, PrivilegeError
from repro.experiments.base import default_env
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.runner import WorldSnapshot
from tests.conftest import tiny_profile
from tests.oracles import use_scalar_launch


def make_env(seed: int = 11, launch_error_rate: float = 0.0):
    if not launch_error_rate:
        return default_env(profile=tiny_profile(), seed=seed)
    return default_env(
        profile=tiny_profile(),
        seed=seed,
        fault_plan=FaultPlan(FaultSpec(launch_error_rate=launch_error_rate, seed=seed)),
        retry_policy=RetryPolicy(max_retries=8, backoff_seconds=2.0),
    )


def launch(env, name: str, n: int, generation: str = "gen1") -> list[InstanceHandle]:
    client = env.attacker
    client.deploy(ServiceConfig(name=name, generation=generation))
    return client.connect(name, n)


def built(handle: InstanceHandle) -> bool:
    return handle._instance._sandbox is not None


def readings(sandbox) -> dict:
    """Every boot-, host- and RNG-dependent value a probe can read."""
    try:
        khz = sandbox.kernel_tsc_khz()
    except PrivilegeError:
        khz = None
    return {
        "rdtsc": sandbox.rdtsc(),
        "proc_uptime": sandbox.proc_uptime(),
        "kernel_tsc_khz": khz,
        "syscall_offset": sandbox.syscalls.sandbox_offset,
        "wall_clock": sandbox.wall_clock(),
        "rng_state": str(sandbox._rng.bit_generator.state),
    }


class CountingGenerators:
    """Wraps ``sandbox_generators`` to count calls and seeds."""

    def __init__(self, monkeypatch) -> None:
        self.calls: list[int] = []
        real = instance_module.sandbox_generators

        def counted(seeds):
            self.calls.append(len(seeds))
            return real(seeds)

        monkeypatch.setattr(instance_module, "sandbox_generators", counted)


class TestDeferredBuild:
    def test_untouched_run_holds_no_sandbox(self, monkeypatch):
        counter = CountingGenerators(monkeypatch)
        env = make_env()
        handles = launch(env, "svc", 6)
        assert not any(built(h) for h in handles)
        assert counter.calls == []
        # Generation is answered from the run, without a build.
        assert {h.generation for h in handles} == {"gen1"}
        assert not any(built(h) for h in handles)

    def test_touching_one_member_builds_the_whole_run(self, monkeypatch):
        counter = CountingGenerators(monkeypatch)
        env = make_env()
        handles = launch(env, "svc", 6)
        handles[3].run(lambda sandbox: sandbox.rdtsc())
        assert all(built(h) for h in handles)
        assert counter.calls == [6]
        assert all(h._instance._run is None for h in handles)
        for handle in handles:
            handle.run(lambda sandbox: sandbox.rdtsc())
        assert counter.calls == [6]

    def test_runs_build_independently(self, monkeypatch):
        counter = CountingGenerators(monkeypatch)
        env = make_env()
        first = launch(env, "a", 3)
        second = launch(env, "b", 4)
        second[0].run(lambda sandbox: None)
        assert counter.calls == [4]
        assert not any(built(h) for h in first)
        assert all(built(h) for h in second)

    def test_sandbox_boots_at_launch_not_at_build(self):
        env = make_env()
        launched_at = env.clock.now()
        handles = launch(env, "svc", 3)
        assert env.clock.now() > launched_at  # the cold start slept
        env.attacker.wait(2 * units.HOUR)
        boots = [h.run(lambda sandbox: sandbox.boot_wall_time) for h in handles]
        assert boots == [launched_at] * 3


class TestTerminatedUnbuiltRun:
    def test_probe_raises_without_building(self, monkeypatch):
        counter = CountingGenerators(monkeypatch)
        env = make_env()
        handles = launch(env, "svc", 4)
        victim = handles[1]
        victim._instance.terminate(env.clock.now())
        with pytest.raises(InstanceGoneError):
            victim.run(lambda sandbox: sandbox.rdtsc())
        with pytest.raises(InstanceGoneError):
            InstanceHandle.run_batch(handles, lambda sandboxes: len(sandboxes))
        assert counter.calls == []
        assert not any(built(h) for h in handles)

    def test_killed_service_builds_nothing(self, monkeypatch):
        counter = CountingGenerators(monkeypatch)
        env = make_env()
        handles = launch(env, "svc", 4)
        env.attacker.kill("svc")
        for handle in handles:
            with pytest.raises(InstanceGoneError):
                handle.run(lambda sandbox: None)
        assert counter.calls == []


@pytest.mark.parametrize(
    "generation,launch_error_rate",
    [("gen1", 0.0), ("gen2", 0.0), ("gen2", 0.6)],
    ids=["gen1", "gen2", "gen2-launch-retries"],
)
@pytest.mark.parametrize("seed", [3, 11])
def test_delayed_probe_matches_eager_oracle(generation, launch_error_rate, seed):
    """A sandbox first built hours after launch reads what the eagerly
    built oracle sandbox reads at the same moment.  With launch faults, a
    run committed after a retry's backoff sleep boots at its commit time,
    later than its members' ``created_at``, as the oracle's sandboxes do."""
    worlds = {}
    for label in ("eager", "lazy"):
        env = make_env(seed, launch_error_rate)
        if label == "eager":
            use_scalar_launch(env.orchestrator)
        first = launch(env, "early", 5, generation)
        env.attacker.wait(30 * units.MINUTE)
        second = launch(env, "late", 3, generation)
        env.attacker.wait(3 * units.HOUR)
        worlds[label] = [h.run(readings) for h in first + second]
        if label == "lazy":
            assert all(built(h) for h in first + second)
            if launch_error_rate:
                # The retry path is reached: some sandbox boots after launch.
                assert env.orchestrator.fault_plan.counters.launch_retries > 0
                assert any(
                    h.run(lambda sandbox: sandbox.boot_wall_time)
                    > h._instance.created_at
                    for h in first + second
                )
    assert worlds["eager"] == worlds["lazy"]
    if generation == "gen2":
        assert all(r["kernel_tsc_khz"] is not None for r in worlds["lazy"])


def test_forked_unbuilt_world_probes_like_a_fresh_world():
    """A snapshot taken with every run unbuilt restores no generators and
    forks into a world whose probes equal the fresh world's."""
    fresh = make_env(5)
    launch(fresh, "gen1-svc", 4)
    launch(fresh, "gen2-svc", 3, generation="gen2")
    fresh.clock.sleep(20 * units.MINUTE)
    assert all(i._sandbox is None for i in fresh.orchestrator.instances.values())
    snapshot = WorldSnapshot.capture(fresh)
    forked = snapshot.fork()
    assert all(i._sandbox is None for i in forked.orchestrator.instances.values())

    def probe_all(env) -> list:
        env.clock.sleep(2 * units.HOUR)
        launch(env, "after", 2)
        instances = env.orchestrator.instances
        probes = [
            (iid, InstanceHandle(instances[iid]).run(readings))
            for iid in sorted(instances)
        ]
        return probes + [str(env.orchestrator._rng.bit_generator.state)]

    assert probe_all(forked) == probe_all(fresh)


def test_building_a_run_grows_the_snapshot():
    """An unbuilt run pickles as seeds and members, with no generators."""
    env = make_env()
    handles = launch(env, "svc", 20)
    unbuilt = len(WorldSnapshot.capture(env).payload)
    handles[0].run(lambda sandbox: None)
    assert len(WorldSnapshot.capture(env).payload) > unbuilt
