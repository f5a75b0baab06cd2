"""Twin-world identity suite for the hyperscale batched paths.

Three layers run batched: the orchestrator launch commit (vector
sandbox-seed draws plus batched count commits, in runs split at fault
backoff sleeps), the helper-host recruiter (gathered id resolution), and
the census aggregation
(:class:`~repro.analysis.aggregation.FootprintAccumulator`).  Each test
here builds two byte-identical worlds from one seed, runs the scalar
oracle (:mod:`tests.oracles`) in one and the production engine in the
other, and pins placements, sandbox RNG end states and boot-relative
reads (boot time, ``/proc/uptime``, ``rdtsc``), the orchestrator RNG end
state, service-count columns, load columns, and fault counters
exactly equal — the same contract the golden traces enforce end-to-end,
exercised over a seed x shape matrix that includes mid-campaign instance
deaths, ``InstanceGoneError`` handling, fault-injected launch retries
(with background tenants firing inside the backoff sleeps), and launches
that exhaust their retries.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.aggregation import FootprintAccumulator
from repro.cloud.loadbalancer import HelperHostRecruiter
from repro.cloud.services import Service, ServiceConfig
from repro.cloud.traffic import TrafficConfig
from repro.errors import InstanceGoneError, LaunchError
from repro.experiments.base import default_env
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.fleet import FleetStore
from tests.conftest import tiny_profile
from tests.oracles import census_reduce_scalar, use_scalar_launch


def orch_rng_state(env) -> str:
    return str(env.orchestrator._rng.bit_generator.state)


def sandbox_readings(handle) -> tuple:
    """The sandbox's RNG state and its boot-relative reads.

    A Gen 2 guest's ``rdtsc`` subtracts its boot-time TSC offset, so a
    boot time shifted by a launch retry's backoff sleep changes it.
    """
    return handle.run(
        lambda sandbox: (
            str(sandbox._rng.bit_generator.state),
            sandbox.boot_wall_time,
            sandbox.proc_uptime(),
            sandbox.rdtsc(),
        )
    )


def run_campaign(
    env,
    *,
    n,
    launches,
    kill_mid=False,
    idle_deaths=False,
    max_instances=100,
    client_retry=True,
    generation="gen1",
):
    """One deploy/connect/disconnect campaign; returns its observable state.

    ``idle_deaths`` waits into the idle-reap window between launches so
    later launches top up a partially dead fleet; ``kill_mid`` terminates
    one instance directly and asserts the handle raises
    ``InstanceGoneError`` afterwards.  A ``connect`` that exhausts its
    launch retries is recorded and the campaign goes on;
    ``client_retry=False`` drops the client's own retry policy so the
    first platform ``LaunchError`` reaches the campaign.
    """
    client = env.clients["account-1"]
    if not client_retry:
        client.retry_policy = None
    orch = env.orchestrator
    profile = env.datacenter.profile
    name = client.deploy(
        ServiceConfig(name="svc", max_instances=max_instances, generation=generation)
    )
    qualified = client._service(name).qualified_name

    hosts_per_launch = []
    gone_raised = 0
    launch_errors = 0
    last_handles = []
    for launch_round in range(launches):
        try:
            handles = client.connect(name, n)
        except LaunchError:
            launch_errors += 1
            handles = []
        hosts_per_launch.append(
            [orch.true_host_of(h.instance_id) for h in handles]
        )
        if kill_mid and launch_round == 0:
            victim = handles[0]
            victim._instance.terminate(orch.clock.now())
            with pytest.raises(InstanceGoneError):
                victim.run(lambda sandbox: None)
            gone_raised += 1
        last_handles = handles
        if launch_round != launches - 1:
            client.disconnect(name)
            if idle_deaths:
                # Mid-window: some idle instances reap, some survive, so
                # the next launch mixes reuse with fresh creation.
                client.wait((profile.idle_grace + profile.idle_deadline) / 2)
            else:
                client.wait(profile.idle_grace / 2)

    plan = orch.fault_plan
    return {
        "hosts": hosts_per_launch,
        "gone_raised": gone_raised,
        "launch_errors": launch_errors,
        "fault_counters": None if plan is None else dataclasses.asdict(plan.counters),
        "alive": sorted(i for i, inst in orch.instances.items() if inst.alive),
        "sandbox_states": {
            h.instance_id: sandbox_readings(h)
            for h in last_handles
            if h.alive
        },
        "orch_rng": orch_rng_state(env),
        "service_counts": orch.fleet.service_counts(qualified).tolist(),
        "load": orch.fleet.load_slots.tolist(),
        "clock": orch.clock.now(),
        "background": (
            None if env.background is None else dataclasses.asdict(env.background.stats)
        ),
    }


def run_twin_launch_worlds(
    env_factory, seed, *, fault_plan_factory=None, **campaign_kwargs
):
    """Scalar-oracle launch world vs production launch world."""
    worlds = {}
    for label in ("scalar", "batched"):
        env = env_factory(
            seed=seed,
            fault_plan=None if fault_plan_factory is None else fault_plan_factory(),
        )
        if label == "scalar":
            use_scalar_launch(env.orchestrator)
        worlds[label] = run_campaign(env, **campaign_kwargs)
    assert worlds["scalar"] == worlds["batched"]
    return worlds["scalar"]


def background_env(seed, fault_plan):
    """A tiny region with live background tenants whose evaluation events
    fire every simulated second — inside any launch backoff sleep.  Their
    scale-outs draw placement tiebreaks and sandbox seeds from the
    orchestrator's shared RNG between the foreground's launches."""
    return default_env(
        profile=tiny_profile(),
        seed=seed,
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(max_retries=3, backoff_seconds=2.0),
        background=TrafficConfig(
            n_tenants=8,
            seed=seed,
            evaluation_period_s=4.0,
            phase_groups=4,
            mean_concurrency=1.5,
            max_instances=4,
        ),
    )


# 4 seeds x 8 shapes = 32 identity cases: a single clean wave, a
# reconnect campaign with mid-campaign idle deaths, a campaign with a
# killed instance (InstanceGoneError on both paths), a fault-injected
# campaign where launches fail and retry (Gen 1, and Gen 2 whose rdtsc
# reads its boot time), the same with background tenants scaling inside
# the backoff sleeps, and launches that exhaust their retries with and
# without the client's retry policy.
LAUNCH_SHAPES = [
    pytest.param(dict(n=12, launches=1), None, None, id="single-wave"),
    pytest.param(
        dict(n=10, launches=3, idle_deaths=True), None, None, id="idle-deaths"
    ),
    pytest.param(
        dict(n=8, launches=2, kill_mid=True), None, None, id="killed-instance"
    ),
    pytest.param(
        dict(n=10, launches=2),
        lambda seed: FaultPlan(FaultSpec(launch_error_rate=0.2, seed=seed)),
        None,
        id="faulty-launches",
    ),
    pytest.param(
        dict(n=10, launches=2, generation="gen2"),
        lambda seed: FaultPlan(FaultSpec(launch_error_rate=0.2, seed=seed)),
        lambda world: world["fault_counters"]["launch_retries"] > 0,
        id="faulty-launches-gen2",
    ),
    pytest.param(
        dict(n=10, launches=3, background=True),
        lambda seed: FaultPlan(FaultSpec(launch_error_rate=0.3, seed=seed)),
        lambda world: (
            world["fault_counters"]["launch_retries"] > 0
            and world["background"]["scale_outs"] > 0
        ),
        id="faulty-launches-live-background",
    ),
    pytest.param(
        dict(n=20, launches=3),
        lambda seed: FaultPlan(FaultSpec(launch_error_rate=0.7, seed=seed)),
        lambda world: world["launch_errors"] > 0,
        id="exhausted-retries-client-retry",
    ),
    pytest.param(
        dict(n=20, launches=3, client_retry=False),
        lambda seed: FaultPlan(FaultSpec(launch_error_rate=0.7, seed=seed)),
        lambda world: world["launch_errors"] > 0,
        id="exhausted-retries-no-client-retry",
    ),
]


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
@pytest.mark.parametrize("shape,plan,exercised", LAUNCH_SHAPES)
def test_launch_identity_matrix(tiny_env_factory, seed, shape, plan, exercised):
    shape = dict(shape)
    factory = background_env if shape.pop("background", False) else tiny_env_factory
    world = run_twin_launch_worlds(
        factory,
        seed,
        fault_plan_factory=None if plan is None else (lambda: plan(seed)),
        **shape,
    )
    # The shape must actually reach the path it exists to cover.
    assert exercised is None or exercised(world)


class TestRecruiterIdentity:
    """The recruiter's gathered id resolve vs the historical per-pick loop."""

    @staticmethod
    def build(n_hosts, helper_cap=64):
        store = FleetStore([f"h{i:05d}" for i in range(n_hosts)])
        service = Service(
            config=ServiceConfig(name="svc"),
            account_id="account-1",
            image_id="image-0",
        )
        return store, service

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "n_hosts,new_count,fraction",
        [(40, 8, 0.25), (200, 64, 0.5), (500, 11, 0.1), (64, 64, 1.0)],
    )
    def test_matches_scalar_reference(
        self, tiny_env_factory, seed, n_hosts, new_count, fraction
    ):
        profile = tiny_env_factory(seed=seed).datacenter.profile
        profile = type(profile)(
            **{
                **{f: getattr(profile, f) for f in profile.__dataclass_fields__},
                "name": "recruit-twin",
                "helper_recruit_fraction": fraction,
                "helper_pool_cap": n_hosts,
            }
        )
        candidates = np.arange(n_hosts, dtype=np.int64)
        np.random.default_rng(seed).shuffle(candidates)

        store, service = self.build(n_hosts)
        rng = np.random.default_rng(seed)
        picked = HelperHostRecruiter(profile, rng).recruit(
            service, new_count, candidates, store
        )

        # Scalar reference: the pre-PR-8 per-pick host_id loop.
        store_ref, service_ref = self.build(n_hosts)
        rng_ref = np.random.default_rng(seed)
        import math

        want = math.ceil(new_count * profile.helper_recruit_fraction)
        count = min(want, profile.helper_pool_cap, candidates.size)
        picked_pos = rng_ref.choice(candidates.size, size=count, replace=False)
        reference = [
            store_ref.host_id(int(candidates[pos])) for pos in picked_pos
        ]

        assert picked == reference
        assert service.helper_host_ids == reference
        assert str(rng.bit_generator.state) == str(rng_ref.bit_generator.state)


class TestCensusAggregationIdentity:
    """FootprintAccumulator vs the historical per-launch set reduction."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "launches,per_launch,universe",
        [(1, 50, 20), (8, 120, 40), (20, 30, 600), (5, 0, 10)],
    )
    def test_matches_set_reference(self, seed, launches, per_launch, universe):
        rng = np.random.default_rng(seed)
        stream = [
            [
                ("cpu-model", int(bucket))
                for bucket in rng.integers(universe, size=per_launch)
            ]
            for _ in range(launches)
        ]
        ref_per_launch, ref_cumulative = census_reduce_scalar(stream)

        acc = FootprintAccumulator()
        got = [acc.add_launch(launch) for launch in stream]
        assert [g[0] for g in got] == ref_per_launch
        assert [g[1] for g in got] == ref_cumulative
        assert acc.unique_count == (ref_cumulative[-1] if ref_cumulative else 0)

    def test_hashable_fingerprints_not_required_to_be_ints(self):
        acc = FootprintAccumulator()
        per, cum = acc.add_launch(["a", "b", "a", ("c", 1.5)])
        assert (per, cum) == (3, 3)
        per, cum = acc.add_launch(["b", "d"])
        assert (per, cum) == (2, 4)
        assert acc.add_launch([]) == (0, 4)
