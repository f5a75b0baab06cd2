"""Twin-world identity suite for the batched idle-out path.

``Orchestrator._idle_out_many`` idles a whole disconnect or scale-in at
once: one idle-window lookup, one service-state lookup and one vector
draw of n reap deadlines.  Each test builds two byte-identical worlds
from one seed, runs the per-instance oracle (:mod:`tests.oracles`) in one
and production in the other, and pins alive ids, pending reaps and their
deadlines, the scheduler's pending count, billing, service counts and the
orchestrator RNG end state exactly equal.  Every shape runs with the
shared-RNG deadline draw and with a hashed per-instance idle stream
(the background-tenant path).
"""

from __future__ import annotations

import functools

import pytest

from repro.cloud.services import ServiceConfig
from repro.faults import hashed_uniform
from tests.oracles import use_scalar_idle_out


def observe(env, service) -> dict:
    orch = env.orchestrator
    account = orch.accounts[service.account_id]
    return {
        "clock": orch.clock.now(),
        "alive": sorted(i for i, inst in orch.instances.items() if inst.alive),
        "reaps": sorted(
            (instance_id, event.when) for instance_id, event in orch._idle_reaps.items()
        ),
        "pending": orch.scheduler.pending(),
        "billed_usd": account.billing.total_usd,
        "cost_usd": orch.account_cost_usd(service.account_id),
        "counts": (orch.active_count(service), orch.idle_count(service)),
        "orch_rng": str(orch._rng.bit_generator.state),
    }


def run_idle_campaign(env, shape: str, hashed: bool) -> list[dict]:
    """Drive one idle-out shape; return the observed state just before its
    idle-out, right after it, and after waiting into the reap window."""
    client = env.clients["account-1"]
    orch = env.orchestrator
    profile = env.datacenter.profile
    grace, deadline = profile.idle_grace, profile.idle_deadline
    name = client.deploy(ServiceConfig(name="svc", max_instances=40))
    service = client._service(name)
    if hashed:
        orch.set_idle_deadline_stream(
            service, functools.partial(hashed_uniform, 7, "idle")
        )

    steps = []
    if shape == "disconnect":
        client.connect(name, 12)
        steps.append(observe(env, service))
        client.disconnect(name)
        steps.append(observe(env, service))
        client.wait((grace + deadline) / 2)
        steps.append(observe(env, service))
    elif shape == "scale-in":
        orch.scale_to(service, 14)
        steps.append(observe(env, service))
        orch.scale_to(service, 5)
        steps.append(observe(env, service))
        client.wait((grace + deadline) / 2)
        orch.scale_to(service, 2)
        steps.append(observe(env, service))
    elif shape == "re-idle":
        first = {h.instance_id for h in client.connect(name, 10)}
        client.disconnect(name)
        client.wait(grace / 2)
        second = {h.instance_id for h in client.connect(name, 6)}
        # The reconnect reused idle instances (cancelling their reaps), and
        # the disconnect below idles them a second time.
        assert second <= first
        steps.append(observe(env, service))
        client.disconnect(name)
        steps.append(observe(env, service))
        client.wait(deadline)
        steps.append(observe(env, service))
    else:  # pragma: no cover - parametrization guard
        raise ValueError(shape)
    return steps


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("hashed", [False, True], ids=["shared-rng", "hashed-stream"])
@pytest.mark.parametrize("shape", ["disconnect", "scale-in", "re-idle"])
def test_idle_out_identity(tiny_env_factory, seed, hashed, shape):
    worlds = {}
    for label in ("scalar", "batched"):
        env = tiny_env_factory(seed=seed)
        if label == "scalar":
            use_scalar_idle_out(env.orchestrator)
        worlds[label] = run_idle_campaign(env, shape, hashed)
    assert worlds["scalar"] == worlds["batched"]

    # The shape reached its path: reaps were scheduled, and some fired.
    before, idled, last = worlds["batched"]
    assert idled["reaps"]
    assert len(last["alive"]) < len(idled["alive"])
    # Only the shared-RNG path draws deadlines from the orchestrator's RNG.
    assert (before["orch_rng"] == idled["orch_rng"]) == hashed
