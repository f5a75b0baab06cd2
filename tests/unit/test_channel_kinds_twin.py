"""Twin-world identity for every registered channel kind.

Two guarantees per kind:

* **engine identity** — the per-round loop oracle and the batched
  ``observe_rounds`` engine produce identical verdicts, hits, RNG end
  states, and pressurer sets for every registered kind (the per-kind
  generalization of the RNG twin-world suite);
* **refactor identity** — the generic kind-routed surface
  (``start/stop/observe_channel_contention(kind)``) reproduces the
  historical per-kind wiring (the host's ``rng_resource`` /
  ``memory_bus`` attributes) byte-for-byte.
"""

from __future__ import annotations

import pytest

from repro.core.covert import COVERT_CHANNEL_CLASSES, MemoryBusCovertChannel, RngCovertChannel
from repro.faults import FaultPlan, FaultSpec
from repro.sandbox.base import ChannelPort
from tests.oracles import loop_oracle
from tests.unit.test_ctest_vectorized import launch, run_twin_worlds, run_world

KINDS = tuple(COVERT_CHANNEL_CLASSES)


class LegacyRngChannel(loop_oracle(RngCovertChannel)):
    """The pre-registry wiring: the per-round loop against the host's
    ``rng_resource`` attribute directly."""

    @staticmethod
    def _start(sandbox) -> None:
        sandbox._host.rng_resource.start_pressure(sandbox.sandbox_id)

    @staticmethod
    def _observe_round(sandbox) -> int:
        return sandbox._host.rng_resource.observe(sandbox.sandbox_id, sandbox._rng)

    @staticmethod
    def _stop(sandbox) -> None:
        sandbox._host.rng_resource.stop_pressure(sandbox.sandbox_id)


class LegacyBusChannel(loop_oracle(MemoryBusCovertChannel)):
    @staticmethod
    def _start(sandbox) -> None:
        sandbox._host.memory_bus.start_pressure(sandbox.sandbox_id)

    @staticmethod
    def _observe_round(sandbox) -> int:
        return sandbox._host.memory_bus.observe(sandbox.sandbox_id, sandbox._rng)

    @staticmethod
    def _stop(sandbox) -> None:
        sandbox._host.memory_bus.stop_pressure(sandbox.sandbox_id)


@pytest.mark.parametrize("seed", (11, 12, 13))
@pytest.mark.parametrize("kind", KINDS)
def test_kind_engine_identity(tiny_env_factory, kind, seed):
    """Loop and batched engines agree for every registered kind."""
    run_twin_worlds(
        tiny_env_factory,
        seed=seed,
        n_instances=8,
        group_size=4,
        threshold=2,
        plan_factory=lambda: FaultPlan(
            FaultSpec(ctest_death_rate=0.2, seed=seed)
        ),
        channel_cls=COVERT_CHANNEL_CLASSES[kind],
    )


@pytest.mark.parametrize(
    "generic_cls,legacy_cls",
    [(RngCovertChannel, LegacyRngChannel), (MemoryBusCovertChannel, LegacyBusChannel)],
    ids=["rng", "bus"],
)
@pytest.mark.parametrize("seed", (21, 22))
def test_generic_hooks_match_legacy_hooks(
    tiny_env_factory, generic_cls, legacy_cls, seed
):
    """Kind-routed hooks reproduce the historical static wiring exactly."""
    shape = dict(
        seed=seed,
        n_instances=6,
        group_size=3,
        threshold=2,
        plan_factory=lambda: None,
    )
    generic = run_twin_worlds(tiny_env_factory, channel_cls=generic_cls, **shape)
    legacy = run_world(tiny_env_factory, legacy_cls, **shape)
    # run_twin_worlds already proved loop==batched for the generic wiring;
    # this pins the historical wiring to the same observations.
    assert generic[0] == legacy


def test_channel_port_resolves_every_kind(tiny_env):
    handle = launch(tiny_env, 1)[0]
    sandbox = handle._instance.sandbox
    assert sandbox.channel_port("rng").resource is sandbox._host.rng_resource
    assert sandbox.channel_port("bus").resource is sandbox._host.memory_bus
    for kind in KINDS:
        assert sandbox.channel_port(kind) == ChannelPort(
            sandbox._host.channel_resource(kind), sandbox.sandbox_id, sandbox._rng
        )
