"""The benchmark's workloads: inputs from a seed, one pass through the
simulator's public entry points, and the pass's checked outputs.

Each workload turns ``(seed, scale)`` into inputs with :meth:`prepare`
(cheap — this is what ``setup_s`` covers) and executes one pass with
:meth:`run`.  A pass is a list of *operations* (a census region cell, a
verification channel pass, a sweep cell).  Every operation hashes its
deterministic outputs into a digest and is checked against its
reproduction band; an operation that raises or leaves its band counts as
failed.  The harness (``run.py``) compares digests across passes, against
the traced pass, and against the digests recorded in ``expected.json``.

The three workloads stress different layers on purpose:

* ``census`` — the Fig. 12 driver on ``us-west1``: instance lifecycle in
  800-instance bursts, idle reaping and sandbox builds; no CTest, traffic
  or forking.
* ``verify`` — a §4.3-shaped verification wave at 16x ``us-east1`` under a
  seeded fault plan: the CTest engine and the verifier's re-run/fallback
  path, plus the orchestrator's fault-launch path.
* ``sweep`` — the warm-world channel x platform grid of
  ``benchmarks/bench_world.py``: tens of thousands of small autoscale
  calls from background tenants, snapshot forks, gen2 fingerprints.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field

from benchmarks import bench_world
from repro.analysis.metrics import pair_confusion
from repro.cloud.services import ServiceConfig
from repro.cloud.topology import REGION_PROFILES, RegionProfile
from repro.core.covert import covert_channel_for
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier, TaggedInstance
from repro.experiments import census
from repro.experiments.base import default_env
from repro.faults import FaultPlan, fault_context
from repro.runner import CellSpec, RunnerConfig, run_cells
from repro.runner.worldcache import (
    current_world_cache,
    process_world_cache,
    world_cache_context,
)

from perfbench import tracing

#: Lowest FMI a verification operation may score and still count as a
#: reproduction of the paper's "verified clusters are exact" result.
MIN_FMI = 0.99


def digest_of(value) -> str:
    """SHA-256 of a JSON-able value (floats round-trip exactly in JSON)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _serial_runner() -> RunnerConfig:
    """Serial, uncached, no retries: every pass recomputes every cell, and
    a failing cell is reported instead of retried or raised."""
    return RunnerConfig(
        parallelism=0,
        cache_read=False,
        cache_write=False,
        max_retries=0,
        isolate_errors=True,
    )


def _scaled(region: str, factor: int) -> RegionProfile:
    base = REGION_PROFILES[region]
    if factor == 1:
        return base
    return dataclasses.replace(
        base,
        name=f"perfbench-{region}-{factor}x",
        n_hosts=base.n_hosts * factor,
        active_hosts=base.active_hosts * factor,
        shard_size=base.shard_size * factor,
    )


@dataclass
class Operation:
    """One checked unit of work inside a pass."""

    label: str
    digest: str | None = None
    error: str | None = None


@dataclass
class PassOutput:
    """What one pass produced: its operations plus quality figures.

    ``fmi`` / ``census_rel_err`` are ``None`` where they do not apply;
    ``snapshot_bytes`` is the size of the warm worlds the pass cached.
    """

    operations: list[Operation] = field(default_factory=list)
    fmi: float | None = None
    census_rel_err: float | None = None
    snapshot_bytes: int = 0

    @property
    def digests(self) -> dict[str, str | None]:
        return {op.label: op.digest for op in self.operations}

    @property
    def digest(self) -> str:
        return digest_of(self.digests)


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CensusScale:
    #: One region, not Fig. 12's two: a two-region pass (~17 s) fits only
    #: twice in a run, and the median of two passes is their mean, which
    #: one slow stretch of the host moves by its whole size.  One region is
    #: the same 800-instance lifecycle work in ~7 s.
    regions: tuple[str, ...] = ("us-west1",)
    services_per_account: int = 8
    launches_per_service: int = 4
    instances_per_launch: int = 800
    #: The paper band (within 25% of Fig. 12, growth flattens) only holds
    #: at the paper's launch sizes.
    paper_band: bool = True


@dataclass(frozen=True)
class CensusInputs:
    config: census.CensusConfig
    paper_band: bool


class CensusWorkload:
    def prepare(self, seed: int, scale: CensusScale) -> CensusInputs:
        config = census.CensusConfig(
            regions=scale.regions,
            services_per_account=scale.services_per_account,
            launches_per_service=scale.launches_per_service,
            instances_per_launch=scale.instances_per_launch,
            base_seed=seed,
        )
        return CensusInputs(config, scale.paper_band)

    def run(self, inputs: CensusInputs) -> PassOutput:
        config = inputs.config
        out = PassOutput()
        try:
            regions = census.run(config, runner=_serial_runner()).regions
        except Exception as exc:  # noqa: BLE001 - reported as failed ops
            regions = [f"raised: {exc!r}"] * len(config.regions)
        errors = []
        for region, result in zip(config.regions, regions):
            op = Operation(label=region)
            out.operations.append(op)
            if not isinstance(result, census.RegionCensus):
                # run_cells isolates a raising cell as a None value.
                op.error = result or "region cell raised"
                continue
            op.digest = digest_of(
                {
                    "cumulative": result.census.cumulative_unique,
                    "per_launch": result.census.per_launch,
                    "attacker_hosts_at_once": result.attacker_hosts_at_once,
                    "attacker_cost_usd": result.attacker_cost_usd,
                }
            )
            paper = census.PAPER_CENSUS[region]
            rel_err = abs(result.total_hosts - paper) / paper
            errors.append(rel_err)
            if inputs.paper_band and not (rel_err < 0.25 and result.growth_flattens):
                op.error = (
                    f"outside the Fig. 12 band: {result.total_hosts} hosts "
                    f"(paper {paper}), flattens={result.growth_flattens}"
                )
        out.census_rel_err = _mean(errors)
        return out


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VerifyScale:
    region_factor: int = 16
    services: int = 16
    instances_per_service: int = 800
    faults: str = "launch=0.02,ctest=0.02,death=0.005"
    channels: tuple[str, ...] = ("rng", "bus", "llc", "dvfs")


@dataclass(frozen=True)
class VerifyInputs:
    seed: int
    scale: VerifyScale
    profile: RegionProfile


class VerifyWorkload:
    def prepare(self, seed: int, scale: VerifyScale) -> VerifyInputs:
        return VerifyInputs(seed, scale, _scaled("us-east1", scale.region_factor))

    def run(self, inputs: VerifyInputs) -> PassOutput:
        scale = inputs.scale
        out = PassOutput()
        # A fresh plan per pass: its counters must not carry over.
        plan = FaultPlan.from_spec(f"{scale.faults},seed={inputs.seed}")
        with fault_context(plan):
            try:
                env = default_env(
                    profile=inputs.profile, seed=inputs.seed, fault_plan=plan
                )
                tagged = self._launch_and_fingerprint(env, scale)
            except Exception as exc:  # noqa: BLE001 - reported as failed ops
                out.operations = [
                    Operation(label=kind, error=f"launch raised: {exc!r}")
                    for kind in scale.channels
                ]
                return out
            fmis = []
            for kind in scale.channels:
                op = Operation(label=kind)
                out.operations.append(op)
                try:
                    report = ScalableVerifier(covert_channel_for(kind)).verify(tagged)
                except Exception as exc:  # noqa: BLE001 - reported as failed op
                    op.error = f"raised: {exc!r}"
                    continue
                predicted = report.cluster_index()
                truth = {
                    iid: env.orchestrator.true_host_of(iid) for iid in predicted
                }
                fmi = pair_confusion(predicted, truth).fmi
                fmis.append(fmi)
                op.digest = digest_of(
                    {
                        "clusters": sorted(
                            sorted(h.instance_id for h in cluster)
                            for cluster in report.clusters
                        ),
                        "n_tests": report.n_tests,
                        "n_batches": report.n_batches,
                        "fallback_groups": report.fallback_groups,
                    }
                )
                if len(predicted) != len(tagged):
                    op.error = (
                        f"clusters cover {len(predicted)} of {len(tagged)} instances"
                    )
                elif fmi < MIN_FMI:
                    op.error = f"FMI {fmi:.4f} below {MIN_FMI}"
        out.fmi = _mean(fmis)
        return out

    @staticmethod
    def _launch_and_fingerprint(env, scale: VerifyScale) -> list[TaggedInstance]:
        attacker = env.attacker
        handles = []
        for index in range(scale.services):
            name = attacker.deploy(
                ServiceConfig(
                    name=f"wave-{index}",
                    max_instances=max(100, scale.instances_per_service),
                )
            )
            handles.extend(attacker.connect(name, scale.instances_per_service))
        return [
            TaggedInstance(handle, fingerprint, fingerprint.cpu_model)
            for handle, fingerprint in fingerprint_gen1_instances(handles, p_boot=1.0)
        ]


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepScale:
    factor: int = 16
    channels: tuple[str, ...] = bench_world.CHANNELS
    platforms: tuple[str, ...] = bench_world.PLATFORMS
    repetitions: int = bench_world.REPETITIONS


def _build_world(factor: int, platform: str, seed: int):
    # bench_world.build_world calls default_env, which would checkpoint the
    # world *before* its warmup under the ambient cache; the outer
    # build_or_fork checkpoints it after.
    with tracing.span("worldcache.build"), world_cache_context(None):
        return bench_world.build_world(factor, platform, seed)


def _sweep_cell(params: dict, seed: int) -> dict:
    """One grid cell: fork (or build) the platform's warm world, then run
    bench_world's cell body on it."""
    factor, platform = params["factor"], params["platform"]
    build = functools.partial(_build_world, factor, platform, seed)
    cache = current_world_cache()
    if cache is None:
        env = build()
    else:
        env = cache.build_or_fork(
            bench_world.world_spec(factor, platform, seed), build
        )
    return bench_world.cell_work(env, params["channel"], params["rep"])


@dataclass(frozen=True)
class SweepInputs:
    specs: tuple[CellSpec, ...]


class SweepWorkload:
    def prepare(self, seed: int, scale: SweepScale) -> SweepInputs:
        cells = itertools.product(
            scale.channels, scale.platforms, range(scale.repetitions)
        )
        return SweepInputs(
            tuple(
                CellSpec(
                    experiment="perfbench-sweep",
                    fn=_sweep_cell,
                    config={
                        "factor": scale.factor,
                        "channel": channel,
                        "platform": platform,
                        "rep": rep,
                    },
                    seed=seed,
                    label=f"{channel}/{platform}/{rep}",
                    env=bench_world.world_spec(scale.factor, platform, seed),
                )
                for channel, platform, rep in cells
            )
        )

    def run(self, inputs: SweepInputs) -> PassOutput:
        out = PassOutput()
        try:
            results = run_cells(inputs.specs, _serial_runner())
        except Exception as exc:  # noqa: BLE001 - reported as failed ops
            out.operations = [
                Operation(label=spec.label, error=f"raised: {exc!r}")
                for spec in inputs.specs
            ]
            return out
        fmis = []
        for spec, result in zip(inputs.specs, results):
            op = Operation(label=spec.label)
            out.operations.append(op)
            if result.error is not None:
                op.error = result.error
                continue
            op.digest = digest_of(result.value)
            fmis.append(result.value["fmi"])
            if result.value["fmi"] < MIN_FMI:
                op.error = f"FMI {result.value['fmi']:.4f} below {MIN_FMI}"
        out.fmi = _mean(fmis)
        cache = process_world_cache()
        if cache is not None:
            worlds = (cache.get(h) for h in {s.env.content_hash() for s in inputs.specs})
            out.snapshot_bytes = sum(w.n_bytes for w in worlds if w is not None)
        return out


WORKLOADS = {
    "census": (CensusWorkload(), CensusScale()),
    "verify": (VerifyWorkload(), VerifyScale()),
    "sweep": (SweepWorkload(), SweepScale()),
}

#: Tiny scales for the smoke test: every code path, a fraction of the work.
TINY_SCALES = {
    "census": CensusScale(
        regions=("us-west1",),
        services_per_account=1,
        launches_per_service=3,
        instances_per_launch=40,
        paper_band=False,
    ),
    "verify": VerifyScale(region_factor=1, services=2, instances_per_service=40),
    "sweep": SweepScale(factor=1, channels=("rng",), platforms=("default",), repetitions=2),
}
