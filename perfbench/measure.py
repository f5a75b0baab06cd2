"""Run one pass of a workload, untraced or traced, and collect its numbers.

Every pass runs under a counters-only telemetry handle: the program's
telemetry stays *disabled* (no spans, no trace capture in the runner or
the world cache), but its counters — ``orchestrator.instances_created``,
``ctest.tests``, ``traffic.evaluations`` and the rest — are tallied.  A
full :class:`repro.telemetry.Telemetry` would instead record a span per
launch, store every world build's spans in its snapshot and graft them
onto each fork, which on ``sweep`` costs more than the work it observes.
A meter on ``SimClock.advance_to`` adds up simulated seconds.  A traced
pass differs from an untraced one only by the :mod:`perfbench.tracing`
wrappers.  Every pass starts from an empty process world cache.
"""

from __future__ import annotations

import functools
import gc
import math
import time
from contextlib import contextmanager
from typing import Iterator

from repro.runner.worldcache import reset_process_world_cache
from repro.simtime.clock import SimClock
from repro.telemetry import MetricSet, NullTelemetry, telemetry_context

from perfbench import tracing

#: Per-layer metrics that are not a plain span statistic or counter.
_DERIVED = {
    "placement.instances_per_call": lambda t, c: _ratio(
        t.counts.get("placement.instances", 0), t.calls("placement.place")
    ),
    "verify.tests_per_host": lambda t, c: _ratio(
        c.get("verify.tests", 0), t.counts.get("verify.hosts", 0)
    ),
    "fingerprint.instances": lambda t, c: t.counts.get("fingerprint.instances", 0),
    "simtime.call_at.calls": lambda t, c: t.counts.get("simtime.call_at.calls", 0),
    "ctest.busy_sim_s": lambda t, c: c.get("ctest.busy_seconds", 0),
    "worldcache.builds": lambda t, c: t.calls("worldcache.build"),
    "worldcache.forks": lambda t, c: t.calls("worldcache.fork"),
    "unattributed_s": lambda t, c: t.self_s("pass"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class CountingTelemetry(NullTelemetry):
    """Telemetry that is off but still tallies the program's counters."""

    def __init__(self) -> None:
        self.metrics = MetricSet()

    def count(self, name: str, n: float = 1) -> None:
        self.metrics.inc(name, n)


@contextmanager
def sim_meter() -> Iterator[list[float]]:
    """Add up the simulated seconds every clock advances inside the block."""
    advanced = [0.0]
    original = SimClock.__dict__["advance_to"]

    @functools.wraps(original)
    def advance_to(self, when):
        advanced[0] += max(0.0, when - self.now())
        return original(self, when)

    SimClock.advance_to = advance_to
    try:
        yield advanced
    finally:
        SimClock.advance_to = original


def layer_metric(name: str, tracer: tracing.Tracer, counters: dict) -> float:
    """One per-layer metric: derived, a span statistic, or a counter."""
    if name in _DERIVED:
        return float(_DERIVED[name](tracer, counters))
    span, _, stat = name.rpartition(".")
    if stat == "calls":
        return float(tracer.calls(span))
    if stat == "self_s":
        return tracer.self_s(span)
    if stat in ("p50_ms", "p90_ms"):
        q = 0.5 if stat == "p50_ms" else 0.9
        return 1000.0 * _percentile(tracer.durations.get(span, []), q)
    return float(counters.get(name, 0))


def measure_pass(workload, inputs, traced: bool, layer_names=()) -> dict:
    """Run one pass; return its timing, outputs, and (traced) layer numbers."""
    reset_process_world_cache()
    gc.collect()
    record: dict = {"traced": traced}
    telemetry = CountingTelemetry()
    cpu_start = time.process_time()
    with telemetry_context(telemetry), sim_meter() as advanced:
        if traced:
            tracer = tracing.Tracer()
            with tracing.installed(tracer), tracing.span("pass"):
                output = workload.run(inputs)
            wall_s = tracer.total_s("pass")
        else:
            start = time.perf_counter()
            output = workload.run(inputs)
            wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    counters = telemetry.metrics.counters
    if traced:
        per_layer = {name: layer_metric(name, tracer, counters) for name in layer_names}
        per_layer["trace.wall_s"] = wall_s
        per_layer["worldcache.snapshot_mb"] = output.snapshot_bytes / 2**20
        record["per_layer"] = per_layer
        record["spans"] = [
            [name, parent, calls, total, own]
            for (name, parent), (calls, total, own) in tracer.spans.items()
        ]
    record.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        sim_s=advanced[0],
        instances_created=counters.get("orchestrator.instances_created", 0),
        ops={op.label: [op.digest, op.error] for op in output.operations},
        digest=output.digest,
        fmi=output.fmi,
        census_rel_err=output.census_rel_err,
    )
    return record
