"""Outside-in layer tracing: time the simulator's public calls from the
benchmark's own files, without touching the program.

:func:`installed` wraps the functions named in :data:`TARGETS` (class
attributes and module functions, at every module that imported them by
name) for the duration of a block, and restores the originals on exit.
Each wrapped call is a span.  A span's *self time* is its duration minus
the durations of the wrapped calls it made, so the self times of all
spans plus the root span's own time add up to the root's duration.

Spans are aggregated per ``(name, parent name)`` in memory — a census pass
fires about 100k scheduler callbacks — and raw durations are kept only for
the span names that report latency percentiles.

Scheduler callbacks are traced by wrapping the action handed to
``EventScheduler.call_at`` in a :class:`TracedCallback`.  World snapshots
pickle the scheduler queue, so that wrapper is a module-level class that
holds no tracer: wrappers find the active tracer through this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

_FLEET_MUTATORS = (
    "set_pool", "rotate", "assign_shards", "add_load", "release_load", "restore",
)
#: (module, attribute path, span name, optional (counter, fn(result))).
#: A call nested directly inside a span of the same name (a ``super()``
#: chain) is folded into the outer span.
TARGETS: tuple[tuple, ...] = (
    ("repro.cloud.orchestrator", "Orchestrator.connect", "orchestrator.connect"),
    ("repro.cloud.orchestrator", "Orchestrator.disconnect", "orchestrator.disconnect"),
    ("repro.cloud.orchestrator", "Orchestrator.scale_to_count",
     "orchestrator.scale_to_count"),
    ("repro.cloud.placement", "PlacementPolicy.place", "placement.place",
     ("placement.instances", len)),
    ("repro.cloud.loadbalancer", "DemandTracker.record_demand",
     "loadbalancer.record_demand"),
    ("repro.cloud.loadbalancer", "HelperHostRecruiter.recruit", "loadbalancer.recruit"),
    ("repro.sandbox.base", "Sandbox.__init__", "sandbox.construct"),
    ("repro.sandbox.microvm", "MicroVMSandbox.__init__", "sandbox.construct"),
    ("repro.core.fingerprint", "fingerprint_gen1_instances", "fingerprint.gen1",
     ("fingerprint.instances", len)),
    ("repro.core.fingerprint", "fingerprint_gen2_instances", "fingerprint.gen2",
     ("fingerprint.instances", len)),
    ("repro.simtime.clock", "SimClock.advance_to", "simtime.advance"),
    ("repro.core.covert", "RngCovertChannel.ctest_batch", "ctest.batch"),
    ("repro.hardware.rng_resource", "ContentionResource.observe_rounds",
     "hardware.observe_rounds"),
    ("repro.core.verification", "ScalableVerifier.verify", "verify",
     ("verify.hosts", lambda report: report.n_hosts)),
    ("repro.runner.pool", "run_cells", "runner.run_cells"),
    ("repro.runner.worldcache", "WorldSnapshot.capture", "worldcache.capture"),
    ("repro.runner.worldcache", "WorldSnapshot.fork", "worldcache.fork"),
    *(("repro.fleet.store", f"FleetStore.{name}", "fleet.store")
      for name in _FLEET_MUTATORS),
    ("repro.analysis.aggregation", "FootprintAccumulator.add_launch",
     "aggregation.add_launch"),
    ("repro.core.attack.census", "estimate_cluster_size", "attack"),
    ("repro.core.attack.strategies", "optimized_launch", "attack"),
)

#: Span names whose raw durations are kept for percentiles.
SAMPLED = frozenset({"orchestrator.connect"})

#: Scheduler callbacks are named after the module that scheduled them;
#: background-traffic evaluations get the traffic layer's own name.
_CALLBACK_NAMES = {"repro.cloud.traffic": "traffic.evaluate"}

_ACTIVE: "Tracer | None" = None


class Tracer:
    """Span aggregates for one traced pass."""

    def __init__(self) -> None:
        #: (name, parent name) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counts: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {name: [] for name in SAMPLED}
        # Open frames: [name, start, seconds spent in wrapped children].
        self._stack: list[list] = []

    def _open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        name, start, children = self._stack.pop()
        elapsed = time.perf_counter() - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += elapsed
        key = (name, parent[0] if parent is not None else None)
        entry = self.spans.get(key)
        if entry is None:
            entry = self.spans[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - children
        if name in self.durations:
            self.durations[name].append(elapsed)

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # Aggregates by span name (summed over parents).
    def calls(self, name: str) -> int:
        return sum(v[0] for (n, _), v in self.spans.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(v[1] for (n, _), v in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.spans.items() if n == name)


def _in_span(name: str) -> bool:
    """Whether the active tracer should open span ``name`` here."""
    tracer = _ACTIVE
    return tracer is not None and not (tracer._stack and tracer._stack[-1][0] == name)


@contextmanager
def span(name: str) -> Iterator[None]:
    """A span around a block of the benchmark's own code (no-op untraced)."""
    if not _in_span(name):
        yield
        return
    tracer = _ACTIVE
    tracer._open(name)
    try:
        yield
    finally:
        tracer._close()


def _traced(fn: Callable, name: str, counter: tuple | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not _in_span(name):
            return fn(*args, **kwargs)
        tracer = _ACTIVE
        tracer._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer._close()
        if counter is not None:
            tracer.count(counter[0], counter[1](result))
        return result

    return wrapper


class TracedCallback:
    """A scheduler action that runs as a span (picklable: holds no tracer)."""

    __slots__ = ("action", "name")

    def __init__(self, action: Callable[[], None], name: str) -> None:
        self.action = action
        self.name = name

    def __call__(self) -> None:
        tracer = _ACTIVE
        if tracer is None:
            self.action()
            return
        tracer._open(self.name)
        try:
            self.action()
        finally:
            tracer._close()


def _callback_name(action: Callable) -> str:
    target = getattr(action, "func", action)  # functools.partial
    module = getattr(target, "__module__", None) or type(target).__module__
    name = _CALLBACK_NAMES.get(module)
    if name is None:
        name = "simtime.callback." + module.removeprefix("repro.")
    return name


def _traced_call_at(call_at: Callable) -> Callable:
    @functools.wraps(call_at)
    def wrapper(self, when, action):
        tracer = _ACTIVE
        if tracer is not None:
            tracer.count("simtime.call_at.calls", 1)
            action = TracedCallback(action, _callback_name(action))
        return call_at(self, when, action)

    return wrapper


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _patch(owner, attr: str, make: Callable[[Callable], Callable], undo: list) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        replacement = classmethod(make(raw.__func__))
    else:
        replacement = make(raw)
    setattr(owner, attr, replacement)
    undo.append((owner, attr, raw))
    if isinstance(owner, type):
        return
    # A module function is also bound by name in every module that did
    # ``from module import fn``; patch those references too.
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if module is owner or namespace is None:
            continue
        for name, value in list(namespace.items()):
            if value is raw:
                setattr(module, name, replacement)
                undo.append((module, name, raw))


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Activate ``tracer`` with every target wrapped; restore on exit."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a tracer is already installed")
    undo: list[tuple] = []
    try:
        for module_name, path, name, *counter in TARGETS:
            owner, attr = _resolve(module_name, path)
            make = functools.partial(
                _traced, name=name, counter=counter[0] if counter else None
            )
            _patch(owner, attr, make, undo)
        owner, attr = _resolve("repro.simtime.scheduler", "EventScheduler.call_at")
        _patch(owner, attr, _traced_call_at, undo)
        _ACTIVE = tracer
        yield tracer
    finally:
        _ACTIVE = None
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
