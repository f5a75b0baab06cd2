"""Picklable experiment cells and their content-addressed identities.

A *cell* is the unit of embarrassing parallelism in the experiment drivers:
one independent ``(configuration, seed)`` simulation whose result depends on
nothing but those inputs.  :class:`CellSpec` names the cell function and its
inputs; :class:`CellResult` carries the value back with timing and cache
provenance.  Both must survive a round-trip through ``pickle`` so cells can
run in worker processes (:mod:`repro.runner.pool`) and rest on disk
(:mod:`repro.runner.cache`).

The identity of a cell is the SHA-256 of ``(experiment id, canonicalized
config, seed, package version)`` — see :func:`cell_identity` — plus, when
the runner executes under a platform profile or fault plan, those
contexts' canonical forms.  Its cache key (:func:`cache_key`) binds that
identity to the source fingerprint (:func:`source_fingerprint`), a hash
of every module of the package, so a cached value never outlives the
code that computed it, whether or not the version string was bumped.
Changing any of these recomputes the cell; nothing else does.  Fault
plans key injected cell failures on the identity, so a fault schedule
does not move when the sources do.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro import _version
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.runner.worldcache import EnvSpec


class CellSpecError(ReproError):
    """Raised when a cell's configuration cannot be canonicalized."""


#: Root of the ``repro`` package sources.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def hash_source_tree(root: Path) -> str:
    """SHA-256 over the relative path and bytes of every ``*.py`` under ``root``."""
    digest = hashlib.sha256()
    for name, path in sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def source_fingerprint() -> str:
    """Fingerprint of the package's own sources, hashed once per process."""
    return hash_source_tree(PACKAGE_ROOT)


def canonicalize(config: Any) -> Any:
    """Reduce ``config`` to a deterministic JSON-able structure.

    Handles the types experiment configurations are built from: scalars,
    strings, mappings, sequences, sets, and (frozen) dataclasses.  Mapping
    keys are sorted and dataclasses are tagged with their qualified name so
    two config types with identical fields do not collide.
    """
    if config is None or isinstance(config, (bool, int, float, str)):
        return config
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        tag = f"{type(config).__module__}.{type(config).__qualname__}"
        fields = {
            f.name: canonicalize(getattr(config, f.name))
            for f in dataclasses.fields(config)
        }
        return {"__dataclass__": tag, "fields": fields}
    if isinstance(config, dict):
        try:
            items = sorted(config.items())
        except TypeError as error:
            raise CellSpecError(
                f"cell config mapping keys must be sortable: {config!r}"
            ) from error
        return {str(k): canonicalize(v) for k, v in items}
    if isinstance(config, (list, tuple)):
        return [canonicalize(item) for item in config]
    if isinstance(config, (set, frozenset)):
        return sorted(canonicalize(item) for item in config)
    raise CellSpecError(
        f"cannot canonicalize {type(config).__name__!r} in a cell config"
    )


@dataclass(frozen=True)
class CellSpec:
    """One independent simulation cell.

    Attributes
    ----------
    experiment:
        Experiment identifier (part of the cache key).
    fn:
        Module-level callable ``fn(config, seed) -> value``.  It must be
        importable by name (no lambdas or closures) so worker processes can
        unpickle it, and its value must itself be picklable.
    config:
        The cell's full configuration; canonicalized into the cache key.
    seed:
        Master seed for the cell.  Every RNG inside the cell must derive
        from it, which is what makes serial and pooled runs identical.
    label:
        Free-form display label (not part of the cache key).
    env:
        Optional :class:`~repro.runner.worldcache.EnvSpec` declaring the
        simulated world the cell builds.  Declaring one opts the cell
        into warm-world forking: the runner activates the process's
        :class:`~repro.runner.worldcache.WorldCache` around the cell, so
        its ``default_env`` call forks a checkpoint instead of rebuilding
        when a sibling already built the same world.  Advisory — the
        world's identity is always recomputed from the actual
        ``default_env`` inputs — and not part of the cell cache key.
    """

    experiment: str
    fn: Callable[[Any, int], Any]
    config: Any
    seed: int
    label: str = ""
    env: "EnvSpec | None" = None

    def key(self, platform: Any = None, faults: Any = None) -> str:
        """Content-addressed cache key for this cell.

        ``platform`` / ``faults`` are the runner's execution contexts
        (:class:`~repro.cloud.platform.PlatformProfile`,
        :class:`~repro.faults.FaultSpec`); when given they join the
        hashed payload so context-shaped values can never collide with
        baseline entries.  Omitted (``None``) they leave the key exactly
        as it was before contexts existed.
        """
        return cache_key(
            self.experiment, self.config, self.seed,
            platform=platform, faults=faults,
        )

    def identity(self) -> str:
        """What this cell computes, independent of the code computing it
        (the token fault plans key injected cell failures on)."""
        return cell_identity(self.experiment, self.config, self.seed)


@dataclass
class CellResult:
    """The outcome of one executed (or cache-restored) cell.

    A cell that raised carries ``error`` (``"label: ExcType: message"``)
    and ``value=None`` instead of aborting its whole run; see
    :func:`~repro.runner.pool.run_cells` for how errors propagate.
    """

    experiment: str
    seed: int
    label: str
    key: str
    value: Any
    elapsed_s: float
    cached: bool = field(default=False)
    error: str | None = field(default=None)
    #: Telemetry snapshot (spans + metrics) captured while the cell ran;
    #: ``None`` when tracing was off.  Not part of the cell's identity.
    trace: dict | None = field(default=None, repr=False)
    #: Warm-world cache counter deltas (``worldcache.*``) this cell's
    #: execution produced; ``None`` when the cell did not run with the
    #: world cache armed (or touched it not at all).
    world: dict | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """Whether the cell produced a value (no captured error)."""
        return self.error is None

    def value_digest(self) -> str:
        """SHA-256 of the pickled value (byte-identity across runs)."""
        return hashlib.sha256(pickle.dumps(self.value)).hexdigest()


def cell_identity(
    experiment: str,
    config: Any,
    seed: int,
    *,
    platform: Any = None,
    faults: Any = None,
) -> str:
    """SHA-256 over (experiment id, canonical config, seed, version).

    A non-``None`` ``platform`` (a profile dataclass) or ``faults`` (a
    fault-spec dataclass) is canonicalized into the payload under its own
    field, so runs under ``--platform`` / ``--faults`` are content-
    addressed separately from baseline runs instead of bypassing the
    cache.  ``None`` values are *omitted entirely*: keys computed before
    these fields existed remain valid.
    """
    payload = {
        "experiment": experiment,
        "config": canonicalize(config),
        "seed": int(seed),
        "version": _version.__version__,
    }
    if platform is not None:
        payload["platform"] = canonicalize(platform)
    if faults is not None:
        payload["faults"] = canonicalize(faults)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_key(
    experiment: str,
    config: Any,
    seed: int,
    *,
    platform: Any = None,
    faults: Any = None,
) -> str:
    """The cell's :func:`cell_identity` bound to :func:`source_fingerprint`:
    editing any module of the package changes every key."""
    identity = cell_identity(
        experiment, config, seed, platform=platform, faults=faults
    )
    blob = f"{identity}:{source_fingerprint()}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
