"""Shared hardware random-number-generator contention resource.

The paper's co-location verification uses a covert channel built on
contention for the host's hardware RNG (RDRAND), chosen because the RNG is
rarely used by background workloads so the false-contention rate is under 1%
(paper §4.4.1).

The model: every container instance that currently *pressures* the RNG
registers itself here.  A pressuring instance observing the channel sees a
contention level equal to the total number of co-located pressurers
(including itself), occasionally perturbed by background activity.

The same contention model backs every registered covert-channel kind (see
:mod:`repro.hardware.channels`): the kinds differ in their background/drop
rates and, for coarse channels like LLC occupancy, an optional observation
``saturation`` — never in draw order.

Draw-order contract
-------------------
Both the scalar :meth:`ContentionResource.observe` path and the batched
:func:`observe_window` kernel (and :meth:`ContentionResource.observe_rounds`,
its one-host call) consume each observer's ``numpy`` generator in exactly
the same order, which is what keeps the two execution strategies
byte-identical (the same guarantee the columnar fleet
store gives for placement).  Per observation by one instance:

1. one uniform draw **per co-located other pressurer**, in one block; a
   draw ``>= drop_rate`` means that pressurer's contribution is seen;
2. then exactly **one** uniform draw for background contention, counted
   when it is ``< background_rate``.

So one observation advances the observer's generator by ``others + 1``
draws, where ``others`` is the number of *other* pressurers registered at
the moment of the observation.  Because every sandbox owns a private
generator, interleaving observations of different instances never changes
any stream — only the per-round pressurer counts couple co-located
observers, and those are plain set sizes, not randomness.  The contract is
pinned by ``tests/unit/test_hardware_rng_resource.py`` and
``tests/property/test_prop_window_kernel.py``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np


class ContentionResource:
    """Per-host shared-hardware contention domain.

    Parameters
    ----------
    background_rate:
        Per-observation probability that unrelated host activity adds one
        unit of contention (paper: "less than 1%" for the RNG).
    drop_rate:
        Per-observation probability that scheduling noise makes a pressurer
        miss the contention it should have seen (its own unit still counts).
    saturation:
        Optional upper bound on the *observed* contention level: a coarse
        channel (e.g. LLC occupancy) cannot resolve more than this many
        concurrent pressurers, so levels clamp to it.  The clamp is applied
        after all draws, so ``None`` (no clamp, the default) and any
        saturation consume byte-identical randomness.
    """

    def __init__(
        self,
        background_rate: float = 0.005,
        drop_rate: float = 0.02,
        saturation: int | None = None,
    ) -> None:
        if not 0.0 <= background_rate < 1.0:
            raise ValueError(f"background_rate out of range: {background_rate!r}")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate out of range: {drop_rate!r}")
        if saturation is not None and saturation < 1:
            raise ValueError(f"saturation must be >= 1, got {saturation!r}")
        self.background_rate = background_rate
        self.drop_rate = drop_rate
        self.saturation = saturation
        self._pressurers: set[str] = set()

    def start_pressure(self, instance_id: str) -> None:
        """Register ``instance_id`` as actively hammering the RNG."""
        self._pressurers.add(instance_id)

    def stop_pressure(self, instance_id: str) -> None:
        """Unregister ``instance_id`` (no-op if it was not pressuring)."""
        self._pressurers.discard(instance_id)

    @property
    def pressurer_count(self) -> int:
        """Number of instances currently pressuring this host's RNG."""
        return len(self._pressurers)

    def current_pressurers(self) -> frozenset[str]:
        """Ids of the instances currently pressuring (provider telemetry)."""
        return frozenset(self._pressurers)

    def observe(self, instance_id: str, rng: np.random.Generator) -> int:
        """Return the contention level seen by one pressuring instance.

        The observation is the number of co-located pressurers (including
        the observer itself, which must be pressuring to measure), minus
        occasional scheduling drops of *other* pressurers' contributions,
        plus occasional background contention.

        The draws follow the module-level draw-order contract (``others``
        drop draws, then one background draw), so a sequence of scalar
        observations is stream-identical to one :meth:`observe_rounds`
        call covering the same rounds.
        """
        if instance_id not in self._pressurers:
            raise ValueError(
                f"instance {instance_id!r} must pressure the RNG before observing it"
            )
        others = len(self._pressurers) - 1
        seen_others = sum(1 for _ in range(others) if rng.random() >= self.drop_rate)
        background = 1 if rng.random() < self.background_rate else 0
        level = 1 + seen_others + background
        if self.saturation is not None:
            level = min(level, self.saturation)
        return level

    def observe_rounds(
        self,
        observers: Sequence[tuple[str, np.random.Generator]],
        n_rounds: int,
        stop_rounds: Sequence[int | None] | None = None,
    ) -> list[np.ndarray]:
        """Multi-round observation by this host's observers of one window.

        The one-host call of :func:`observe_window`: simulates, for every
        observer, ``n_rounds`` successive scalar :meth:`observe` calls.

        Parameters
        ----------
        observers:
            ``(instance_id, rng)`` pairs in *schedule order*: the order in
            which the equivalent scalar engine would visit the observers
            within each round.  Every observer must currently be
            registered as pressuring.
        n_rounds:
            Number of observation rounds in the test window.
        stop_rounds:
            Optional per-observer death round: observer ``i`` observes
            rounds ``[0, stop_rounds[i])`` and stops pressuring *at its
            own slot* in round ``stop_rounds[i]``.  Within that round,
            observers scheduled earlier still see its contribution and
            observers scheduled later do not — exactly the semantics of a
            scalar engine that visits observers in schedule order and
            removes the dying pressurer when it reaches it.  ``None``
            entries (or no ``stop_rounds`` at all) mean the observer
            survives the whole window.

        Returns
        -------
        One ``int64`` array of contention levels per observer, in input
        order; observer ``i``'s array has ``stop_rounds[i]`` entries (or
        ``n_rounds`` if it survives).
        """
        levels = observe_window([(self, observers)], n_rounds, stop_rounds)
        return [row[row > 0] for row in levels]


#: Upper bound on the uniform draws one vector pass of :func:`observe_window`
#: holds at once (512 KiB of doubles); a window needing more is observed a
#: few hosts at a time, which bounds memory without changing any stream.
MAX_DRAWS_PER_PASS = 1 << 16


def observe_window(
    hosts: Sequence[
        tuple[ContentionResource, Sequence[tuple[str, np.random.Generator]]]
    ],
    n_rounds: int,
    stop_rounds: Sequence[int | None] | None = None,
) -> np.ndarray:
    """Observe one test window on every host of a batch in one vector pass.

    ``hosts`` pairs each host's resource with its observers, as
    ``(instance_id, rng)`` pairs in schedule order; ``stop_rounds`` holds
    one death round (or ``None``) per observer, hosts concatenated in the
    order given, with the semantics of
    :meth:`ContentionResource.observe_rounds`.  Each observer's generator
    is advanced by exactly one ``random`` call covering all its rounds,
    so every stream is byte-identical to the scalar per-round loop (see
    the module-level draw-order contract).  Drop, background and
    saturation are read per observer from its own host's resource.

    Pressurers registered on a host that are *not* its observers count as
    a constant external contribution for every round, mirroring the
    scalar engine (which never unregisters them mid-window).  The
    pressurer sets are never mutated: deaths only truncate observations
    and pressure contributions, and the caller unregisters dead observers
    afterwards, as the scalar engine does at the death slot.

    Hosts share no state, so a window whose draws would exceed
    :data:`MAX_DRAWS_PER_PASS` is observed in several passes of whole
    hosts; a CTest window of a verification campaign is one pass.

    Returns an ``(observers, n_rounds)`` ``int64`` array of contention
    levels, observers in input order; rounds an observer did not observe
    (from its stop round on) read 0, and every observed level is at
    least 1.
    """
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    ids: list[str] = []
    rngs: list[np.random.Generator] = []
    # Per host: observers, constant external pressure, drop rate,
    # background rate, saturation clamp.
    host_rows: list[tuple[int, int, float, float, int | None]] = []
    # Host index at which each pass ends; upper bound on the draws of the
    # pass being filled.
    pass_ends: list[int] = []
    pass_draws = 0
    for resource, observers in hosts:
        if not observers:
            continue
        pressurers = resource._pressurers
        for instance_id, rng in observers:
            if instance_id not in pressurers:
                raise ValueError(
                    f"instance {instance_id!r} must pressure the RNG "
                    f"before observing it"
                )
            ids.append(instance_id)
            rngs.append(rng)
        host_rows.append(
            (
                len(observers),
                len(pressurers) - len(observers),
                resource.drop_rate,
                resource.background_rate,
                resource.saturation,
            )
        )
        draws = len(observers) * len(pressurers) * n_rounds
        if pass_draws and pass_draws + draws > MAX_DRAWS_PER_PASS:
            pass_ends.append(len(host_rows) - 1)
            pass_draws = 0
        pass_draws += draws
    pass_ends.append(len(host_rows))
    if len(set(ids)) != len(ids):
        raise ValueError("window observers must be distinct instances")
    if stop_rounds is None:
        stops = np.full(len(ids), n_rounds, dtype=np.int64)
    else:
        if len(stop_rounds) != len(ids):
            raise ValueError(
                f"got {len(stop_rounds)} stop_rounds for {len(ids)} observers"
            )
        stops = np.array(
            [n_rounds if s is None else s for s in stop_rounds], dtype=np.int64
        )
        if (stops < 0).any():
            raise ValueError(f"stop_rounds must be >= 0, got {list(stop_rounds)}")
    if not ids or n_rounds == 0:
        return np.zeros((len(ids), n_rounds), dtype=np.int64)

    levels = []
    first_host = first = 0
    for end_host in pass_ends:
        rows = host_rows[first_host:end_host]
        end = first + sum(row[0] for row in rows)
        levels.append(_observe_pass(rows, rngs[first:end], stops[first:end], n_rounds))
        first_host, first = end_host, end
    return levels[0] if len(levels) == 1 else np.concatenate(levels)


def _observe_pass(
    host_rows: list[tuple[int, int, float, float, int | None]],
    rngs: list[np.random.Generator],
    stops: np.ndarray,
    n_rounds: int,
) -> np.ndarray:
    """One vector pass of :func:`observe_window` over whole hosts."""
    sizes, external, drop, background, saturation = zip(*host_rows)
    firsts = list(accumulate(sizes[:-1], initial=0))
    lasts = [first + size - 1 for first, size in zip(firsts, sizes)]
    rounds = np.arange(n_rounds)
    # observing[j, r]: observer j still pressures *throughout* round r.
    # dying[j, r]: running count, over the pass, of the observers up to j
    # that stop at their own slot in round r.
    observing = stops[:, None] > rounds
    dying = (stops[:, None] == rounds).cumsum(axis=0)
    # Draws per (observer, round) while it observes: one per other
    # pressurer, then one for background.  The others are the host's
    # observing observers and external pressure, plus the observers after
    # it on its host that die that round (still pressuring at its slot):
    # ``dying`` at the host's last observer minus ``dying`` at its own.
    host_level = (
        np.add.reduceat(observing, firsts, axis=0, dtype=np.int64)
        + np.array(external)[:, None]
        + dying[lasts]
    )
    counts = (np.repeat(host_level, sizes, axis=0) - dying) * observing
    per_observer = counts.sum(axis=1).tolist()
    draws = np.empty(sum(per_observer))
    if not draws.size:
        return counts
    end = 0
    for rng, n in zip(rngs, per_observer):
        start, end = end, end + n
        rng.random(out=draws[start:end])
    cells = counts.ravel()
    cell_ends = cells.cumsum()
    seen_prefix = np.concatenate(
        ([0], (draws >= np.repeat(np.repeat(drop, sizes), per_observer)).cumsum())
    )
    last = cell_ends - 1
    seen_others = seen_prefix[last] - seen_prefix[cell_ends - cells]
    levels = (
        seen_others.reshape(counts.shape)
        + (draws[last].reshape(counts.shape) < np.repeat(background, sizes)[:, None])
        + 1
    )
    if any(clamp is not None for clamp in saturation):
        unclamped = np.iinfo(np.int64).max
        clamps = [unclamped if clamp is None else clamp for clamp in saturation]
        np.minimum(levels, np.repeat(clamps, sizes)[:, None], out=levels)
    levels *= observing
    return levels


#: Historical name of :class:`ContentionResource`, kept as an alias.
RngContentionResource = ContentionResource
