"""Twin of the one-pass CTest window kernel.

:func:`~repro.hardware.rng_resource.observe_window` observes every host
of a test window at once.  For arbitrary windows — several hosts with
mixed noise rates and saturation, external pressurers, deaths at any
round including round 0 and the last one, empty hosts and empty windows —
it must agree exactly with one
:meth:`~repro.hardware.rng_resource.ContentionResource.observe_rounds`
call per host and with the per-round scalar loop
(:func:`tests.oracles.scalar_window`): same levels, same hit counts
against per-observer thresholds, same generator end states.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import rng_resource
from repro.hardware.rng_resource import ContentionResource, observe_window
from tests.oracles import scalar_window


@st.composite
def windows(draw):
    n_rounds = draw(st.integers(0, 24))
    stop = st.one_of(
        st.none(),
        st.just(0),
        st.just(max(n_rounds - 1, 0)),
        st.integers(0, n_rounds + 2),
    )
    hosts = []
    for _ in range(draw(st.integers(0, 4))):
        hosts.append(
            {
                "background_rate": draw(
                    st.sampled_from([0.0, 0.005, 0.005 * 3.5, 0.18, 0.4])
                ),
                "drop_rate": draw(st.sampled_from([0.0, 0.02, 0.1, 0.3])),
                "saturation": draw(st.sampled_from([None, 1, 2, 3, 8])),
                "observers": draw(st.integers(0, 5)),
                "external": draw(st.integers(0, 3)),
            }
        )
    n_observers = sum(host["observers"] for host in hosts)
    stops = draw(st.lists(stop, min_size=n_observers, max_size=n_observers))
    thresholds = draw(st.lists(st.integers(1, 5), min_size=n_observers, max_size=n_observers))
    seed = draw(st.integers(0, 2**32 - 1))
    return n_rounds, hosts, stops, thresholds, seed


def build(hosts, seed):
    """Fresh resources and generators for one twin world."""
    built = []
    index = 0
    for host_index, spec in enumerate(hosts):
        resource = ContentionResource(
            background_rate=spec["background_rate"],
            drop_rate=spec["drop_rate"],
            saturation=spec["saturation"],
        )
        for k in range(spec["external"]):
            resource.start_pressure(f"ext-{host_index}-{k}")
        observers = []
        for _ in range(spec["observers"]):
            instance_id = f"obs-{index}"
            resource.start_pressure(instance_id)
            observers.append((instance_id, np.random.default_rng([seed, index])))
            index += 1
        built.append((resource, observers))
    return built


def end_states(built):
    return [
        str(rng.bit_generator.state)
        for _resource, observers in built
        for _instance_id, rng in observers
    ]


def hits_of(level_lists, thresholds):
    return [
        sum(level >= threshold for level in levels)
        for levels, threshold in zip(level_lists, thresholds)
    ]


@given(windows())
@settings(max_examples=150, deadline=None)
def test_window_kernel_equals_per_host_calls_and_scalar_loop(case):
    n_rounds, hosts, stops, thresholds, seed = case

    kernel_world = build(hosts, seed)
    levels = observe_window(kernel_world, n_rounds, stops)

    # One pass per host: the memory bound splits windows without
    # changing anything observable.
    split_world = build(hosts, seed)
    with mock.patch.object(rng_resource, "MAX_DRAWS_PER_PASS", 1):
        split = observe_window(split_world, n_rounds, stops)

    per_host_world = build(hosts, seed)
    per_host: list[list[int]] = []
    offset = 0
    for resource, observers in per_host_world:
        host_stops = stops[offset : offset + len(observers)]
        offset += len(observers)
        per_host.extend(
            row.tolist() for row in resource.observe_rounds(observers, n_rounds, host_stops)
        )

    loop_world = build(hosts, seed)
    loop = scalar_window(loop_world, n_rounds, stops)

    assert np.array_equal(split, levels)
    assert end_states(split_world) == end_states(kernel_world)
    assert levels.shape == (len(stops), n_rounds)
    assert levels.dtype == np.int64
    for row, stop, expected in zip(levels, stops, loop):
        observed = n_rounds if stop is None else min(stop, n_rounds)
        assert row[:observed].tolist() == expected
        assert not row[observed:].any()
    assert per_host == loop
    kernel_hits = np.count_nonzero(
        levels >= np.asarray(thresholds, dtype=np.int64)[:, None], axis=1
    ).tolist()
    assert kernel_hits == hits_of(loop, thresholds)
    assert end_states(kernel_world) == end_states(per_host_world) == end_states(loop_world)


def test_kernel_matches_loop_on_a_mixed_window():
    """A fixed multi-host window: mixed noise, saturation, external
    pressure, a death at round 0, one at the last round and a survivor."""
    hosts = [
        {"background_rate": 0.3, "drop_rate": 0.25, "saturation": None, "observers": 3, "external": 2},
        {"background_rate": 0.05, "drop_rate": 0.1, "saturation": 2, "observers": 2, "external": 0},
        {"background_rate": 0.0, "drop_rate": 0.0, "saturation": None, "observers": 0, "external": 1},
        {"background_rate": 0.12, "drop_rate": 0.1, "saturation": 3, "observers": 4, "external": 3},
    ]
    stops = [0, None, 11, None, 5, 11, None, 0, 3]
    kernel_world, loop_world = build(hosts, 5), build(hosts, 5)
    levels = observe_window(kernel_world, 12, stops)
    loop = scalar_window(loop_world, 12, stops)
    assert [row[row > 0].tolist() for row in levels] == loop
    assert end_states(kernel_world) == end_states(loop_world)
    assert max(map(max, loop[3:5])) <= 2  # the saturated host clamps


@pytest.mark.parametrize("hosts", [[], [(ContentionResource(), [])]])
def test_empty_window(hosts):
    levels = observe_window(hosts, 10)
    assert levels.shape == (0, 10)


def test_window_checks_apply_across_hosts():
    first, second = ContentionResource(), ContentionResource()
    first.start_pressure("a")
    second.start_pressure("a")
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="distinct"):
        observe_window([(first, [("a", rng)]), (second, [("a", rng)])], 3)
    with pytest.raises(ValueError, match="ghost"):
        observe_window([(first, [("a", rng)]), (second, [("ghost", rng)])], 3)
    with pytest.raises(ValueError, match="stop_rounds"):
        observe_window([(first, [("a", rng)])], 3, stop_rounds=[None, 1])
    with pytest.raises(ValueError, match="stop_rounds"):
        observe_window([(first, [("a", rng)])], 3, stop_rounds=[-2])
    with pytest.raises(ValueError, match="n_rounds"):
        observe_window([(first, [("a", rng)])], -1)
