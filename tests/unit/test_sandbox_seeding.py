"""Pins the batched sandbox-seeding kernel to NumPy's own seeding.

:func:`repro.sandbox.seeding.sandbox_generators` must build generators
bit-identical to ``np.random.default_rng(seed)`` for every seed the
orchestrator can draw, so the launch path's sandbox streams never change.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sandbox.seeding import pcg64_seed_states, sandbox_generators

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


def reference_states(seeds) -> np.ndarray:
    return np.array(
        [np.random.SeedSequence(int(s)).generate_state(4, np.uint64) for s in seeds],
        dtype=np.uint64,
    ).reshape(len(seeds), 4)


def assert_same_as_default_rng(seeds) -> None:
    generators = sandbox_generators(np.asarray(seeds, dtype=np.uint64))
    assert len(generators) == len(seeds)
    for seed, generator in zip(seeds, generators):
        reference = np.random.default_rng(int(seed))
        assert generator.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(generator.random(3), reference.random(3))
        assert np.array_equal(
            generator.integers(2**63, size=2), reference.integers(2**63, size=2)
        )
        assert generator.normal() == reference.normal()


class TestSeedStates:
    def test_edge_seeds(self):
        assert np.array_equal(pcg64_seed_states(EDGE_SEEDS), reference_states(EDGE_SEEDS))

    @pytest.mark.parametrize("n", [1, 800])
    def test_batch_sizes(self, n):
        seeds = np.random.default_rng(n).integers(2**63, size=n)
        states = pcg64_seed_states(seeds)
        assert states.shape == (n, 4) and states.dtype == np.uint64
        assert states.flags.c_contiguous
        assert np.array_equal(states, reference_states(seeds))

    def test_empty_batch(self):
        assert pcg64_seed_states(np.zeros(0, dtype=np.int64)).shape == (0, 4)
        assert sandbox_generators(np.zeros(0, dtype=np.int64)) == []

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_matches_seed_sequence(self, seeds):
        assert np.array_equal(
            pcg64_seed_states(np.array(seeds, dtype=np.uint64)), reference_states(seeds)
        )


class TestGenerators:
    def test_edge_seeds(self):
        assert_same_as_default_rng(EDGE_SEEDS)

    @pytest.mark.parametrize("n", [1, 800])
    def test_orchestrator_draws(self, n):
        # The launch path's own seed draw: int64 seeds below 2**63.
        seeds = np.random.default_rng(100 + n).integers(2**63, size=n)
        assert_same_as_default_rng(seeds.tolist())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8))
    def test_matches_default_rng(self, seeds):
        assert_same_as_default_rng(seeds)

    def test_pickle_round_trip_continues_the_stream(self):
        seed = 2**62 + 12345
        generator = sandbox_generators(np.array([seed], dtype=np.int64))[0]
        reference = np.random.default_rng(seed)
        assert np.array_equal(generator.random(5), reference.random(5))
        restored = pickle.loads(pickle.dumps(generator, protocol=pickle.HIGHEST_PROTOCOL))
        assert restored.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(restored.random(5), reference.random(5))
        # The original resumes from where it was pickled, independent of
        # its restored copy.
        assert np.array_equal(
            generator.random(5), np.random.default_rng(seed).random(10)[5:]
        )
        # The restored seed travels without its precomputed words, and
        # still answers like the original.
        assert np.array_equal(
            restored.bit_generator.seed_seq.generate_state(4, np.uint64),
            np.random.SeedSequence(seed).generate_state(4, np.uint64),
        )

    def test_seed_sequence_answers_other_requests(self):
        seed = 987654321987
        bit_generator = sandbox_generators(np.array([seed]))[0].bit_generator
        assert np.array_equal(
            bit_generator.seed_seq.generate_state(8),
            np.random.SeedSequence(seed).generate_state(8),
        )
