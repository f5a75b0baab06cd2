"""Batch construction of per-sandbox random generators.

Every sandbox owns a private ``np.random.Generator`` seeded from one draw
of the orchestrator's RNG.  ``np.random.default_rng(seed)`` builds one in
~15 µs, most of it Python-level seed coercion inside ``SeedSequence``; an
800-instance launch wave spends ~12 ms there.  :func:`sandbox_generators`
builds the same generators for a whole launch run at once:

1. Hash every seed through NumPy's ``SeedSequence`` algorithm (a fixed
   hashmix/mix sequence over the seed's two 32-bit words padded to a
   4-word pool, then ``generate_state(4, uint64)``) in one pass over the
   batch.
2. Hand each generator its precomputed words through a minimal
   :class:`~numpy.random.bit_generator.ISeedSequence`, which is exactly
   what ``PCG64`` reads at construction.

Streams and ``bit_generator.state`` are bit-identical to
``default_rng(seed)``, and generators pickle and resume identically.

The batch pass keeps each pool word of all n seeds in one Python integer
holding n 64-bit lanes, one uint32 per lane.  A uint32 times a 32-bit
constant fits its lane, so one big-integer operation, masked back to 32
bits per lane, is one lane-wise uint32 operation.  That keeps the fixed
cost of a call near plain integer arithmetic, which matters because
background tenants launch 1–3 instances at a time.  On a 2-vCPU Xeon VM a
one-seed call costs ~20 µs (``default_rng``: 10–17 µs), where the same
hash as NumPy uint32 array ops costs ~110 µs at ~2 µs per ufunc call; an
800-seed call costs ~0.4 ms for the hash plus ~1.5 µs per generator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

_M32 = 0xFFFFFFFF
_XSHIFT = 16
_POOL_SIZE = 4
_MIX_MULT_L = 0xCA01F9DD
#: ``-MIX_MULT_R`` mod 2**32: ``L*x - R*y`` as a lane-safe sum.
_MIX_MULT_NEG_R = -0x4973F715 & _M32


def _hash_constants(init: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """The data-independent ``(xor, multiplier)`` pairs of ``count`` hash steps."""
    steps = []
    value = init
    for _ in range(count):
        following = value * mult & _M32
        steps.append((value, following))
        value = following
    return tuple(steps)


#: 4 pool fills plus 12 cross-mixes (``SeedSequence.mix_entropy``).
_HASHMIX = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
#: 8 uint32 output words (``generate_state(4, np.uint64)``).
_GENERATE = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)
#: ``(src, dst)`` order of the cross-mixing pass.
_MIX_ORDER = tuple(
    (src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE) if src != dst
)
_LANE_ONE = (1).to_bytes(8, "little")


def pcg64_seed_states(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed.

    ``seeds`` holds integers in ``[0, 2**64)``.  Returns a C-contiguous
    ``(n, 4)`` uint64 array, one row per seed.
    """
    n = len(seeds)
    ones = int.from_bytes(_LANE_ONE * n, "little")
    mask = ones * _M32
    low = ones * (_M32 >> _XSHIFT)

    def hashmix(value: int, step: tuple[int, int]) -> int:
        xor, mult = step
        value = (value ^ ones * xor) * mult & mask
        return value ^ value >> _XSHIFT & low

    packed = int.from_bytes(np.asarray(seeds, dtype="<u8").tobytes(), "little")
    entropy = (packed & mask, packed >> 32 & mask, 0, 0)
    pool = [hashmix(word, step) for word, step in zip(entropy, _HASHMIX)]
    for (src, dst), (xor, mult) in zip(_MIX_ORDER, _HASHMIX[_POOL_SIZE:]):
        # hashmix inlined: this loop is most of the fixed per-call cost.
        hashed = (pool[src] ^ ones * xor) * mult & mask
        hashed ^= hashed >> _XSHIFT & low
        mixed = (
            (pool[dst] * _MIX_MULT_L & mask) + (hashed * _MIX_MULT_NEG_R & mask)
        ) & mask
        pool[dst] = mixed ^ mixed >> _XSHIFT & low
    words = [
        hashmix(pool[i % _POOL_SIZE], step) for i, step in enumerate(_GENERATE)
    ]
    # uint64 word j of a state is uint32 words (2j, 2j + 1), low first.
    data = b"".join(
        (words[j] | words[j + 1] << 32).to_bytes(8 * n, "little")
        for j in range(0, len(words), 2)
    )
    columns = np.frombuffer(data, dtype="<u8").reshape(_POOL_SIZE, n)
    return np.ascontiguousarray(columns.T, dtype=np.uint64)


class HashedSeedSequence(ISeedSequence):
    """A seed whose ``PCG64`` state words were computed in a batch.

    ``generate_state(4, np.uint64)`` — the one call ``PCG64`` makes —
    returns the precomputed words; any other request is answered by a
    real :class:`~numpy.random.SeedSequence` over the same entropy.
    """

    __slots__ = ("entropy", "_state")

    def __init__(self, entropy: int, state: np.ndarray | None = None) -> None:
        self.entropy = entropy
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (
            self._state is not None
            and n_words == _POOL_SIZE
            and np.dtype(dtype) == np.uint64
        ):
            return self._state
        return SeedSequence(self.entropy).generate_state(n_words, dtype)

    def __reduce__(self):
        # A pickled generator restores its bit generator's state, never
        # reseeds it, so the precomputed words stay behind: world snapshots
        # pickle thousands of sandbox generators.
        return (HashedSeedSequence, (self.entropy,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashedSeedSequence(entropy={self.entropy})"


def sandbox_generators(seeds: Sequence[int] | np.ndarray) -> list[Generator]:
    """``[np.random.default_rng(s) for s in seeds]``, built as one batch."""
    states = pcg64_seed_states(seeds)
    return [
        Generator(PCG64(HashedSeedSequence(seed, state)))
        for seed, state in zip(np.asarray(seeds).tolist(), states)
    ]
