"""Seedable, portable pseudo-random number generation.

Workload generation uses SplitMix64 (Steele, Lea & Flood's 64-bit
mixer).  The algorithm is a handful of integer operations, so any
implementation in any language reproduces the same stream from the same
seed; output files record the generator name for provenance.

Output k of a stream is the mixer applied to ``seed + (k + 1) * golden``
alone, so ``next_u64s`` computes a block of outputs side by side: lane
k sits in the low 64 bits of its own 128-bit field of one Python
integer, and each mixer step is one whole-integer shift, xor or
multiply (Lamport's 1975 packing, as in ``wdp.WdpInstance._layout``).
Every lane is masked to its low 64 bits before each multiply, so a
64 x 64-bit product stays inside its field.  The bulk calls return exactly what the
same number of scalar calls would, and leave the same state.
"""

from __future__ import annotations

import sys
from array import array

GENERATOR_NAME = "splitmix64"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

BLOCK_LANES = 4096  # outputs computed side by side in one packed integer
_FIELD = 128  # bits per lane: a 64-bit value and room for its 64 x 64-bit product


def _lanes(values) -> int:
    """One packed integer holding ``values[k]`` (each below 2**64) in lane k."""
    words = array("Q", bytes(_FIELD // 8 * len(values)))
    words[::2] = array("Q", values)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


_ONES = _lanes([1] * BLOCK_LANES)
_LANE_MASKS = _MASK * _ONES  # the low 64 bits of every lane
_STEPS = _GOLDEN * _lanes(range(1, BLOCK_LANES + 1))  # (k + 1) * golden in lane k


def _mix_lanes(state: int, lanes: int) -> list[int]:
    """Outputs 1..lanes of the stream whose state is ``state``."""
    width = _FIELD * lanes
    low = (1 << width) - 1
    mask = _LANE_MASKS & low
    z = (state * (_ONES & low) + (_STEPS & low)) & mask
    z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
    z ^= z >> 31  # leaves the high half of each field dirty; only the low half is read
    words = array("Q", z.to_bytes(width // 8, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2].tolist()


class SplitMix64:
    """SplitMix64 stream. State advances by the 64-bit golden ratio."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_u64s(self, count: int) -> list[int]:
        """The next ``count`` outputs, as ``count`` calls of ``next_u64`` would give."""
        out: list[int] = []
        while count > 0:
            lanes = min(count, BLOCK_LANES)
            out += _mix_lanes(self._state, lanes)
            self._state = (self._state + lanes * _GOLDEN) & _MASK
            count -= lanes
        return out

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] via modulo reduction.

        The tiny modulo bias is irrelevant at simulation scales and the
        reduction is trivially portable, which is what matters here.
        """
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def randints(self, lo: int, hi: int, count: int) -> list[int]:
        """The next ``count`` values of ``randint(lo, hi)``."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return [lo + x % span for x in self.next_u64s(count)]
