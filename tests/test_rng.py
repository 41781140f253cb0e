"""The bulk SplitMix64 draws are the scalar stream, output for output."""

import pytest

from mdcauction.rng import BLOCK_LANES, SplitMix64

SEEDS = [0, 1, 2**63, 2**64 - 1]  # the last one wraps the state on the first step
COUNTS = [0, 1, 2, BLOCK_LANES - 1, BLOCK_LANES, BLOCK_LANES + 1, 9000]


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_next_u64s_equals_scalar_calls(seed, count):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    assert bulk.next_u64s(count) == [scalar.next_u64() for _ in range(count)]
    assert bulk._state == scalar._state


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_randints_equals_scalar_calls(seed, count):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    assert bulk.randints(3, 1002, count) == [scalar.randint(3, 1002) for _ in range(count)]
    assert bulk._state == scalar._state


def test_mixed_scalar_and_bulk_calls_keep_one_stream():
    reference = SplitMix64(99)
    expected = [reference.next_u64() for _ in range(2 * BLOCK_LANES + 20)]
    rng = SplitMix64(99)
    drawn = [rng.next_u64()]
    drawn += rng.next_u64s(5)
    drawn.append(rng.next_u64())
    drawn += rng.next_u64s(BLOCK_LANES + 3)
    drawn += [rng.randint(0, 2**64 - 1) for _ in range(2)]
    drawn += rng.randints(0, 2**64 - 1, len(expected) - len(drawn))
    assert drawn == expected
    assert rng._state == reference._state


def test_single_value_range():
    bulk, scalar = SplitMix64(7), SplitMix64(7)
    assert bulk.randints(4, 4, 10) == [4] * 10
    assert [scalar.randint(4, 4) for _ in range(10)] == [4] * 10
    assert bulk._state == scalar._state


def test_empty_range_raises_like_randint():
    with pytest.raises(ValueError) as scalar:
        SplitMix64(0).randint(5, 4)
    with pytest.raises(ValueError) as bulk:
        SplitMix64(0).randints(5, 4, 3)
    assert str(bulk.value) == str(scalar.value) == "empty range [5, 4]"
