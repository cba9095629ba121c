"""SplitMix64: a batch of draws gives exactly what the same single draws
give, in the same order, and leaves the stream in the same state."""

import pytest

from auctol.rng import SplitMix64

SEEDS = [0, 1, 7, 2**63, 2**64 - 1, -5]
# bounds of 2**63 + 1 and up reject about half of all 64-bit outputs, so a
# batch of them takes the path that redraws
BOUNDS = [1, 2, 3, 4, 1000, 2**32 + 15, 2**63 - 25, 2**63 + 1, 3 * 2**62, 2**64 - 3, 2**64]


def _same_state(a: SplitMix64, b: SplitMix64) -> None:
    assert a._state == b._state
    assert a.next_u64() == b.next_u64()


@pytest.mark.parametrize("seed", SEEDS)
def test_u64s_equal_single_draws(seed):
    for k in (0, 1, 2, 50):
        single, batch = SplitMix64(seed), SplitMix64(seed)
        assert batch.u64s(k) == [single.next_u64() for _ in range(k)]
        _same_state(single, batch)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_randranges_equal_single_draws(seed, bound):
    for k in (0, 1, 2, 40):
        single, batch = SplitMix64(seed), SplitMix64(seed)
        assert batch.randranges([bound] * k) == [single.randrange(bound) for _ in range(k)]
        _same_state(single, batch)


@pytest.mark.parametrize("seed", SEEDS)
def test_randranges_with_mixed_bounds(seed):
    bounds = BOUNDS * 5 + list(range(1, 30))
    single, batch = SplitMix64(seed), SplitMix64(seed)
    assert batch.randranges(bounds) == [single.randrange(n) for n in bounds]
    _same_state(single, batch)


def test_bounds_near_the_top_redraw():
    """Near 2**63 + 1 about half the outputs are redrawn: a batch of 40
    consumes more than 40 outputs, exactly as many as the single draws."""
    single, batch = SplitMix64(3), SplitMix64(3)
    values = batch.randranges([2**63 + 1] * 40)
    assert values == [single.randrange(2**63 + 1) for _ in range(40)]
    consumed = SplitMix64(3)
    outputs = []
    while consumed._state != batch._state:
        outputs.append(consumed.next_u64())
    assert len(outputs) > 50
    assert sum(x >= 2**63 + 1 for x in outputs) == len(outputs) - 40


def test_nonpositive_bounds_are_refused():
    for bounds in ([0], [3, 0], [-1, 5]):
        with pytest.raises(ValueError, match="n >= 1"):
            SplitMix64(1).randranges(bounds)


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffle_and_sample_indices_match_single_draw_loops(seed):
    for n in (0, 1, 2, 5, 100):
        items, ref, rng = list(range(n)), list(range(n)), SplitMix64(seed)
        SplitMix64(seed).shuffle(items)
        for i in range(n - 1, 0, -1):  # Fisher-Yates, one randrange per element
            j = rng.randrange(i + 1)
            ref[i], ref[j] = ref[j], ref[i]
        assert items == ref
        for k in range(min(n, 4) + 1):
            drawn = SplitMix64(seed).sample_indices(n, k)
            assert len(set(drawn)) == k and all(0 <= i < n for i in drawn)


class CountedDraws(SplitMix64):
    """A stream that fails once it has made more outputs than ``limit``, so
    that a draw which keeps redrawing fails at once rather than hangs."""

    __slots__ = ("outputs", "limit")

    def __init__(self, seed: int, limit: int):
        super().__init__(seed)
        self.outputs, self.limit = 0, limit

    def next_u64(self) -> int:
        self.outputs += 1
        assert self.outputs <= self.limit, "randrange keeps redrawing"
        return super().next_u64()


def _one_output_draw(rng: SplitMix64, n: int) -> int:
    """The draw below n <= 2**64: outputs from the largest multiple of n up are redrawn."""
    while (x := rng.next_u64()) >= 2**64 // n * n:
        pass
    return x % n


@pytest.mark.parametrize("bound", [2**64 + 1, 10**23, 3 * 2**64, 2**65 - 1, 2**128])
@pytest.mark.parametrize("seed", SEEDS)
def test_bounds_above_2_64_draw_the_low_and_high_bits_apart(seed, bound):
    """One output gives the low 64 bits and a draw below ceil(bound / 2**64)
    the rest; a value at or above the bound is drawn again."""
    rng, ref = CountedDraws(seed, 200), SplitMix64(seed)
    for _ in range(20):
        while (y := ref.next_u64() | _one_output_draw(ref, -(-bound >> 64)) << 64) >= bound:
            pass
        assert rng.randrange(bound) == y
    assert rng._state == ref._state
    assert rng.randranges([bound, 5]) == [ref.randrange(bound), ref.randrange(5)]


@pytest.mark.parametrize("bound", [2**128 + 1, 3**200, 10**1000])
def test_bounds_far_above_2_64_stay_in_range(bound):
    rng = CountedDraws(7, 20 * 4 * (bound.bit_length() // 64 + 1))
    values = [rng.randrange(bound) for _ in range(20)]
    assert all(0 <= x < bound for x in values) and len(set(values)) == 20
    assert max(values) >= bound // 4  # the high words are drawn, not left at 0


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_bounds_up_to_2_64_take_one_output_per_draw(seed, bound):
    rng, ref = CountedDraws(seed, 200), SplitMix64(seed)
    for _ in range(40):
        assert rng.randrange(bound) == _one_output_draw(ref, bound)
    assert rng._state == ref._state
