"""Deterministic 64-bit PRNG used by all instance generators.

The generator is SplitMix64: a 64-bit counter advanced by the constant
0x9E3779B97F4A7C15 and finalized with two xor-shift-multiply rounds. It is
trivial to reimplement bit-for-bit in any language, which keeps generated
golden files reproducible outside this package. Streams are splittable:
``split()`` derives an independent child stream, so each generator stage
(positions, lengths, weights, ...) owns its own stream and adding a stage
never perturbs the others.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def split(self) -> "SplitMix64":
        """Derive an independent child stream."""
        return SplitMix64(self.next_u64())

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection sampling, no modulo bias."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b], inclusive."""
        if b < a:
            raise ValueError("empty range")
        return a + self.randrange(b - a + 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n), in O(k) via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        repl: dict[int, int] = {}
        out = []
        for i in range(k):
            j = self.randint(i, n - 1)
            out.append(repl.get(j, j))
            repl[j] = repl.get(i, i)
        return out
