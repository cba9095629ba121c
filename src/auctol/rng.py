"""Deterministic 64-bit PRNG used by all instance generators.

The generator is SplitMix64 (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014): a 64-bit counter advanced by
the constant 0x9E3779B97F4A7C15 and finalized with two xor-shift-multiply
rounds. It is trivial to reimplement bit-for-bit in any language, which keeps
generated golden files reproducible outside this package. Streams are
splittable: ``split()`` derives an independent child stream, so each
generator stage (positions, lengths, weights, ...) owns its own stream and
adding a stage never perturbs the others.

Draws come one at a time or in batches. The k-th output of a stream is the
finalizer of its k-th counter value, so a batch computes its counter values
at once and finalizes them in one pass. A batch returns what the same single
calls made in turn would return, and leaves the stream where they would:
``u64s(k)`` is k ``next_u64()`` calls, ``randranges(bounds)`` is
``[randrange(n) for n in bounds]``, and ``shuffle`` makes its draws as one
``randranges`` call. So a generator may take a stage's draws in one batch
without changing a byte of its output. A batch of one or two draws costs
more than single calls; ``sample_indices``, which serves a few draws at a
time, makes single calls.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    """The output for the counter value ``z``."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _finalize(self._state)

    def u64s(self, k: int) -> list[int]:
        """The next ``k`` outputs, as ``k`` calls of :meth:`next_u64` give them."""
        s = self._state
        self._state = (s + k * _GAMMA) & _MASK
        return list(map(_finalize, [(s + i * _GAMMA) & _MASK for i in range(1, k + 1)]))

    def split(self) -> "SplitMix64":
        """Derive an independent child stream."""
        return SplitMix64(self.next_u64())

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection sampling, no modulo bias; above
        2**64, one output gives the low 64 bits and a draw below ceil(n / 2**64) the rest."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        while n > _MASK + 1:
            x = self.next_u64() | self.randrange(-(-n >> 64)) << 64
            if x < n:
                return x
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def randranges(self, bounds) -> list[int]:
        """One :meth:`randrange` draw below each of ``bounds`` (a sequence),
        in order, from one batch of outputs."""
        if not bounds:
            return []
        if min(bounds) <= 0:
            raise ValueError("randrange needs n >= 1")
        start = self._state
        xs = self.u64s(len(bounds))
        # randrange redraws x only from 2**64 - (2**64 % n) up, and 2**64 % n < n;
        # a bound above 2**64 makes the test fail and takes the single draws
        if max(xs) < (_MASK + 1) - max(bounds):
            return [x % n for x, n in zip(xs, bounds)]
        self._state = start
        return [self.randrange(n) for n in bounds]

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b], inclusive."""
        if b < a:
            raise ValueError("empty range")
        return a + self.randrange(b - a + 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        n = len(items)
        for i, j in zip(range(n - 1, 0, -1), self.randranges(range(n, 1, -1))):
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
