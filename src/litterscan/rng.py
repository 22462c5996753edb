"""Deterministic 64-bit generator (SplitMix64) used for every random choice
in the toolkit, so splits, balancing and weight init are bit-reproducible
across runs and across reimplementations.

Reference vectors (first three outputs):
  seed 0 -> 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
  seed 1 -> 0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        if seed < 0 or seed > _MASK:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, descending index."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        items = list(range(n))
        self.shuffle(items)
        return items

    def normal(self) -> float:
        """Standard normal via Box-Muller (first variate; second discarded
        to keep the stream layout simple)."""
        import math
        u1 = self.next_float()
        while u1 == 0.0:
            u1 = self.next_float()
        u2 = self.next_float()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
