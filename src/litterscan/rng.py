"""Deterministic 64-bit generator (SplitMix64) used for every random choice
in the toolkit, so splits, balancing and weight init are bit-reproducible
across runs and across reimplementations.

Draw k (from 1) of seed s is mix(s + k * gamma mod 2^64), so the toolkit
draws in bulk: `uniforms`, `normals` and `permutation` compute a chunk of
draws with a few uint64 array operations and give exactly the values of the
per-draw methods (`next_u64` ... `shuffle`). Those stay as the oracle and as
the step a bulk method hands over to at a draw that `next_below` rejects or
at a Box-Muller `u1 == 0`.

Reference vectors (first three outputs):
  seed 0 -> 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
  seed 1 -> 0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO_PI = 2.0 * math.pi
# draws of a bulk method's chunk: its uint64 temporaries stay a few hundred KB
_CHUNK = 1 << 15


def _unit(z: np.ndarray) -> np.ndarray:
    """`next_float` of each uint64 draw; the widening of 53 bits is exact."""
    return (z >> 11).astype(np.float64) * 2.0**-53


class SplitMix64:
    def __init__(self, seed: int):
        if seed < 0 or seed > _MASK:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
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

    def normal(self) -> float:
        """Standard normal via Box-Muller (first variate; second discarded
        to keep the stream layout simple)."""
        u1 = self.next_float()
        while u1 == 0.0:
            u1 = self.next_float()
        u2 = self.next_float()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)

    # bulk draws: the values of the methods above, a chunk at a time

    def _ahead(self, n: int) -> np.ndarray:
        """The next n draws as uint64, not yet consumed (see `_skip`)."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _GAMMA  # array arithmetic wraps mod 2^64 without a warning
        z += self._state
        z ^= z >> 30
        z *= _MIX1
        z ^= z >> 27
        z *= _MIX2
        z ^= z >> 31
        return z

    def _skip(self, n: int) -> None:
        """Consume n draws."""
        self._state = (self._state + n * _GAMMA) & _MASK

    def uniforms(self, lo: float, hi: float, n: int) -> np.ndarray:
        """The next n `uniform(lo, hi)` values, in one array: for the few
        draws of a weight init."""
        u = _unit(self._ahead(n))
        self._skip(n)
        return lo + (hi - lo) * u

    def normals(self, n: int) -> np.ndarray:
        """The next n `normal()` values, float64. log and cos are Python's
        `math` functions, as in `normal`, so every value is bit-identical."""
        out = np.empty(n)
        done = 0
        while done < n:
            m = min(_CHUNK, n - done)
            u = _unit(self._ahead(2 * m))
            u1, u2 = u[0::2], u[1::2]
            zero = np.flatnonzero(u1 == 0.0)
            if zero.size:
                m = int(zero[0])
                u1, u2 = u1[:m], u2[:m]
            self._skip(2 * m)
            log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, m)
            cos_u2 = np.fromiter(map(math.cos, (_TWO_PI * u2).tolist()), np.float64, m)
            out[done:done + m] = np.sqrt(-2.0 * log_u1) * cos_u2
            done += m
            if zero.size:
                out[done] = self.normal()
                done += 1
        return out

    def permutation(self, n: int) -> np.ndarray:
        """0 .. n-1 in the order `shuffle` leaves them, as an int64 array.
        The swaps run on Python ints through a memoryview of that array, a
        chunk of `next_below` results at a time."""
        perm = np.arange(n, dtype=np.int64)
        items = memoryview(perm)
        top = n - 1  # the next index to swap
        while top > 0:
            m = min(_CHUNK, top)
            bounds = np.arange(top + 1, top + 1 - m, -1, dtype=np.uint64)
            z = self._ahead(m)
            # next_below rejects z >= 2^64 - (2^64 mod b), that is z > ~(2^64 mod b)
            rejected = np.flatnonzero(z > ~((~bounds + 1) % bounds))
            if rejected.size:
                m = int(rejected[0])
            self._skip(m)
            for i, j in zip(range(top, top - m, -1), (z[:m] % bounds[:m]).tolist()):
                items[i], items[j] = items[j], items[i]
            top -= m
            if rejected.size:
                j = self.next_below(top + 1)
                items[top], items[j] = items[j], items[top]
                top -= 1
        return perm
