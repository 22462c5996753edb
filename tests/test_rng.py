import numpy as np
import pytest

from litterscan import rng
from litterscan.rng import SplitMix64

# Published SplitMix64 reference outputs.
SEED0_FIRST3 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
SEED1_FIRST3 = [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E]


def test_reference_vector_seed0():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == SEED0_FIRST3


def test_reference_vector_seed1():
    g = SplitMix64(1)
    assert [g.next_u64() for _ in range(3)] == SEED1_FIRST3


def test_float_range():
    g = SplitMix64(42)
    for _ in range(1000):
        assert 0.0 <= g.next_float() < 1.0


def test_next_below_bounds_and_coverage():
    g = SplitMix64(7)
    seen = {g.next_below(5) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}
    with pytest.raises(ValueError):
        g.next_below(0)


def test_shuffle_deterministic_and_permutation():
    a = SplitMix64(3).permutation(50)
    b = SplitMix64(3).permutation(50)
    assert a.dtype == np.int64
    assert a.tolist() == b.tolist()
    assert sorted(a.tolist()) == list(range(50))


def test_normal_moments():
    g = SplitMix64(123)
    xs = [g.normal() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05


def test_seed_validation():
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(1 << 64)


# The bulk draws against the per-draw methods, which are the oracle: the same
# values, bit for bit, and the same number of draws consumed.
MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
SEEDS = [0, 1, 3, MASK]
SIZES = [0, 1, 2, rng._CHUNK - 1, rng._CHUNK, rng._CHUNK + 1, 100_001]


def unmix(z: int) -> int:
    """The state whose draw is `z`: SplitMix64's output mix inverted."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x
    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK
    return unshift(z, 30)


def seed_drawing(value: int, k: int) -> int:
    """A seed whose draw number k (from 1) is `value`."""
    seed = (unmix(value) - k * GAMMA) & MASK
    g = SplitMix64(seed)
    assert [g.next_u64() for _ in range(k)][-1] == value
    return seed


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_normals_match_the_scalar_draws(seed, n):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    values = bulk.normals(n)
    assert values.dtype == np.float64
    assert values.tobytes() == np.array([scalar.normal() for _ in range(n)]).tobytes()
    assert bulk._state == scalar._state


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_uniforms_match_the_scalar_draws(seed, n):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    values = bulk.uniforms(-0.7, 0.3, n)
    assert values.tobytes() == np.array([scalar.uniform(-0.7, 0.3) for _ in range(n)]).tobytes()
    assert bulk._state == scalar._state


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_permutation_matches_the_scalar_shuffle(seed, n):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    items = list(range(n))
    scalar.shuffle(items)
    perm = bulk.permutation(n)
    assert perm.dtype == np.int64
    assert perm.tolist() == items
    assert bulk._state == scalar._state


# step i of a permutation of n is draw n - i; at i = 2, next_below(3)
# rejects 2^64 - 1 and draws again
@pytest.mark.parametrize("n", [3, 10, rng._CHUNK + 2, rng._CHUNK + 10, 2 * rng._CHUNK + 2])
def test_permutation_hands_a_rejected_draw_to_the_scalar_step(n):
    seed = seed_drawing(MASK, n - 2)
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    items = list(range(n))
    scalar.shuffle(items)
    assert bulk.permutation(n).tolist() == items
    # n - 1 steps and the rejected draw
    assert bulk._state == scalar._state == (seed + n * GAMMA) & MASK


# normal i (from 0) takes u1 from draw 2i + 1; a draw of 0 gives u1 == 0,
# and Box-Muller draws u1 again
@pytest.mark.parametrize("i, n", [(0, 1), (0, 5), (4, 5), (rng._CHUNK - 1, rng._CHUNK + 3),
                                  (rng._CHUNK, rng._CHUNK + 3), (rng._CHUNK + 2, rng._CHUNK + 3)])
def test_normals_hand_a_zero_u1_to_the_scalar_step(i, n):
    seed = seed_drawing(0, 2 * i + 1)
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    values = bulk.normals(n)
    assert values.tobytes() == np.array([scalar.normal() for _ in range(n)]).tobytes()
    # two draws a normal and the zero
    assert bulk._state == scalar._state == (seed + (2 * n + 1) * GAMMA) & MASK
