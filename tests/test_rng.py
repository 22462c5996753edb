import pytest

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
    assert a == b
    assert sorted(a) == list(range(50))


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
