import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amr.rng import (
    MASK64,
    Stream,
    fold,
    fold_array,
    fold_matrix,
    mix64,
    mix64_array,
    substream,
    u01,
    u01_array,
)

GAMMA = 0x9E3779B97F4A7C15


def test_mix64_matches_splitmix64_reference():
    # First three outputs of SplittableRandom/splitmix64 with seed 0:
    # finalizer applied to (i+1)*GAMMA.
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    got = [mix64(((i + 1) * GAMMA) & MASK64) for i in range(3)]
    assert got == expected


@given(st.integers(min_value=0, max_value=MASK64))
def test_vectorized_mix_matches_scalar(x):
    arr = np.array([x], dtype=np.uint64)
    assert int(mix64_array(arr)[0]) == mix64(x)


@given(
    st.integers(min_value=0, max_value=MASK64),
    st.lists(st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=20),
)
def test_fold_array_matches_scalar_fold(key, parts):
    arr = np.array(parts, dtype=np.uint64)
    vec = fold_array(key, arr)
    for p, v in zip(parts, vec):
        assert fold(key, p) == int(v)


def test_fold_matrix_rows_match_fold_array():
    parts = np.arange(100, dtype=np.uint64)
    keys = [0, 1, 12345, MASK64]
    m = fold_matrix(keys, parts)
    for i, k in enumerate(keys):
        assert np.array_equal(m[i], fold_array(k, parts))


def test_fold_is_order_sensitive():
    assert fold(1, 2, 3) != fold(1, 3, 2)
    assert fold(0, 5) != fold(5, 0)


@given(st.integers(min_value=0, max_value=MASK64))
def test_u01_range(bits):
    v = u01(bits)
    assert 0.0 <= v < 1.0


def test_u01_array_matches_scalar():
    bits = np.array([0, 1, MASK64, 2**53, 999999937], dtype=np.uint64)
    vec = u01_array(bits)
    for b, v in zip(bits, vec):
        assert u01(int(b)) == v


def test_u01_mean_is_centered():
    bits = fold_array(42, np.arange(100_000, dtype=np.uint64))
    assert abs(float(u01_array(bits).mean()) - 0.5) < 0.01


def test_substream_keys_are_distinct():
    seeds = {substream(7, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert substream(7, 0) != substream(8, 0)


class TestStream:
    def test_replays_exactly(self):
        a = [Stream(99).u01() for _ in range(1)]
        s1, s2 = Stream(99), Stream(99)
        assert [s1.u01() for _ in range(50)] == [s2.u01() for _ in range(50)]
        assert a[0] == Stream(99).u01()

    def test_different_keys_differ(self):
        assert Stream(1).u01() != Stream(2).u01()

    def test_integer_bounds(self):
        s = Stream(5)
        draws = [s.integer(13) for _ in range(2000)]
        assert min(draws) == 0 and max(draws) == 12

    def test_uniform_bounds(self):
        s = Stream(6)
        for _ in range(1000):
            assert -2.0 <= s.uniform(-2.0, 3.0) < 3.0

    def test_gauss_moments(self):
        s = Stream(7)
        draws = np.array([s.gauss() for _ in range(20_000)])
        assert abs(draws.mean()) < 0.03
        assert abs(draws.std() - 1.0) < 0.03

    def test_gauss_scaling(self):
        a = Stream(8)
        b = Stream(8)
        assert b.gauss(1.0, 2.0) == pytest.approx(1.0 + 2.0 * a.gauss(), rel=1e-12)


def test_vector_functions_leave_inputs_untouched():
    parts = np.arange(50, dtype=np.uint64)
    bits = fold_array(3, parts)
    before_parts, before_bits = parts.copy(), bits.copy()
    mix64_array(parts)
    fold_array(5, parts)
    fold_matrix([1, 2], parts)
    u01_array(bits)
    assert np.array_equal(parts, before_parts)
    assert np.array_equal(bits, before_bits)
