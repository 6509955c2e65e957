import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from amr.rng import (
    MASK64,
    SHIFT_FREE_PARTS,
    Stream,
    _mix64_inplace,
    fold,
    fold_array,
    fold_matrix,
    grid_keys,
    mix64,
    substream,
    u01,
    u01_array,
    u01_grid,
)

GAMMA = 0x9E3779B97F4A7C15
# Parts on both sides of the first xorshift's reach (2**30), with high bits set.
EDGE_PARTS = [2**30 - 1, 2**30, 2**31 + 5, 2**63, MASK64]


def _unmix64(y: int) -> int:
    """The x with mix64(x) == y: undo each xorshift and multiply in reverse."""
    def unshift(v, s):
        x = v
        for _ in range(64 // s + 1):
            x = v ^ (x >> s)
        return x
    y = unshift(y, 31)
    y = (y * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    y = unshift(y, 27)
    y = (y * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return unshift(y, 30)


def test_mix64_matches_splitmix64_reference():
    # First three outputs of SplittableRandom/splitmix64 with seed 0:
    # finalizer applied to (i+1)*GAMMA.
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    got = [mix64(((i + 1) * GAMMA) & MASK64) for i in range(3)]
    assert got == expected


@given(st.integers(min_value=0, max_value=MASK64))
def test_vectorized_mix_matches_scalar(x):
    arr = np.array([x], dtype=np.uint64)
    assert int(_mix64_inplace(arr)[0]) == mix64(x)


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
    fold_array(5, parts)
    fold_matrix([1, 2], parts)
    u01_array(bits)
    assert np.array_equal(parts, before_parts)
    assert np.array_equal(bits, before_bits)


def test_u01_grid_matches_scalar_fold_and_u01():
    keys = np.array([[0, MASK64, 7], [12345, 2**63, 1], [GAMMA, 3, 99]], dtype=np.uint64)  # (T, S)
    parts = np.array([0, 1, 5, MASK64, 2**40 + 3], dtype=np.uint64)
    out = np.empty((3, 5, 3))
    scratch = np.empty(out.size, dtype=np.uint64)
    keys_before = keys.copy()
    assert u01_grid(grid_keys(keys), parts ^ (parts >> np.uint64(30)), out, scratch) is out
    for t in range(3):
        for p in range(5):
            for s in range(3):
                assert out[t, p, s] == u01(fold(int(keys[t, s]), int(parts[p])))
    assert np.array_equal(keys, keys_before)


@given(
    st.integers(min_value=1, max_value=3).flatmap(lambda n_keys: st.lists(
        st.lists(st.integers(min_value=0, max_value=MASK64), min_size=n_keys, max_size=n_keys),
        min_size=1, max_size=3)),
    st.lists(st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=20),
)
@example([[0, MASK64], [2**63, GAMMA]], EDGE_PARTS)
def test_u01_grid_of_folded_keys_and_parts_equals_fold(keys, parts):
    # Every (T, S) key and every part over the full uint64 range: one xor of
    # grid_keys, p ^ (p >> 30) and the mixer's last six passes give fold's bits.
    key_array, part_array = np.array(keys, dtype=np.uint64), np.array(parts, dtype=np.uint64)
    out = np.empty((len(keys), len(parts), len(keys[0])))
    u01_grid(grid_keys(key_array), part_array ^ (part_array >> np.uint64(30)), out,
             np.empty(out.size, dtype=np.uint64))
    for t, row in enumerate(keys):
        for p, part in enumerate(parts):
            for s, key in enumerate(row):
                assert out[t, p, s].hex() == u01(fold(key, part)).hex()


def test_grid_keys_and_parts_apply_the_first_xorshift():
    keys = np.array([0, 1, MASK64 - GAMMA, MASK64, 2**63], dtype=np.uint64)
    before = keys.copy()
    for key, folded in zip(keys.tolist(), grid_keys(keys).tolist()):
        z = (key + GAMMA) & MASK64
        assert folded == z ^ (z >> 30)
    assert np.array_equal(keys, before)  # a new array
    # Below SHIFT_FREE_PARTS a part p is its own grid part p ^ (p >> 30); from it on, none is.
    assert SHIFT_FREE_PARTS == 2**30
    assert [p ^ (p >> 30) == p for p in EDGE_PARTS] == [True, False, False, False, False]


@pytest.mark.parametrize("word", [
    0, 1 << 11, (2**53 - 1) << 11,  # bits >> 11 = 0, 1, 2**53 - 1
    (1 << 11) - 1, 2**63, 2**63 | (12345 << 11) | 77, MASK64,  # low bits dropped, top bit set
])
def test_u01_grid_converts_words_exactly(word):
    assert mix64(_unmix64(word)) == word
    # fold(0, part) hashes (0 + GAMMA) ^ part, so this part makes the word `word`.
    part = _unmix64(word) ^ GAMMA
    assert fold(0, part) == word
    out = np.empty((1, 1, 1))
    u01_grid(grid_keys(np.zeros((1, 1), dtype=np.uint64)), np.array([part ^ (part >> 30)], dtype=np.uint64),
             out, np.empty(1, dtype=np.uint64))
    assert out[0, 0, 0] == u01(word) == (word >> 11) * 2.0**-53


def test_u01_grid_rejects_a_strided_out():
    out = np.empty((2, 4, 1))[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        u01_grid(np.zeros((2, 1), dtype=np.uint64), np.arange(2, dtype=np.uint64), out,
                 np.empty(out.size, dtype=np.uint64))
