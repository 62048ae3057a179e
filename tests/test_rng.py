"""The generator must match the reference splitmix64 algorithm bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlbal.rng import SplitMix64, derive

_MASK = (1 << 64) - 1


def _reference_stream(seed, n):
    """Independent pure-Python splitmix64 (arbitrary-precision ints)."""
    out = []
    s = seed & _MASK
    for _ in range(n):
        s = (s + 0x9E3779B97F4A7C15) & _MASK
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append((z ^ (z >> 31)) & _MASK)
    return out


class TestRawStream:
    def test_known_vectors_seed_zero(self):
        # First outputs for seed 0, fixed by the algorithm definition.
        expected = [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]
        assert SplitMix64(0).next_raw(4).tolist() == expected

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63, _MASK])
    def test_matches_reference(self, seed):
        got = SplitMix64(seed).next_raw(64).tolist()
        assert got == _reference_stream(seed, 64)

    def test_chunking_invariant(self):
        a = SplitMix64(7)
        chunks = np.concatenate([a.next_raw(3), a.next_raw(5), a.next_raw(2)])
        assert chunks.tolist() == SplitMix64(7).next_raw(10).tolist()


class TestDerived:
    def test_uniform_range_and_determinism(self):
        u = SplitMix64(3).uniform(10_000)
        assert np.all((0.0 <= u) & (u < 1.0))
        assert np.array_equal(u, SplitMix64(3).uniform(10_000))

    def test_uniform_matches_top_53_bits(self):
        raw = _reference_stream(11, 6)
        expected = [(r >> 11) * 2.0**-53 for r in raw]
        assert SplitMix64(11).uniform(6).tolist() == expected

    def test_normal_moments(self):
        z = SplitMix64(5).normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_normal_shape_and_scalar(self):
        assert SplitMix64(1).normal((3, 4)).shape == (3, 4)
        assert isinstance(SplitMix64(1).normal(), float)

    def test_below_bounds(self):
        draws = SplitMix64(9).below(7, 1000)
        assert draws.min() >= 0 and draws.max() < 7
        with pytest.raises(ValueError):
            SplitMix64(9).below(0)

    def test_permutation(self):
        perm = SplitMix64(4).permutation(50)
        assert sorted(perm.tolist()) == list(range(50))
        assert np.array_equal(perm, SplitMix64(4).permutation(50))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, _MASK), n=st.integers(0, 3000))
    def test_permutation_matches_one_draw_fisher_yates(self, seed, n):
        # Reference: one bounded draw per swap, i = n-1 down to 1.
        ref_stream = SplitMix64(seed)
        expected = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = ref_stream.below(i + 1)
            expected[i], expected[j] = expected[j], expected[i]
        stream = SplitMix64(seed)
        got = stream.permutation(n)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert stream.next_raw(1)[0] == ref_stream.next_raw(1)[0]

    def test_derive_gives_distinct_streams(self):
        a = SplitMix64(derive(1, 0xA)).next_raw(8)
        b = SplitMix64(derive(1, 0xB)).next_raw(8)
        assert not np.array_equal(a, b)
        # And not a shifted copy of the parent stream.
        parent = SplitMix64(1).next_raw(16)
        assert a[0] not in parent.tolist()
