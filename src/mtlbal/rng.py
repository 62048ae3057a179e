"""Deterministic 64-bit PRNG used for data generation, init, and batching.

The generator is splitmix64: output(n) = mix64(seed + (n+1) * GOLDEN), where
mix64 is the standard xor-shift/multiply finalizer. It is counter-based, so
streams vectorize cleanly with numpy uint64 arrays and any draw sequence is a
pure function of (seed, draw order). Every derived quantity in this package
(datasets, weight init, batch indices) is documented in terms of this stream
so a run is reproducible from its seed alone.

Derived values:
  - uniforms: top 53 bits of each output, scaled by 2^-53, in [0, 1)
  - normals: Box-Muller pairs; n normals take 2 * ceil(n / 2) draws, pair i
    its u1 (shifted to (0, 1]) from draw i and its u2 from draw
    ceil(n / 2) + i
  - bounded ints: output modulo n (documented bias is negligible for n << 2^64)
  - permutations: Fisher-Yates, swapping index i with a bounded draw in [0, i]

Independent sub-streams come from `derive(seed, tag)` = mix64(mix64(seed) ^ tag);
the finalizer's diffusion keeps sibling streams uncorrelated.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64

#: Box-Muller pairs computed at a time: `normal`'s temporaries are one block.
NORMAL_BLOCK = 8192


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def derive(seed: int, tag: int) -> int:
    """Derive an independent child seed from (seed, purpose tag)."""
    base = _mix64(np.array([seed], dtype=np.uint64))[0]
    return int(_mix64(np.array([base ^ _U64(tag)], dtype=np.uint64))[0])


class SplitMix64:
    """Stateful view over the splitmix64 counter stream for one seed."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._n = 0  # draws consumed

    def _raw_at(self, start: int, count: int) -> np.ndarray:
        """Raw outputs start + 1 .. start + count, without advancing."""
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        return _mix64(_U64(self.seed) + idx * _GOLDEN)

    def next_raw(self, count: int) -> np.ndarray:
        """Next `count` raw 64-bit outputs as a uint64 array."""
        raw = self._raw_at(self._n, count)
        self._n += count
        return raw

    def uniform(self, shape: int | tuple[int, ...] = ()) -> np.ndarray | float:
        """Uniforms in [0, 1) from the top 53 bits of each output."""
        shape = (shape,) if isinstance(shape, int) else shape
        n = int(np.prod(shape)) if shape else 1
        u = (self.next_raw(n) >> _U64(11)).astype(np.float64) * 2.0**-53
        return u.reshape(shape) if shape else float(u[0])

    def normal(self, shape: int | tuple[int, ...] = ()) -> np.ndarray | float:
        """Standard normals via Box-Muller: pair i gives element i the cosine
        and element ceil(n / 2) + i the sine (an odd n drops the last sine).
        Pairs are computed NORMAL_BLOCK at a time straight into the result."""
        shape = (shape,) if isinstance(shape, int) else shape
        n = int(np.prod(shape)) if shape else 1
        pairs, start = (n + 1) // 2, self._n
        self._n += 2 * pairs
        z = np.empty(2 * pairs)
        for lo in range(0, pairs, NORMAL_BLOCK):
            hi = min(lo + NORMAL_BLOCK, pairs)
            r = (self._raw_at(start + lo, hi - lo) >> _U64(11)).astype(np.float64)
            r += 1.0
            r *= 2.0**-53  # u1 in (0, 1] so log is finite
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            theta = (self._raw_at(start + pairs + lo, hi - lo) >> _U64(11)).astype(np.float64)
            theta *= 2.0**-53
            theta *= 2.0 * np.pi
            for part, fn in ((z[lo:hi], np.cos), (z[pairs + lo : pairs + hi], np.sin)):
                fn(theta, out=part)
                part *= r
        z = z[:n]
        return z.reshape(shape) if shape else float(z[0])

    def below(self, n: int, count: int | None = None) -> np.ndarray | int:
        """Integers in [0, n) via modulo reduction of raw outputs."""
        if n <= 0:
            raise ValueError(f"bound must be positive, got {n}")
        raw = self.next_raw(1 if count is None else count) % _U64(n)
        out = raw.astype(np.int64)
        return int(out[0]) if count is None else out

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n); its n-1 draws come in one call
        and stay packed in one array while the swaps run on one list."""
        bounds = np.arange(n, 1, -1, dtype=np.uint64)  # i + 1 for i = n-1 down to 1
        js = self.next_raw(bounds.size)
        js %= bounds
        del bounds
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), memoryview(js)):
            perm[i], perm[j] = perm[j], perm[i]
        del js
        return np.array(perm, dtype=np.int64)
