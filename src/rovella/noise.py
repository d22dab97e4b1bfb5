"""Seeded model of the noise space: i.i.d. uniform draws on [-eps, eps] indexed over all of Z.

Values are counter-based: draw(i) is a pure hash of (master_seed, i), so
negative indices (needed by backward correlations and the pullback of
equivariant densities) cost the same as positive ones, and draws are
independent of access order. An ensemble can therefore draw its noise one
step at a time (`keyed_draws` on the orbits' keys) and split its orbits into
chunks on worker threads without sharing generator state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM_SALT = 0x6A09E667F3BCC909
_DERIVE_SALT = 0xBB67AE8584CAA73B


def _splitmix64(z: int) -> int:
    z = (z + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _splitmix64_np(z: np.ndarray) -> np.ndarray:
    # The first add makes the one fresh array; every later step is in place.
    z = z + np.uint64(_GAMMA)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def derive_seed(master_seed: int, *indices: int) -> int:
    """Deterministic per-orbit (or per-task) seed from a master seed.

    Ensemble results stay independent of worker count because every orbit's
    stream depends only on (master_seed, orbit_index).
    """
    h = _splitmix64((master_seed & _MASK) ^ _DERIVE_SALT)
    for ix in indices:
        h = _splitmix64(h ^ (ix & _MASK))
    return h


def _to_unit(h: int) -> float:
    # [0, 1) with 53-bit resolution.
    return (h >> 11) * (1.0 / 9007199254740992.0)


@dataclass(frozen=True)
class NoiseStream:
    """Lazily indexable two-sided sequence of uniform draws on [-eps, eps].

    Immutable and cheap to share: `get` is a pure function of
    (master_seed, origin_offset + i), by two mixing rounds: `key`, the
    seed's, is computed once per stream; each draw mixes it with its index.
    """

    master_seed: int
    eps: float
    origin_offset: int = 0
    key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.eps >= 0:
            raise ValueError("eps must be nonnegative")
        object.__setattr__(self, "key", _splitmix64((self.master_seed & _MASK) ^ _STREAM_SALT))

    def get(self, i: int) -> float:
        h = _splitmix64(self.key ^ ((i + self.origin_offset) & _MASK))
        return self.eps * (2.0 * _to_unit(h) - 1.0)

    def values(self, start: int, count: int) -> np.ndarray:
        """Draws at indices start, ..., start+count-1 (vectorized)."""
        idx = np.arange(start, start + count) + self.origin_offset
        return keyed_draws(np.uint64(self.key), self.eps, idx)


def stream(master_seed: int, eps: float) -> NoiseStream:
    """Build a two-sided noise stream with uniform marginals on [-eps, eps]."""
    return NoiseStream(master_seed=int(master_seed), eps=float(eps))


def shift(s: NoiseStream, k: int) -> NoiseStream:
    """Shifted view: shift(s, k).get(i) == s.get(i + k)."""
    return NoiseStream(master_seed=s.master_seed, eps=s.eps, origin_offset=s.origin_offset + k)


def ensemble_keys(master_seed: int, n_samples: int, sample_offset: int = 0) -> np.ndarray:
    """Stream keys of orbits sample_offset..sample_offset+n_samples-1.

    Key i is the `NoiseStream.key` of the stream seeded by
    derive_seed(master_seed, sample_offset + i), so `keyed_draws` of key i
    at index k reproduces that stream's get(k).
    """
    ids = np.arange(sample_offset, sample_offset + n_samples, dtype=np.int64).view(np.uint64)
    ids ^= np.uint64(_splitmix64((master_seed & _MASK) ^ _DERIVE_SALT))
    seeds = _splitmix64_np(ids)
    seeds ^= np.uint64(_STREAM_SALT)
    return _splitmix64_np(seeds)


def keyed_draws(keys: np.ndarray, eps: float, index) -> np.ndarray:
    """Draws on [-eps, eps] of the streams with these keys at noise index
    `index`: an integer, or an integer array broadcast against keys."""
    idx = np.asarray(index, dtype=np.int64).view(np.uint64)  # two's complement, as `& _MASK`
    h = _splitmix64_np(keys ^ idx)  # the index round of `NoiseStream.get`
    h >>= np.uint64(11)
    # eps (2 unit - 1) with unit = h 2^-53, as `get` computes it; scaling
    # by 2 and 2^-53 is exact, so it is one multiplication by 2^-52.
    draws = h.astype(np.float64)
    draws *= 1.0 / 4503599627370496.0
    draws -= 1.0
    draws *= eps
    return draws


def ensemble_noise(
    master_seed: int,
    eps: float,
    n_samples: int,
    n_steps: int,
    start: int = 0,
    sample_offset: int = 0,
) -> np.ndarray:
    """Matrix of draws, row i = orbit (sample_offset + i)'s noise at indices
    start..start+n_steps-1.

    Row i reproduces NoiseStream(derive_seed(master_seed, sample_offset + i),
    eps) exactly, so chunked ensembles agree with whole ones row for row.
    """
    keys = ensemble_keys(master_seed, n_samples, sample_offset)
    return keyed_draws(keys[:, None], eps, np.arange(start, start + n_steps))
