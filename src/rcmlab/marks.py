"""Deterministic pair marks via a counter-based hash.

Every unordered pair of point ids gets an i.i.d.-looking uniform mark in
[0, 1).  Marks are a pure function of (seed, min(id), max(id)), so they are
order independent, allocation free, reproducible under parallel evaluation,
and naturally support "fresh marks for an added point": reserved negative
ids yield marks that coexist consistently with the base configuration.
"""

from __future__ import annotations

import numpy as np

_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
_INV_2_64 = 2.0 ** -64


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays, in place.

    Products wrap modulo 2**64, silently for arrays; callers passing
    numpy scalars silence the overflow warnings.
    """
    z ^= z >> _S30
    z *= _C1
    z ^= z >> _S27
    z *= _C2
    z ^= z >> _S31
    return z


def pair_marks(keys, i, j):
    """Marks of the unordered id pairs {i, j}, each pair hashed under its
    own 64-bit key.

    keys: one uint64 key, or one per pair. Accepts scalars or
    equal-shaped integer arrays; ids may be negative (reserved for points
    inserted by difference operators).
    """
    lo = np.minimum(i, j, dtype=np.int64)
    hi = np.maximum(i, j, dtype=np.int64)
    if (lo == hi).any():
        raise ValueError("pair marks are defined for distinct ids only")
    if lo.ndim == 0:
        # one pair: hashed as an array, whose products wrap silently
        return float(pair_marks(keys, lo.reshape(1), hi.reshape(1))[0])
    h = _mix(keys ^ lo.view(np.uint64))
    h ^= hi.view(np.uint64) + _GOLDEN
    return _mix(h) * _INV_2_64


class PairMarkSource:
    """Uniform [0,1) marks for unordered id pairs, keyed by a 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        with np.errstate(over="ignore"):
            self._h0 = _mix(np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF)
                            + _GOLDEN)

    def keys(self, i, j):
        """The hash key of the pairs {i, j}: the seed's, for every pair
        (one uint64, which broadcasts)."""
        return self._h0

    @staticmethod
    def stacked_keys(sources, owner, i, j):
        """The keys of id pairs (i, j) of many sources, pair k keyed by
        sources[owner[k]], so many realizations hash in one pair_marks."""
        return np.array([s._h0 for s in sources], dtype=np.uint64)[owner]

    def mark(self, i, j):
        """Mark of the unordered pair {i, j}; see pair_marks."""
        return pair_marks(self._h0, i, j)
