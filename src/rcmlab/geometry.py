"""Convex observation windows (boxes and balls) in R^d, and
squared_lengths, rcmlab's one rule for a Euclidean length."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma


def squared_lengths(diffs) -> np.ndarray:
    """Squared Euclidean lengths from coordinate differences, one array
    per coordinate, the squares summed in coordinate order. Every
    distance in rcmlab is the square root of this, and every test of a
    length against a radius compares it with the radius squared, so no
    last bit depends on the module computing it: the kd-tree of
    sampling only proposes pairs, and this rule decides them."""
    diffs = iter(diffs)
    first = next(diffs)
    sq = first * first
    for d in diffs:
        sq += d * d
    return sq


def unit_ball_volume(d: int) -> float:
    """Volume kappa_d of the d-dimensional unit ball."""
    return float(np.pi ** (d / 2) / _gamma(d / 2 + 1))


@dataclass(frozen=True)
class Window:
    """A box (half-side `extent`) or ball (radius `extent`) centred at `center`.

    For both shapes the inradius equals `extent`. The centre is held as a
    tuple of floats and the extent as a float, so windows compare and
    hash by value, and a volume beyond any float raises OverflowError.
    """

    shape: str
    extent: float
    dim: int
    center: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "extent", float(self.extent))
        if self.shape not in ("box", "ball"):
            raise ValueError(f"unknown window shape {self.shape!r}")
        if not 0 <= self.extent < math.inf:
            raise ValueError("extent must be nonnegative and finite")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        c = self.center
        if c is None:
            c = np.zeros(self.dim)
        c = np.asarray(c, dtype=float)
        if c.shape != (self.dim,):
            raise ValueError("center has wrong dimension")
        if not np.all(np.isfinite(c)):
            raise ValueError("center must be finite")
        object.__setattr__(self, "center", tuple(c.tolist()))

    @property
    def volume(self) -> float:
        if self.shape == "box":
            return (2.0 * self.extent) ** self.dim
        return unit_ball_volume(self.dim) * self.extent ** self.dim

    def pad(self, padding: float) -> "Window":
        """The window grown by `padding` (box: per side, ball: radius)."""
        if not padding >= 0:
            raise ValueError("padding must be nonnegative")
        return Window(self.shape, self.extent + padding, self.dim, self.center)

    def _delta(self, points) -> np.ndarray:
        """Offsets from the centre, as rows (one row for a single point)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[-1] != self.dim:
            raise ValueError("points have wrong dimension")
        return pts - self.center

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean membership for an (n, d) array of points."""
        delta = self._delta(points)
        if self.shape == "box":
            return (np.abs(delta) <= self.extent).all(axis=-1)
        return squared_lengths(np.moveaxis(delta, -1, 0)) <= self.extent ** 2

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point to the boundary (negative if outside)."""
        delta = self._delta(points)
        if self.shape == "box":
            return self.extent - np.abs(delta).max(axis=-1)
        return self.extent - np.sqrt(
            squared_lengths(np.moveaxis(delta, -1, 0)))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.subtract(self.center, self.extent)
        hi = np.add(self.center, self.extent)
        return lo, hi

    def sample_uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. uniform points in the window (rejection for balls).

        A draw is lo + (hi - lo) * rng.random(): the numbers of
        rng.uniform(lo, hi), without its argument checks on every call.
        """
        lo, hi = self.bounding_box()
        span = hi - lo
        if self.shape == "box":
            return lo + span * rng.random((n, self.dim))
        out = np.empty((n, self.dim))
        have = 0
        while have < n:
            cand = lo + span * rng.random((max(2 * (n - have), 16), self.dim))
            keep = cand[self.contains(cand)]
            take = min(n - have, len(keep))
            out[have:have + take] = keep[:take]
            have += take
        return out


def lex_order(points: np.ndarray) -> np.ndarray:
    """Indices sorting points by lexicographic order (first coordinate
    primary), ties kept in index order as np.lexsort keeps them.

    Where the first coordinates are distinct, one argsort of them is that
    permutation; only a tie (0.0 and -0.0 tie) or a NaN takes the
    lexsort.
    """
    pts = np.asarray(points)
    first = pts[:, 0]
    order = np.argsort(first)
    ranked = first[order]
    if (ranked[1:] > ranked[:-1]).all():
        return order
    keys = tuple(pts[:, k] for k in range(pts.shape[1] - 1, -1, -1))
    return np.lexsort(keys)
