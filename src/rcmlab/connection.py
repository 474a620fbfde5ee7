"""Connection functions for the random connection model.

A connection function is a radial map phi: R^d -> [0,1] giving the
probability that two points at a given displacement are joined by an edge.
Four kinds are built in:

    gilbert(r)              1{|x| <= r}
    scaled_indicator(p, r)  p * 1{|x| <= r}
    exponential(theta)      exp(-|x| / theta)
    gaussian(s)             exp(-|x|^2 / s^2)

Each kind carries a monotone decreasing dominator phi_tilde with
phi(x) <= phi_tilde(|x|) and a finite integral of phi_tilde^(1/3), which
is what the importance-sampling proposals are built from.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .geometry import squared_lengths, unit_ball_volume

_KINDS = ("gilbert", "scaled_indicator", "exponential", "gaussian")

# The truncation level: R = truncation_radius() has phi_tilde(R) <=
# EPS_TRUNC, and the pair-search radius, the padding unit, the proposal
# support and the quadrature box all use this one R.
EPS_TRUNC = 1e-6


@dataclass(frozen=True)
class ConnectionFunction:
    """A radial edge-probability function on R^d."""

    kind: str
    dim: int
    p: float = 1.0
    r: float = 1.0
    theta: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown connection function kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        for name in ("p", "r", "theta", "s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite")
        if self.kind in ("gilbert", "scaled_indicator"):
            if self.r <= 0:
                raise ValueError("r: must be positive")
            if not (0.0 < self.p <= 1.0):
                raise ValueError("p: must lie in (0, 1]")
            if self.kind == "gilbert" and self.p != 1.0:
                raise ValueError("p: gilbert has p = 1; use scaled_indicator")
        elif self.kind == "exponential":
            if self.theta <= 0:
                raise ValueError("theta: must be positive")
        elif self.kind == "gaussian":
            if self.s <= 0:
                raise ValueError("s: must be positive")

    # radial profile

    def phi_of_dist(self, t):
        """phi evaluated at distance t (vectorized)."""
        t = np.asarray(t, dtype=float)
        if self.kind in ("gilbert", "scaled_indicator"):
            out = self.p * (t <= self.r)
        elif self.kind == "exponential":
            out = np.exp(-t / self.theta)
        else:
            out = np.exp(-(t / self.s) ** 2)
        return out if out.ndim else float(out)

    def phi_tilde(self, t):
        """Monotone decreasing radial dominator of phi."""
        # every built-in profile is already monotone in |x|
        return self.phi_of_dist(t)

    # integrals

    @property
    def m_phi(self) -> float:
        """Integral of phi over R^d, in closed form for every built-in kind."""
        d = self.dim
        kd = unit_ball_volume(d)
        if self.kind in ("gilbert", "scaled_indicator"):
            return self.p * kd * self.r ** d
        if self.kind == "exponential":
            # d*kd * int t^(d-1) exp(-t/theta) dt = d*kd * theta^d * (d-1)!
            return d * kd * self.theta ** d * float(_gamma(d))
        # gaussian: (s sqrt(pi))^d
        return (self.s * np.sqrt(np.pi)) ** d

    # truncation

    def truncation_radius(self, eps: float = EPS_TRUNC) -> float:
        """Smallest R with phi_tilde(R) <= eps, as a Python float."""
        if self.kind in ("gilbert", "scaled_indicator"):
            return float(self.r)
        if self.kind == "exponential":
            return float(self.theta * np.log(1.0 / eps))
        return float(self.s * np.sqrt(np.log(1.0 / eps)))

    def dominates(self, other: "ConnectionFunction") -> bool:
        """Whether self >= other pointwise (analytic per kind, plus a probe grid)."""
        if self.dim != other.dim:
            return False
        if self.kind in ("gilbert", "scaled_indicator") and \
                other.kind in ("gilbert", "scaled_indicator"):
            return self.p >= other.p and self.r >= other.r
        if self.kind == other.kind == "exponential":
            return self.theta >= other.theta
        if self.kind == other.kind == "gaussian":
            return self.s >= other.s
        hi = max(self.truncation_radius(1e-12), other.truncation_radius(1e-12))
        t = np.linspace(0.0, hi, 4096)
        return bool(np.all(self.phi_of_dist(t) >= other.phi_of_dist(t) - 1e-12))


# Intervals of the radial grid, and buckets of u in [0, 1) per interval
# in the guide table of its inverse CDF.
_GRID_CELLS = 4096
_GUIDE_PER_CELL = 4


class RadialGrid:
    """The radial proposal density ~ phi_tilde(t/widen)^(1/3) * t^(d-1)
    on [0, widen * truncation_radius()], tabulated on a grid of 4096
    intervals: t, its trapezoid CDF cdf, and the inverse CDF.

    The inverse CDF is np.interp(u, cdf, t), bit for bit, found by the
    guide-table lookup of Chen and Asau (1974): 4 x 4096 equal buckets
    of u each hold the grid interval of their left end, and one
    comparison finishes the lookup. The few buckets that span more than
    two intervals (where the density is small) take a binary search.
    Every array is read-only, since grids are shared (radial_sampler).
    """

    def __init__(self, phi: ConnectionFunction, widen: float = 1.0):
        self.phi, self.widen = phi, widen
        self.upper = widen * phi.truncation_radius()
        t = np.linspace(0.0, self.upper, _GRID_CELLS + 1)
        w = self.profile(t)
        cdf = np.concatenate(
            ([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(t))))
        self.norm = cdf[-1]
        if not self.norm > 0:
            raise ValueError("degenerate radial proposal")
        cdf /= self.norm
        # np.interp's slopes; an interval the lookup returns has
        # cdf[j] <= u < cdf[j + 1], so its slope is finite
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = np.diff(t) / np.diff(cdf)
        # bucket b holds u in [b / n, (b + 1) / n): b = floor(u * n) and
        # both ends are exact, because n is a power of two
        n = _GRID_CELLS * _GUIDE_PER_CELL
        ends = np.arange(n + 1) / n
        first = np.searchsorted(cdf, ends[:-1], "right") - 1
        last = np.searchsorted(cdf, ends[1:], "left") - 1
        self.t, self.cdf, self._slopes = t, cdf, slopes
        self._first, self._crowded = first, last - first > 1
        for a in (t, cdf, slopes, first, self._crowded):
            a.flags.writeable = False

    def profile(self, r):
        """The unnormalized radial density at radius r."""
        return self.phi.phi_tilde(r / self.widen) ** (1.0 / 3.0) \
            * r ** (self.phi.dim - 1)

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """np.interp(u, cdf, t) for u in [0, 1): the interval j with
        cdf[j] <= u < cdf[j + 1], then numpy's interp arithmetic
        slope_j * (u - cdf[j]) + t[j], and t[j] where u == cdf[j]."""
        b = (u * len(self._first)).astype(np.intp)
        j = self._first[b]
        j += u >= self.cdf[j + 1]
        crowded = self._crowded[b]
        if crowded.any():
            j[crowded] = np.searchsorted(self.cdf, u[crowded], "right") - 1
        c, tj = self.cdf[j], self.t[j]
        return np.where(u == c, tj, self._slopes[j] * (u - c) + tj)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n radii by the inverse CDF of n uniforms."""
        return self.inverse_cdf(rng.random(n))

    def density(self, radii) -> np.ndarray:
        """The normalized radial density (per unit radius, the angular
        part handled by the caller)."""
        radii = np.asarray(radii, dtype=float)
        return np.where(radii <= self.upper, self.profile(radii) / self.norm,
                        0.0)


@functools.lru_cache(maxsize=64)
def radial_sampler(phi: ConnectionFunction, widen: float = 1.0):
    """Sampler for the radial proposal density
    ~ phi_tilde(t/widen)^(1/3) * t^(d-1).

    Returns (draw, density) of one RadialGrid: draw(rng, n) yields radii
    on [0, widen * truncation_radius()] by the guide-table inverse CDF,
    and density(t) is the normalized radial density (per unit radius,
    the angular part handled by the caller). Grids are cached per
    process on (phi, widen), the 64 most recent, so proposals of one
    kernel share one read-only grid.
    """
    grid = RadialGrid(phi, widen)
    return grid.draw, grid.density


def random_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n unit vectors drawn uniformly on the sphere S^(d-1), as (n, d)."""
    dirs = rng.standard_normal((n, d))
    dirs /= np.sqrt(squared_lengths(dirs.T))[:, None]
    return dirs


class RadialProposal:
    """Displacements with uniform directions and radial density
    proportional to phi_tilde(t/widen)^(1/3) t^(d-1), from the cached
    radial grid of (phi, widen), looked up once per proposal."""

    def __init__(self, phi: ConnectionFunction, widen: float = 1.0):
        self.d = phi.dim
        self._draw, self._radial = radial_sampler(phi, widen=widen)
        self._surface = self.d * unit_ball_volume(self.d)

    def _displacements(self, rng: np.random.Generator, n: int):
        """n displacements (n, d) and their radii (n,)."""
        radii = self._draw(rng, n)
        return random_directions(rng, n, self.d) * radii[:, None], radii

    def _disp_density(self, dist: np.ndarray) -> np.ndarray:
        """Density in R^d of a displacement of length dist (0 at dist 0)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._radial(dist) / (self._surface * dist ** (self.d - 1))
        return np.where(dist > 0, out, 0.0)


def sample_displacements(phi: ConnectionFunction, rng: np.random.Generator,
                         n: int, widen: float = 1.0):
    """n proposal displacements in R^d with their proposal densities.

    The direction is uniform on the sphere; the radius follows the
    radial_sampler profile. Returns (displacements (n,d), densities (n,)).
    """
    prop = RadialProposal(phi, widen)
    disp, radii = prop._displacements(rng, n)
    return disp, prop._disp_density(radii)
