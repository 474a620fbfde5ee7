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

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as _gamma

from .geometry import unit_ball_volume

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
        if self.kind in ("gilbert", "scaled_indicator"):
            if self.r <= 0:
                raise ValueError("range r must be positive")
            if not (0.0 < self.p <= 1.0):
                raise ValueError("scale p must lie in (0, 1]")
        elif self.kind == "exponential":
            if self.theta <= 0:
                raise ValueError("theta must be positive")
        elif self.kind == "gaussian":
            if self.s <= 0:
                raise ValueError("s must be positive")

    # radial profile

    def phi_of_dist(self, t):
        """phi evaluated at distance t (vectorized)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "gilbert":
            out = (t <= self.r).astype(float)
        elif self.kind == "scaled_indicator":
            out = self.p * (t <= self.r)
        elif self.kind == "exponential":
            out = np.exp(-t / self.theta)
        else:
            out = np.exp(-(t / self.s) ** 2)
        return out if out.ndim else float(out)

    def phi(self, x):
        """phi at displacement vectors x of shape (..., dim)."""
        x = np.asarray(x, dtype=float)
        return self.phi_of_dist(np.sqrt(np.einsum("...i,...i->...", x, x)))

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
        if self.kind == "gilbert":
            return kd * self.r ** d
        if self.kind == "scaled_indicator":
            return self.p * kd * self.r ** d
        if self.kind == "exponential":
            # d*kd * int t^(d-1) exp(-t/theta) dt = d*kd * theta^d * (d-1)!
            return d * kd * self.theta ** d * float(_gamma(d))
        # gaussian: (s sqrt(pi))^d
        return (self.s * np.sqrt(np.pi)) ** d

    def m_phi_quadrature(self, rel_tol: float = 1e-10) -> float:
        """m_phi by adaptive radial quadrature (cross-check for closed forms)."""
        d = self.dim
        surface = d * unit_ball_volume(d)
        upper = self.truncation_radius(1e-16)
        val, _ = integrate.quad(
            lambda t: self.phi_of_dist(t) * t ** (d - 1),
            0.0, upper, epsrel=rel_tol, limit=200)
        return surface * val

    # support and truncation

    @property
    def support_radius(self) -> float:
        """Radius beyond which phi vanishes (inf for unbounded kinds)."""
        if self.kind in ("gilbert", "scaled_indicator"):
            return self.r
        return np.inf

    def truncation_radius(self, eps: float = EPS_TRUNC) -> float:
        """Smallest R with phi_tilde(R) <= eps."""
        if self.kind in ("gilbert", "scaled_indicator"):
            return self.r
        if self.kind == "exponential":
            return self.theta * np.log(1.0 / eps)
        return self.s * np.sqrt(np.log(1.0 / eps))

    @property
    def truncated(self) -> bool:
        """True when simulations of this kind carry truncation bias."""
        return not np.isfinite(self.support_radius)

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


def radial_sampler(phi: ConnectionFunction, widen: float = 1.0):
    """Sampler for the radial proposal density
    ~ phi_tilde(t/widen)^(1/3) * t^(d-1).

    Returns (draw, density) where draw(rng, n) yields radii on
    [0, widen * truncation_radius()] via the inverse CDF on a grid of
    4096 intervals and density(t) is the normalized radial density (per
    unit radius, the angular part handled by the caller).
    """
    d = phi.dim
    upper = widen * phi.truncation_radius()

    def profile(r):
        return phi.phi_tilde(r / widen) ** (1.0 / 3.0) * r ** (d - 1)

    t = np.linspace(0.0, upper, 4096 + 1)
    w = profile(t)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(t))))
    norm = cdf[-1]
    if not norm > 0:
        raise ValueError("degenerate radial proposal")
    cdf /= norm

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        return np.interp(rng.random(n), cdf, t)

    def density(radii) -> np.ndarray:
        radii = np.asarray(radii, dtype=float)
        return np.where(radii <= upper, profile(radii) / norm, 0.0)

    return draw, density


def random_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n unit vectors drawn uniformly on the sphere S^(d-1), as (n, d)."""
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


class RadialProposal:
    """Displacements with uniform directions and radial density
    proportional to phi_tilde(t/widen)^(1/3) t^(d-1), from one radial
    grid built per proposal."""

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
