"""Connection functions: closed-form integrals, domination, proposals."""

import math

import numpy as np
import pytest
from scipy import integrate

from rcmlab.connection import (ConnectionFunction, radial_sampler,
                               sample_displacements)
from rcmlab.geometry import unit_ball_volume


def test_kind_validation():
    with pytest.raises(ValueError):
        ConnectionFunction("cauchy", 2)
    with pytest.raises(ValueError):
        ConnectionFunction("gilbert", 2, r=0.0)
    with pytest.raises(ValueError):
        ConnectionFunction("scaled_indicator", 2, p=1.5, r=1.0)
    with pytest.raises(ValueError):
        ConnectionFunction("exponential", 2, theta=-1.0)


@pytest.mark.parametrize("kind, field", [
    ("gilbert", "r"), ("scaled_indicator", "r"), ("exponential", "theta"),
    ("gaussian", "s"), ("gaussian", "r")])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_parameters_are_refused(kind, field, bad):
    with pytest.raises(ValueError, match=f"^{field}: must be finite"):
        ConnectionFunction(kind, 2, **{field: bad})


def test_profiles():
    g = ConnectionFunction("gilbert", 2, r=2.0)
    assert g.phi_of_dist(1.9) == 1.0 and g.phi_of_dist(2.1) == 0.0
    si = ConnectionFunction("scaled_indicator", 2, p=0.3, r=1.0)
    assert si.phi_of_dist(0.5) == pytest.approx(0.3)
    e = ConnectionFunction("exponential", 1, theta=2.0)
    assert e.phi_of_dist(2.0) == pytest.approx(math.exp(-1.0))
    ga = ConnectionFunction("gaussian", 3, s=2.0)
    assert ga.phi_of_dist(2.0) == pytest.approx(math.exp(-1.0))


def m_phi_quadrature(phi: ConnectionFunction) -> float:
    """m_phi by adaptive radial quadrature, the reference for the closed forms."""
    d = phi.dim
    surface = d * unit_ball_volume(d)
    upper = phi.truncation_radius(1e-16)
    val, _ = integrate.quad(
        lambda t: phi.phi_of_dist(t) * t ** (d - 1),
        0.0, upper, epsrel=1e-10, limit=200)
    return surface * val


@pytest.mark.parametrize("phi,expect", [
    (ConnectionFunction("gilbert", 2, r=1.0), math.pi),
    (ConnectionFunction("gilbert", 3, r=2.0), 4.0 * math.pi / 3.0 * 8.0),
    (ConnectionFunction("scaled_indicator", 2, p=0.5, r=1.0), 0.5 * math.pi),
    (ConnectionFunction("exponential", 2, theta=1.0), 2.0 * math.pi),
    (ConnectionFunction("exponential", 1, theta=3.0), 6.0),
    (ConnectionFunction("gaussian", 2, s=1.0), math.pi),
    (ConnectionFunction("gaussian", 1, s=2.0), 2.0 * math.sqrt(math.pi)),
])
def test_m_phi_closed_forms(phi, expect):
    assert phi.m_phi == pytest.approx(expect, rel=1e-12)
    assert m_phi_quadrature(phi) == pytest.approx(expect, rel=1e-8)


def test_truncation_radius():
    assert ConnectionFunction("gilbert", 2, r=1.5).truncation_radius() == 1.5
    e = ConnectionFunction("exponential", 2, theta=2.0)
    assert e.phi_of_dist(e.truncation_radius(1e-6)) == pytest.approx(1e-6)
    ga = ConnectionFunction("gaussian", 2, s=1.0)
    assert ga.phi_of_dist(ga.truncation_radius(1e-6)) == pytest.approx(1e-6)


def test_dominates():
    g1 = ConnectionFunction("gilbert", 2, r=1.0)
    g2 = ConnectionFunction("gilbert", 2, r=2.0)
    si = ConnectionFunction("scaled_indicator", 2, p=0.5, r=1.0)
    assert g2.dominates(g1) and not g1.dominates(g2)
    assert g1.dominates(si) and not si.dominates(g1)
    assert g1.dominates(g1)
    e1 = ConnectionFunction("exponential", 2, theta=1.0)
    e2 = ConnectionFunction("exponential", 2, theta=0.5)
    assert e1.dominates(e2) and not e2.dominates(e1)
    # cross-kind via probe grid: gilbert(1) does not dominate a gaussian tail
    ga = ConnectionFunction("gaussian", 2, s=1.0)
    assert not g1.dominates(ga)
    assert not g1.dominates(ConnectionFunction("gilbert", 3, r=0.5))


def test_gilbert_has_p_one():
    """Gilbert's phi is 1 on its ball: a p below 1 is refused rather than
    ignored, and Gilbert dominates every scaled indicator of its radius."""
    with pytest.raises(ValueError, match="^p: "):
        ConnectionFunction("gilbert", 2, r=1.0, p=0.5)
    g = ConnectionFunction("gilbert", 2, r=1.0, p=1.0)
    si = ConnectionFunction("scaled_indicator", 2, p=0.7, r=1.0)
    assert g.dominates(si) and not si.dominates(g)
    t = np.linspace(0.0, 2.0, 401)
    assert np.all(g.phi_of_dist(t) >= si.phi_of_dist(t))


def test_radial_sampler_density_normalized():
    phi = ConnectionFunction("gaussian", 2, s=1.0)
    draw, density = radial_sampler(phi, widen=2.0)
    t = np.linspace(0, 2.0 * phi.truncation_radius(), 20001)
    mass = np.trapezoid(density(t), t)
    assert mass == pytest.approx(1.0, rel=1e-3)
    radii = draw(np.random.default_rng(0), 20000)
    assert np.all(radii <= 2.0 * phi.truncation_radius() + 1e-12)
    # empirical CDF at the median matches the density integral
    med = np.median(radii)
    tm = t[t <= med]
    assert np.trapezoid(density(tm), tm) == pytest.approx(0.5, abs=0.02)


def test_sample_displacements_density():
    phi = ConnectionFunction("gilbert", 2, r=1.0)
    disp, dens = sample_displacements(phi, np.random.default_rng(1), 5000)
    r = np.linalg.norm(disp, axis=1)
    assert np.all(r <= 1.0 + 1e-12)
    # MC identity: E[1/q(X)] = volume of the support
    assert np.mean(1.0 / dens) == pytest.approx(math.pi, rel=0.05)
