"""Connection functions: closed-form integrals, domination, proposals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from rcmlab.connection import (ConnectionFunction, RadialGrid, radial_sampler,
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


@pytest.mark.parametrize("phi, expect", [
    (ConnectionFunction("gilbert", 2, r=1.5), 1.5),
    (ConnectionFunction("gilbert", 2, r=2), 2.0),
    (ConnectionFunction("scaled_indicator", 3, p=0.4, r=0.7), 0.7),
    (ConnectionFunction("exponential", 2, theta=2.0),
     2.0 * np.log(1.0 / 1e-6)),
    (ConnectionFunction("gaussian", 2, s=1.3),
     1.3 * np.sqrt(np.log(1.0 / 1e-6))),
])
def test_truncation_radius_is_a_python_float(phi, expect):
    # the same value as the numpy expression, bit for bit, but a float
    for R in (phi.truncation_radius(), phi.truncation_radius(1e-6)):
        assert type(R) is float
        assert R == expect


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


def _kernel(kind, d, scale):
    """One kernel of a kind in dimension d, its length parameter scale."""
    if kind == "gilbert":
        return ConnectionFunction(kind, d, r=scale)
    if kind == "scaled_indicator":
        return ConnectionFunction(kind, d, p=0.5, r=scale)
    if kind == "exponential":
        return ConnectionFunction(kind, d, theta=scale)
    return ConnectionFunction(kind, d, s=scale)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["gilbert", "scaled_indicator", "exponential",
                        "gaussian"]),
       st.sampled_from([1, 2, 3]), st.sampled_from([1.0, 4.0]),
       st.floats(0.25, 4.0), st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
def test_guide_table_lookup_is_np_interp(kind, d, widen, scale, seed, extra):
    # bit for bit, on random u, on every grid CDF value and the double
    # just below it (the ends of each interval), at 0 and below 1
    grid = RadialGrid(_kernel(kind, d, scale), widen)
    cdf = grid.cdf
    u = np.concatenate([np.random.default_rng(seed).random(5000), extra,
                        cdf[:-1], np.nextafter(cdf[1:], 0.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    got, want = grid.inverse_cdf(u), np.interp(u, cdf, grid.t)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_radial_draw_is_interp_of_the_stream_without_np_interp(monkeypatch):
    phi = ConnectionFunction("exponential", 3, theta=0.7)
    draw, _ = radial_sampler(phi, widen=4.0)
    grid = draw.__self__
    want = np.interp(np.random.default_rng(3).random(20000), grid.cdf, grid.t)

    def no_interp(*args, **kwargs):
        raise AssertionError("np.interp ran in draw")

    monkeypatch.setattr(np, "interp", no_interp)
    got = draw(np.random.default_rng(3), 20000)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_radial_grid_is_cached_and_read_only():
    phi = ConnectionFunction("gaussian", 2, s=0.8)
    assert radial_sampler(phi, widen=3.0) is radial_sampler(phi, widen=3.0)
    grid = radial_sampler(phi, widen=3.0)[0].__self__
    arrays = [grid.t, grid.cdf, grid._slopes, grid._first, grid._crowded]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[1]


def test_sample_displacements_density():
    phi = ConnectionFunction("gilbert", 2, r=1.0)
    disp, dens = sample_displacements(phi, np.random.default_rng(1), 5000)
    r = np.linalg.norm(disp, axis=1)
    assert np.all(r <= 1.0 + 1e-12)
    # MC identity: E[1/q(X)] = volume of the support
    assert np.mean(1.0 / dens) == pytest.approx(math.pi, rel=0.05)
