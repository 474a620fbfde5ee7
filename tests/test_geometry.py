"""Windows, volumes, lexicographic ordering, the Euclidean length rule."""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rcmlab.connection import ConnectionFunction
from rcmlab.geometry import Window, lex_order, unit_ball_volume
from rcmlab.moments import AnchorProposal, _pair_dists

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rcmlab"


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_box_volume_and_inradius():
    w = Window("box", 3.0, 2)
    assert w.volume == pytest.approx(36.0)
    assert w.boundary_distance(w.center)[0] == 3.0
    assert Window("ball", 2.0, 3).volume == pytest.approx(
        unit_ball_volume(3) * 8.0)


def test_validation():
    with pytest.raises(ValueError):
        Window("hexagon", 1.0, 2)
    with pytest.raises(ValueError):
        Window("box", -1.0, 2)
    with pytest.raises(ValueError):
        Window("box", 1.0, 2, center=np.zeros(3))


@pytest.mark.parametrize("shape", ["box", "ball"])
def test_dimension_zero_and_points_of_another_dimension_are_refused(shape):
    with pytest.raises(ValueError, match="^dim must be >= 1$"):
        Window(shape, 1.0, 0)
    # points of one coordinate broadcast against a 2-d centre without
    # an error, and a 1-d centre against points of any dimension
    for dim, points in [(2, np.zeros((4, 3))), (2, np.zeros((4, 1))),
                        (2, np.zeros(3)), (1, np.zeros((4, 3)))]:
        for query in (Window(shape, 1.0, dim).contains,
                      Window(shape, 1.0, dim).boundary_distance):
            with pytest.raises(ValueError,
                               match="^points have wrong dimension$"):
                query(points)


@pytest.mark.parametrize("shape", ["box", "ball"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_geometry_is_refused(shape, bad):
    """A NaN ball would reject every candidate in sample_uniform forever;
    every non-finite extent, centre or padding is refused up front."""
    with pytest.raises(ValueError, match="extent"):
        Window(shape, bad, 2)
    with pytest.raises(ValueError, match="center"):
        Window(shape, 1.0, 2, center=[0.0, bad])
    with pytest.raises(ValueError, match="padding|extent"):
        Window(shape, 1.0, 2).pad(bad)


def test_contains_and_boundary_distance_box():
    w = Window("box", 2.0, 2)
    pts = np.array([[0.0, 0.0], [1.9, 0.0], [2.1, 0.0], [-3.0, -3.0]])
    np.testing.assert_array_equal(w.contains(pts),
                                  [True, True, False, False])
    d = w.boundary_distance(pts)
    assert d[0] == pytest.approx(2.0)
    assert d[1] == pytest.approx(0.1)
    assert d[2] == pytest.approx(-0.1)


def test_contains_ball():
    w = Window("ball", 1.0, 3)
    assert bool(w.contains(np.array([0.5, 0.5, 0.5])[None])[0])
    assert not bool(w.contains(np.array([0.8, 0.8, 0.0])[None])[0])
    assert w.boundary_distance(np.zeros((1, 3)))[0] == pytest.approx(1.0)


def test_pad():
    w = Window("box", 1.0, 2).pad(0.5)
    assert w.extent == 1.5
    with pytest.raises(ValueError):
        Window("box", 1.0, 2).pad(-1.0)


@pytest.mark.parametrize("shape", ["box", "ball"])
def test_sample_uniform_inside(shape):
    w = Window(shape, 2.0, 2, center=[1.0, -1.0])
    pts = w.sample_uniform(np.random.default_rng(0), 500)
    assert pts.shape == (500, 2)
    assert np.all(w.contains(pts))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sample_uniform_draws_the_numbers_of_rng_uniform(dim):
    """Box draws are rng.uniform(lo, hi) bit for bit, so seeded samples
    do not depend on which of the two computes them."""
    w = Window("box", 1.7, dim, center=np.linspace(-0.3, 2.9, dim))
    lo, hi = w.bounding_box()
    for seed in range(20):
        n = 1 + 37 * seed
        expect = np.random.default_rng(seed).uniform(lo, hi, size=(n, dim))
        assert np.array_equal(w.sample_uniform(np.random.default_rng(seed),
                                               n), expect)
    # balls: rejection rounds of uniform(lo, hi) draws
    ball = Window("ball", 1.7, dim, center=np.linspace(-0.3, 2.9, dim))
    ref = np.random.default_rng(4)
    kept = np.empty((0, dim))
    while len(kept) < 50:
        cand = ref.uniform(lo, hi, size=(max(2 * (50 - len(kept)), 16), dim))
        kept = np.concatenate([kept, cand[ball.contains(cand)]])[:50]
    assert np.array_equal(ball.sample_uniform(np.random.default_rng(4), 50),
                          kept)


def test_ball_sampler_fills_corners():
    w = Window("ball", 1.0, 2)
    pts = w.sample_uniform(np.random.default_rng(1), 4000)
    # fraction inside radius 1/2 should be ~1/4
    frac = np.mean(np.sum(pts ** 2, axis=1) <= 0.25)
    assert abs(frac - 0.25) < 0.03


def test_lex_order_first_coordinate_primary():
    pts = np.array([[1.0, 5.0], [0.0, 9.0], [1.0, -2.0], [0.0, 1.0]])
    order = lex_order(pts)
    sorted_pts = pts[order]
    for a, b in zip(sorted_pts[:-1], sorted_pts[1:]):
        assert tuple(a) < tuple(b)


@given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                min_size=2, max_size=30, unique=True))
def test_lex_order_matches_python_sort(rows):
    pts = np.array(rows, dtype=float)
    order = lex_order(pts)
    expect = sorted(range(len(rows)), key=lambda i: tuple(pts[i]))
    assert list(order) == expect


@pytest.mark.parametrize("shape", ["box", "ball"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_windows_compare_and_hash_by_value(shape, dim):
    for center in (None, np.linspace(-1.0, 1.5, dim)):
        a = Window(shape, 1.5, dim, center)
        b = Window(shape, 1.5, dim, None if center is None else list(center))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.pad(0.5) == b.pad(0.5)
    base = Window(shape, 1.5, dim)
    assert base == Window(shape, 1.5, dim, np.zeros(dim))
    # a numpy extent is held as a float: same value and hash
    wide = Window(shape, np.float64(1.5), dim)
    assert type(wide.extent) is float and hash(wide) == hash(base)
    other_shape = "ball" if shape == "box" else "box"
    for other in (Window(other_shape, 1.5, dim), Window(shape, 2.0, dim),
                  Window(shape, 1.5, dim + 1),
                  Window(shape, 1.5, dim, np.full(dim, 0.25))):
        assert other != base


def _squared(a, b):
    """|a - b|^2 in scalar arithmetic, the squares summed in coordinate
    order."""
    sq = (a[0] - b[0]) * (a[0] - b[0])
    for k in range(1, len(a)):
        sq = sq + (a[k] - b[k]) * (a[k] - b[k])
    return sq


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_every_length_follows_the_coordinate_order_rule(d):
    rng = np.random.default_rng(40 + d)
    X = rng.normal(size=(300, 4, d))
    pairs = list(zip(*np.triu_indices(4, 1)))
    ref = [[math.sqrt(_squared(x[i], x[j])) for i, j in pairs] for x in X]
    assert np.array_equal(_pair_dists(X), ref)

    prop = AnchorProposal(ConnectionFunction("gaussian", d, s=1.0), 2.0)
    anchor = rng.normal(size=(300, d))
    dist = np.array([[math.sqrt(_squared(a, x)) for x in row]
                     for a, row in zip(anchor, X)])
    assert np.array_equal(prop.density(X, anchor),
                          np.mean(prop._disp_density(dist), axis=1))

    # half the points on the sphere, where the last bit decides membership
    w = Window("ball", 1.5, d, center=rng.normal(size=d))
    u = rng.normal(size=(600, d))
    u[:300] *= 1.5 / np.sqrt((u[:300] ** 2).sum(axis=1, keepdims=True))
    pts = u + w.center
    sq = [_squared(p, w.center) for p in pts]
    assert np.array_equal(w.contains(pts), [s <= 1.5 ** 2 for s in sq])
    assert np.array_equal(w.boundary_distance(pts),
                          [1.5 - math.sqrt(s) for s in sq])


def test_no_second_length_rule_in_the_sources():
    """Every Euclidean length goes through geometry.squared_lengths; these
    calls sum squares in orders of their own."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for call in ("einsum(", "vecdot(", "linalg.norm(", "np.dot("):
            assert call not in text, (path.name, call)
