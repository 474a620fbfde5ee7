"""Numerical evaluation of component-count moments.

The central objects are integrals over R^(d(k-1)) or R^(d(k+l-1)) of
connectivity or isomorphism probabilities times exponential interaction
terms. They are evaluated by importance sampling: cluster coordinates
are drawn along spanning trees with radial proposal densities built from
the dominator profile, which keeps the weights bounded on the support of
the integrand. Each sample draws one uniform Pruefer code, so the
proposal is the uniform mixture over all k^(k-2) labeled trees; its
density, a sum over those trees of products of edge densities, is one
determinant of the reduced weighted Laplacian (Kirchhoff's matrix-tree
theorem). A draw is table lookups: the code's tree comes from a table of
all decoded codes and the edge radii from the radial grid's guide
table, both built once per process and read-only.

Sorted-tuple indicators are removed analytically: the remaining
integrand is symmetric under relabeling the free points of a cluster, so
1{x_1 < ... < x_k} integrates to 1/(k-1)! times the unsorted integrand
restricted to configurations whose anchor is the lexicographic minimum.

Class probabilities are sums of band products over a class's labeled
copies (for the coupled shared-tuple term, over the cached pairs of
nested copies); many copies go through one numpy pass, in blocks of at
most _BLOCK_ELEMENTS products, and are added one at a time in a fixed
order.

For the indicator kinds the route is chosen per row. A row where no
three balls overlap pairwise has no active subset beyond pairs, so its
inclusion-exclusion sum takes its singles and pairs only (top = 2); the
terms it skips are +-0.0, so it is the full sum bit for bit. In d <= 2
a row with such a triple takes the exact arrangement of its balls
(_arrangement_sums): by Green's theorem the exponent is a sum over the
arcs of each circle between consecutive crossings (in d = 1 over the
segments between sorted interval ends), each weighed by the cover of
the other balls, read off a cumulative sum over the sorted crossings.
In d >= 3 it, like every Gaussian row, takes all subsets (top = m). The
subsets of at most top points go in one (subsets x rows) table in
increasing bitmask order, rows in blocks of at most _BLOCK_ELEMENTS
table entries, which bounds the memory up to the 2 * ENUM_CAP points of
a covariance. An indicator subset's term is a ball intersection volume:
for two balls the exact lens (two caps, by a recurrence in the
dimension; the same lens gives a ball window's overlap with its
shift), for three or more, which only d >= 3 reaches, a rule that
slices it into (d-1)-dimensional ones; boolean gathers of each
subset's pair-disjointness flags find the active subsets (over the
3-subsets, rows in blocks, they route the rows), and the active
subsets of one size go to the volume rule together. A Gaussian
subset's term is its exact closed form, for any mix of widths, so
those exponents carry no truncation or quadrature error; one pass per
point adds it to every subset of the points before it (a weighted
Welford update). `q_kl` takes the joint exponent and each cluster's
from three calls of the same function.
Only the exponential kind and tuples of mixed kinds take a tensor
Gauss-Legendre integral over a box per row; the squared distance from a
grid node to a point is the broadcast sum of per-axis squared offsets,
and rows go in blocks of at most _BLOCK_ELEMENTS grid nodes, so no
Python loop runs over the draws. Every other distance is the square
root of geometry.squared_lengths; the Gaussian table and the grid add
their squares inline in the same coordinate order.

Every Monte Carlo integrand is a graph probability times an interaction
kernel (the exponential of the interaction exponent, or the two-cluster
kernel), and one driver, `_importance_mc`, estimates them all, over one
cluster or two; it refuses fewer than 2 draws and a seed that is not an
integer >= 0. It evaluates the probability only on draws that pass the
lexmin test, the proposal densities only on those of them whose
probability is nonzero, and the costly kernel only on those with
positive density; for the indicator
kinds that is a small share of the draws. `prob_isomorphic` in turn
gives 0 without band products to a row whose count of certain pairs
(pe = 1) exceeds the class's edge count m or whose count of possible
pairs (pe > 0) falls short of it. Every reduction runs row by row, so a
draw's probability, density and kernel value do not depend on which
other draws share its batch, and each estimate is bit for bit the one
an evaluation of every draw would give.

Per-draw values become a MomentEstimate by one rule, `_mc_moment`:
scale times their mean, its standard error, the number of draws and the
truncation radius in use. `_importance_mc` and every estimator in
`analysis` end in it. Estimates derived from estimates follow two more
rules: `_linear_combination` for sums of independent estimates and
`_sqrt_estimate` for the square root of one.

Every second moment (`asy_cov`, `asy_cov_kl`, `finite_window_cov`) is
one call of `_second_moment`: a two-cluster term plus, for equal
orders, a shared-tuple term; the finite window only weights the
two-cluster kernel by the window's overlap with its shift. No term
covers a psi-component nested in a phi-component of larger order, so
with psi != phi and order(G) > order(H) all three miss it: for Gilbert
r = 1 against scaled_indicator p = 0.5, beta = 1, d = 2, cov(eta_2 phi,
eta_1 psi) is -0.0055 analytic against +0.0104 +- 0.0018 simulated. It
checks domination and ENUM_CAP for all three. Its two terms, and the
covariances of a quadratic form or a partial sum, add by
`_linear_combination`, the one rule for sums of independent estimates;
`_estimate_matrix` fills every matrix of pairwise covariances.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import roots_legendre

from .census import GraphClass, _lexmin, check_canonical, permuted_bits
from .connection import ConnectionFunction, RadialProposal
from .geometry import Window, squared_lengths, unit_ball_volume

ENUM_CAP = 6

# Elements of one block: (copy, sample) band products in
# _sum_band_products, (subset, row) terms in _inclusion_exclusion, rows x
# nodes^(d-1) x balls in _blocked_volume, rows x covers in
# _arrangement_sums, (row, 3-subset) flags in _overlapping_triples, rows
# x nodes^d grid nodes in generic_union_exponent. It bounds their memory
# in any dimension. A block's float temporaries take 128 KiB; at 256 KiB
# glibc's malloc gave the freed heap top back to the system after most
# ball-volume blocks, and every block faulted it in again.
_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    std_error: float
    n_samples: int
    truncation_radius: float
    method: str    # closed_form | monte_carlo

    def __post_init__(self):
        if not self.std_error >= 0:
            raise ValueError("std_error must be nonnegative")


def _check_beta(beta) -> None:
    """Refuse a Poisson intensity beta that is not a finite number > 0."""
    if not (isinstance(beta, numbers.Real) and not isinstance(beta, bool)
            and 0 < beta < math.inf):
        raise ValueError(f"beta: must be positive and finite, got {beta!r}")


def _check_dimension(window: Window, phi: ConnectionFunction) -> None:
    """Refuse a window whose dimension is not phi's."""
    if window.dim != phi.dim:
        raise ValueError(f"window dimension {window.dim} differs from the "
                         f"connection function's dimension {phi.dim}")


def _check_order(name: str, value, least: int = 1) -> int:
    """value, an order or a count of draws, as an int; refuse one that is
    not an integer >= least (bools included), naming it name."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, "
                         f"got {value!r}")
    return int(value)


def _check_weights(name: str, values) -> np.ndarray:
    """values as a float array; refuse any but a sequence of finite real
    numbers (bools and strings included), naming it name."""
    if not (np.ndim(values) == 1 and all(
            isinstance(w, numbers.Real) and not isinstance(w, bool)
            and abs(w) <= sys.float_info.max for w in values)):
        raise ValueError(f"weights {name} must be finite real numbers, "
                         f"got {values!r}")
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# pair bookkeeping and graph probabilities

def _pair_dists(X: np.ndarray) -> np.ndarray:
    """Distances of all point pairs of X (n, k, d) -> (n, npairs), in
    np.triu_indices(k, 1) order."""
    i, j = np.triu_indices(X.shape[1], 1)
    return np.sqrt(squared_lengths(c[:, i] - c[:, j]
                                   for c in np.moveaxis(X, -1, 0)))


def _pair_values(X: np.ndarray, func: ConnectionFunction) -> np.ndarray:
    """func evaluated on all point pairs of X (n, k, d) -> (n, npairs)."""
    return func.phi_of_dist(_pair_dists(X))


@functools.cache
def iso_masks(G: GraphClass):
    """All labeled edge subsets isomorphic to G, as a (m, npairs) bool
    array, in the order the vertex permutations first reach them."""
    bits = permuted_bits(G.adjacency())
    _, first = np.unique(bits, axis=0, return_index=True)
    return bits[np.sort(first)]


def _sum_band_products(bands: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """sum over copies c of prod_e bands[codes[c, e], :, e], per sample.

    bands: (b, n, npairs), b per-pair probabilities; codes: (copies,
    npairs), the band of every pair of every labeled copy. Copies go in
    blocks of at most _BLOCK_ELEMENTS (copy, sample) products. A product
    multiplies its pairs in order, as np.prod does, and the copies are
    added one at a time in order, so the sum is bit for bit a loop over
    copies.
    """
    bands = np.ascontiguousarray(bands.transpose(0, 2, 1))
    n = bands.shape[2]
    out = np.zeros(n)
    step = max(1, _BLOCK_ELEMENTS // max(n, 1))
    for s in range(0, len(codes), step):
        block = codes[s:s + step]
        prods = np.ones((len(block), n))
        for e in range(block.shape[1]):
            prods *= bands[block[:, e], e]
        for row in prods:
            out += row
    return out


def prob_isomorphic(pe: np.ndarray, G: GraphClass) -> np.ndarray:
    """P(labeled RCM on the tuple is isomorphic to G) per sample.

    pe holds the per-pair edge probabilities, in [0, 1], in
    upper-triangular order. Every labeled copy of G has the m edges of
    G, so a row with more than m pairs at pe = 1 gives each copy a
    factor 1 - 1 = +0.0 on one of its non-edges, and a row with fewer
    than m pairs at pe > 0 gives each copy a factor +0.0 on one of its
    edges. Such rows are exactly 0 and take no band products; the others
    take them as they would in a batch of every row.
    """
    masks = iso_masks(G)
    m = np.count_nonzero(masks[0])
    rows = np.flatnonzero((np.count_nonzero(pe == 1.0, axis=1) <= m)
                          & (np.count_nonzero(pe > 0.0, axis=1) >= m))
    out = np.zeros(len(pe))
    live = pe[rows]
    out[rows] = _sum_band_products(np.stack([1.0 - live, live]),
                                   masks.astype(np.intp))
    return out


@functools.cache
def _connected_schedule(k: int) -> tuple:
    """Each mask of two or more of k vertices, ascending, with its proper
    submasks holding its lowest vertex, descending, and their rests' bits."""
    return tuple(
        (mask, tuple((sub, tuple(j for j in range(k) if (mask ^ sub) >> j & 1))
                     for sub in range(mask - 1, 0, -1)
                     if sub & mask == sub and sub & mask & -mask))
        for mask in range(1, 1 << k) if mask & (mask - 1))


def prob_connected(pe: np.ndarray, k: int) -> np.ndarray:
    """P(labeled RCM on the k-tuple is connected) per sample."""
    n = len(pe)
    iu = np.triu_indices(k, 1)
    pair_of = np.zeros((k, k), dtype=np.intp)
    pair_of[iu] = pair_of[iu[::-1]] = np.arange(len(iu[0]))
    qe = 1.0 - pe
    # qv[j][mask] = P(no edge between vertex j and any vertex in mask)
    qv = [{0: np.ones(n)} for _ in range(k)]
    for j in range(k):
        for mask in range(1, 1 << k):
            if (mask >> j) & 1:
                continue
            low = mask & -mask
            i = low.bit_length() - 1
            qv[j][mask] = qv[j][mask ^ low] * qe[:, pair_of[i, j]]
    conn = {1 << j: np.ones(n) for j in range(k)}
    for mask, subs in _connected_schedule(k):
        total = np.ones(n)
        for sub, rest in subs:
            cross = qv[rest[0]][sub]
            for j in rest[1:]:
                cross = cross * qv[j][sub]
            total = total - conn[sub] * cross
        conn[mask] = total
    return conn[(1 << k) - 1]


def joint_prob_coupled(pe_phi: np.ndarray, pe_psi: np.ndarray,
                       G: GraphClass, H: GraphClass) -> np.ndarray:
    """P(phi-graph ~ G and psi-graph ~ H) under shared pair marks.

    Each pair independently falls in one of three mark bands:
    [0, psi] (edge in both), (psi, phi] (edge in the phi graph only),
    (phi, 1] (edge in neither); the joint probability sums the band
    products over nested mask pairs.
    """
    if G.order != H.order:
        return np.zeros(len(pe_phi))
    bands = np.stack([1.0 - pe_phi, pe_phi - pe_psi, pe_psi])
    return _sum_band_products(bands, _nested_codes(G, H))


@functools.cache
def _nested_codes(G: GraphClass, H: GraphClass) -> np.ndarray:
    """Band codes (0 neither, 1 phi only, 2 both) of the pairs of every
    G-copy and H-copy with the H-copy's edges inside the G-copy's, G-copies
    outer and H-copies inner."""
    mphi, mpsi = iso_masks(G), iso_masks(H)
    nested = ~np.any(mpsi[None, :, :] & ~mphi[:, None, :], axis=2)
    i, j = np.nonzero(nested)
    return mphi[i].astype(np.intp) + mpsi[j]


# ---------------------------------------------------------------------------
# interaction exponents

@functools.cache
def _gl_nodes(n: int):
    return roots_legendre(n)


def _sliced_volume(centers: np.ndarray, radii: np.ndarray,
                   n_nodes: int) -> np.ndarray:
    """_blocked_volume's slicing rule for centers (m, ..., d) and radii
    (m, ...) whose axes after the first broadcast; reducing over the
    leading ball axis is elementwise work on whole rows."""
    lo = np.max(centers[..., 0] - radii, axis=0)
    hi = np.min(centers[..., 0] + radii, axis=0)
    width = np.maximum(0.0, hi - lo)
    if centers.shape[-1] == 1:
        return width
    nodes, weights = _gl_nodes(n_nodes)
    x = lo[..., None] + (nodes + 1.0) * 0.5 * width[..., None]
    dx = x - centers[..., 0, None]
    slice_radii = np.sqrt(np.maximum(0.0, radii[..., None] ** 2 - dx ** 2))
    area = _sliced_volume(centers[..., None, 1:], slice_radii, n_nodes)
    # a row-wise sum, not a matrix-vector product: BLAS results depend on
    # the batch, and each row's volume must not
    return 0.5 * width * np.sum(area * weights, axis=-1)


def _cap_volume(r: np.ndarray, a: np.ndarray, d: int) -> np.ndarray:
    """Volume of the cap {x in B(0, r): x_1 >= a}, |a| <= r, elementwise.

    It is kappa_(d-1) J_(d-1), J_n = integral_a^r (r^2 - x^2)^(n/2) dx:
    J_0 = r - a, J_1 = (r^2 arccos(a/r) - a s) / 2 with s^2 = r^2 - a^2,
    and (n + 1) J_n = -a s^n + n r^2 J_(n-2). s^2 is (r - a)(r + a) and
    the angle arctan2(s, a), so a thin cap loses no digits to a
    difference of squares or to arccos near 1.
    """
    s2 = (r - a) * (r + a)
    if d % 2:
        J, power, n = r - a, 1.0, 0
    else:
        s = np.sqrt(s2)
        J, power, n = 0.5 * (r * r * np.arctan2(s, a) - a * s), s, 1
    while n < d - 1:
        n += 2
        power = power * s2
        J = (n * r * r * J - a * power) / (n + 1)
    return unit_ball_volume(d - 1) * J


def _two_ball_volume(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Exact volume of B(c_1, r_1) intersected with B(c_2, r_2), for
    centers (2, n, d) and radii (2, n), elementwise over the n rows.

    With t = |c_2 - c_1| it is 0 for t >= r_1 + r_2 and the smaller
    ball's volume for t <= |r_1 - r_2|; otherwise the sum of the two caps
    beyond the radical plane, at signed distances a_1 and a_2 from the
    centres. Each a_i has its own formula, (t^2 + (r_i - r_j)(r_i + r_j))
    / 2t, so swapping the balls swaps the caps bit for bit.
    """
    d = centers.shape[-1]
    t = np.sqrt(squared_lengths((centers[1] - centers[0]).T))
    r1, r2 = radii
    nested = t <= np.abs(r1 - r2)
    vol = np.where(nested, unit_ball_volume(d) * np.minimum(r1, r2) ** d,
                   0.0)
    lens = ~nested & (t < r1 + r2)
    t, r1, r2 = t[lens], r1[lens], r2[lens]
    tt, half = t * t, (r1 - r2) * (r1 + r2)
    # in floating point a_i may stray past +-r_i by a rounding
    a1 = np.clip((tt + half) / (2.0 * t), -r1, r1)
    a2 = np.clip((tt - half) / (2.0 * t), -r2, r2)
    vol[lens] = _cap_volume(r1, a1, d) + _cap_volume(r2, a2, d)
    return vol


def _blocked_volume(centers: np.ndarray, radii: np.ndarray,
                    n_nodes: int) -> np.ndarray:
    """Volume of the intersection of balls B(c_i, r_i), batched.

    centers: (m, n, d); radii: (m, n), n rows of m balls. Two balls
    (m = 2) take the exact lens. For more, the slice at x_1 = t is the
    intersection of the (d-1)-balls B(c_i[1:], sqrt(r_i^2 - (t - c_i1)^2)),
    so the volume is a Gauss-Legendre integral (n_nodes) over t of slice
    volumes, down to exact interval lengths in d = 1, taken in blocks of
    at most _BLOCK_ELEMENTS rows x nodes^(d-1) x balls. A row's volume
    does not depend on its block. Only d >= 3 sends three or more balls
    (in d <= 2 the arrangement takes such rows).
    """
    m, n, d = centers.shape
    if m == 2:
        return _two_ball_volume(centers, radii)
    step = max(1, _BLOCK_ELEMENTS // (n_nodes ** (d - 1) * m))
    return np.concatenate([
        _sliced_volume(centers[:, s:s + step], radii[:, s:s + step], n_nodes)
        for s in range(0, n, step)])


@functools.cache
def _subsets(m: int, top: int):
    """The nonempty subsets of at most top of m points in increasing
    bitmask order (for top < m from combinations, never all 2^m): their
    member matrix (subsets, m) and, per size 1 to top, their rows of
    that size, with members in increasing order and the point pairs
    each holds, as indices in np.triu_indices order (rows, pairs)."""
    masks = np.arange(1, 1 << m) if top >= m else np.sort(
        [sum(1 << i for i in c) for s in range(1, top + 1)
         for c in itertools.combinations(range(m), s)])
    member = (masks[:, None] >> np.arange(m)) & 1 == 1
    pair = np.zeros((m, m), dtype=np.intp)
    pair[np.triu_indices(m, 1)] = np.arange(m * (m - 1) // 2)
    size = member.sum(axis=1)
    by_size = []
    for s in range(1, top + 1):
        subs = np.flatnonzero(size == s)
        members = np.nonzero(member[subs])[1].reshape(-1, s)
        i, j = np.triu_indices(s, 1)
        by_size.append((subs, members, pair[members[:, i], members[:, j]]))
    return member, by_size


def _inclusion_exclusion(X: np.ndarray, scales: np.ndarray, top: int,
                         integrals) -> np.ndarray:
    """Sum over the subsets of at most top points of the inclusion-
    exclusion terms of an interaction exponent (without beta), per row.

    A subset S has the coefficient prod_{i in S} (-scales_i) and the term
    integrals(X) gives for it: the integral over R^d of the product of its
    members' kernel profiles, as a (subsets x rows) table in the row order
    of _subsets(m, top). The terms go in one table, rows in blocks of at
    most _BLOCK_ELEMENTS table entries (one row at least), and each row's
    terms are added in increasing bitmask order, as a loop over subsets
    adds them; where every larger subset's term is 0.0, that is the sum
    over all subsets bit for bit.
    """
    n, m, _ = X.shape
    member = _subsets(m, top)[0]
    coef = np.prod(np.where(member, -scales, 1.0), axis=1)
    total = np.empty(n)
    step = max(1, _BLOCK_ELEMENTS // len(member))
    for r in range(0, n, step):
        table = integrals(X[r:r + step])
        table *= coef[:, None]
        total[r:r + step] = np.add.accumulate(table, axis=0)[-1]
    return total


def _disjoint_pairs(X: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """True where the balls of a point pair are disjoint (or touch), as
    (pairs, rows), pairs in np.triu_indices order."""
    iu = np.triu_indices(X.shape[1], 1)
    return np.ascontiguousarray(
        (_pair_dists(X) >= (radii[iu[0]] + radii[iu[1]])[None, :]).T)


def _active(disjoint: np.ndarray, holds: np.ndarray) -> np.ndarray:
    """Which subsets have no disjoint pair of balls, as (subsets, rows):
    boolean gathers of each subset's pair flags (rows of
    _disjoint_pairs), no matrix product."""
    hit = disjoint[holds[:, 0]]
    for k in range(1, holds.shape[1]):
        hit |= disjoint[holds[:, k]]
    return ~hit


def _ball_integrals(X: np.ndarray, radii: np.ndarray, top: int,
                    n_nodes: int) -> np.ndarray:
    """Intersection volumes of the balls B(x_i, r_i) of every subset of
    at most top points, as a (subsets x rows) table in the row order of
    _subsets(m, top).

    A subset of two or more points is active on a row unless two of its
    balls are disjoint (_active finds them), the active subsets of one
    size go to _blocked_volume together, and the others hold 0.
    """
    n, m, d = X.shape
    member, by_size = _subsets(m, top)
    disjoint = _disjoint_pairs(X, radii)
    table = np.zeros((len(member), n))
    for i, sub in enumerate(by_size[0][0]):
        table[sub] = unit_ball_volume(d) * radii[i] ** d
    for subs, members, holds in by_size[1:]:
        sub, row = np.nonzero(_active(disjoint, holds))
        if not sub.size:
            continue
        # (balls, entries) in C order, so the volume's temporaries are
        # contiguous along the nodes axis it sums over
        idx = np.ascontiguousarray(members[sub].T)
        table[subs[sub], row] = _blocked_volume(X[row, idx], radii[idx],
                                                n_nodes)
    return table


def _overlapping_triples(X: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Per row, whether some three of its balls B(x_i, r_i) overlap
    pairwise, the only rows where three or more balls can be active:
    _active over the 3-subsets, rows in blocks of at most
    _BLOCK_ELEMENTS (row, 3-subset) flags (one row at least)."""
    n, m, _ = X.shape
    holds = _subsets(m, 3)[1][2][2]
    step = max(1, _BLOCK_ELEMENTS // max(len(holds), 1))
    out = np.zeros(n, dtype=bool)
    for r in range(0, n, step):
        out[r:r + step] = _active(_disjoint_pairs(X[r:r + step], radii),
                                  holds).any(axis=0)
    return out


def _cover_rule(scales: np.ndarray):
    """How covers weigh: (steps, weights). A piece covered by the balls
    C weighs prod_{i in C} (1 - p_i). Its cover is a sum of per-ball
    steps (q, m), log(1 - p_i) where some p < 1 and a count of balls
    with p_i = 1 where some p = 1, so no log(0) enters a sum;
    weights(cover) maps covers (q, ...) to weights (...)."""
    full = scales == 1.0
    if full.all():
        return full[None].astype(float), lambda cover: cover[0] == 0
    logs = np.log1p(-np.where(full, 0.0, scales))
    if not full.any():
        return logs[None], lambda cover: np.exp(cover[0])
    return np.stack([logs, full.astype(float)]), lambda cover: np.where(
        cover[1] == 0, np.exp(cover[0]), 0.0)


def _arc_sums(X: np.ndarray, radii: np.ndarray,
              scales: np.ndarray) -> np.ndarray:
    """integral(prod_j (1 - p_j 1{y in B_j}) - 1) dy over R^2 per row,
    exactly, by Green's theorem. X: (n, m, 2), m >= 2; returns (n,).

    The integrand is constant on each cell of the arrangement of the
    circles, so its integral is a sum over the arcs of each circle i
    between consecutive cuts: an arc adds -p_i prod_{j != i covers it}
    (1 - p_j) times (1/2) integral (x dy - y dx) along it,
    counterclockwise, with the row's first point as origin. Circle j
    cuts circle i at x_i + a u -+ h u', u the unit vector towards x_j,
    u' its quarter turn, a the signed distance to the radical line and h
    the half chord (as in _two_ball_volume): going counterclockwise,
    circle i enters B_j at the first and leaves it at the second. So the
    covers of the arcs of circle i are a cumulative sum over its cuts
    sorted by angle, started at angle 0 from the balls that hold circle
    i whole and those whose arc on it wraps past angle 0. Of two
    coincident equal balls the one of lower index covers the other's
    circle, so their shared boundary counts once. Every reduction runs
    within a row.
    """
    n, m, _ = X.shape
    # the ordered pairs (i, j), j != i: row i of I and J holds circle i
    # and the others in increasing order
    I, J = (a.reshape(m, m - 1) for a in np.nonzero(~np.eye(m, dtype=bool)))
    ri, rj = radii[I], radii[J]
    # each crossing is computed once, from the ball of lower index, so
    # both circles meet at the same two points
    lo, hi = np.minimum(I, J), np.maximum(I, J)
    dx = X[:, hi, 0] - X[:, lo, 0]
    dy = X[:, hi, 1] - X[:, lo, 1]
    t = np.sqrt(squared_lengths((dx, dy)))
    cross = (t > np.abs(ri - rj)) & (t < ri + rj)
    inside = (t <= rj - ri) & ~((t == 0) & (ri == rj) & (J > I))
    # circle lo crosses circle hi at x_lo + a u -+ h u' and enters B_hi at
    # the first, going counterclockwise; circle hi enters B_lo at the
    # second, x_hi - (t - a) u + h u'. The arc of circle i inside B_j
    # starts at its enter cut and spans 2 arctan2(h, the distance from
    # x_i to the radical line), up to 2 pi, so its leave cut and whether
    # it wraps past angle 0 follow from its enter cut without a second
    # rounding that could turn a tiny gap into a near-full arc. The cuts
    # as offsets from x_i, the enter cuts then the leave cuts; a pair
    # that does not cross gives two cuts at angle 0, which change no
    # cover
    rl, rh = radii[lo], radii[hi]
    flip = I > J
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.clip((t * t + (rl - rh) * (rl + rh)) / (2.0 * t), -rl, rl)
        h = np.sqrt((rl - a) * (rl + a)) / t
        a = a / t - flip
        span = 2.0 * np.arctan2(h, np.where(flip, -a, a))
        h = np.where(flip, -h, h)
        both = np.concatenate([cross, cross], axis=-1)
        px = np.where(both, np.concatenate(
            [a * dx + h * dy, a * dx - h * dy], axis=-1), radii[:, None])
        py = np.where(both, np.concatenate(
            [a * dy - h * dx, a * dy + h * dx], axis=-1), 0.0)
    enter = np.arctan2(py[..., :m - 1], px[..., :m - 1])
    enter += np.where(enter < 0, 2.0 * np.pi, 0.0)
    leave = enter + span
    wraps = cross & (leave >= 2.0 * np.pi)
    leave -= np.where(wraps, 2.0 * np.pi, 0.0)
    angle = np.concatenate([enter, np.where(cross, leave, 0.0)], axis=-1)
    # (1/2) integral (x dy - y dx) from angle 0 to each cut, up to a
    # constant per circle: r^2 angle + c x p, c the centre and p the cut
    C = X - X[:, :1]
    green = radii[:, None] ** 2 * angle + C[..., 0, None] * py \
        - C[..., 1, None] * px
    steps, weights = _cover_rule(scales)
    steps = steps[:, None, J]
    init = np.sum(np.where(inside | wraps, steps, 0.0), axis=-1)
    cut = np.where(cross, steps, 0.0)
    cuts = 2 * (m - 1)
    order = np.argsort(angle, axis=-1)
    order += np.arange(0, n * m * cuts, cuts).reshape(n, m, 1)
    green = green.take(order)
    # arc k runs from cut k to cut k + 1, and the last one on to the first
    # cut, 2 pi on, so a circle no other circle cuts is one arc of 2 pi
    green = 0.5 * np.diff(green, axis=-1, append=green[..., :1]
                          + 2.0 * np.pi * radii[:, None] ** 2)
    cover = np.concatenate([cut, -cut], axis=-1).reshape(len(cut), -1)[
        :, order]
    cover[..., 0] += init
    cover = np.cumsum(cover, axis=-1)
    arcs = -scales * np.sum(weights(cover) * green, axis=-1)
    return np.sum(arcs, axis=-1)


def _segment_sums(X: np.ndarray, radii: np.ndarray,
                  scales: np.ndarray) -> np.ndarray:
    """_arc_sums in d = 1: the interval ends cut the line into segments,
    each covered by the intervals over it. Sorted, the 2m ends bound
    2m - 1 segments; a segment's cover is a cumulative sum over the ends
    before it (interval i enters at x_i - r_i and leaves at x_i + r_i),
    and it adds (its weight - 1) times its length. Summed by parts, this
    is the sum over the ends of their signed positions times -p_i times
    the cover of the other intervals there, with no position taken
    against an origin. X: (n, m, 1); returns (n,)."""
    steps, weights = _cover_rule(scales)
    ends = np.concatenate([X[..., 0] - radii, X[..., 0] + radii], axis=-1)
    order = np.argsort(ends, axis=-1)
    ends = np.take_along_axis(ends, order, axis=-1)
    cover = np.concatenate([steps, -steps], axis=-1)[:, order[:, :-1]]
    cover = np.cumsum(cover, axis=-1)
    return np.sum((weights(cover) - 1.0) * np.diff(ends, axis=-1), axis=-1)


def _arrangement_sums(X: np.ndarray, radii: np.ndarray,
                      scales: np.ndarray) -> np.ndarray:
    """_inclusion_exclusion's sum for balls in d <= 2, from the
    arrangement of the balls (_segment_sums in d = 1, _arc_sums in
    d = 2): exact, with no volume table and no quadrature. Rows go in
    blocks of at most _BLOCK_ELEMENTS covers (one row at least): a
    cover per cut and (log, count) channel (_cover_rule)."""
    n, m, d = X.shape
    rule, cuts = (_segment_sums, 2 * m) if d == 1 \
        else (_arc_sums, 2 * m * (m - 1))
    out = np.empty(n)
    step = max(1, _BLOCK_ELEMENTS // (len(_cover_rule(scales)[0]) * cuts))
    for s in range(0, n, step):
        out[s:s + step] = rule(X[s:s + step], radii, scales)
    return out


def _gaussian_integrals(X: np.ndarray, prec: np.ndarray) -> np.ndarray:
    """integral prod_{i in S} exp(-prec_i |y - x_i|^2) dy of every point
    subset S, as a (subsets x rows) table, in closed form.

    With A = sum prec_i and the centre c = sum prec_i x_i / A the integral
    is (pi / A)^(d/2) exp(-q), q = sum prec_i |x_i - c|^2. A subset takes
    its members in increasing order, from the empty subset (A = q = 0,
    c = 0): adding point i to a subset of the points below it gives
    A' = A + w_i, c' = c + (w_i / A')(x_i - c) and
    q' = q + (A w_i / A')|x_i - c|^2 (the weighted Welford update: every
    term is positive, so nothing cancels). One pass per point adds it to
    all subsets of the points below it, so the table costs m numpy passes
    and no loop over subset sizes or members; every operation is
    elementwise, so a row's value does not depend on the other rows.
    """
    n, m, d = X.shape
    norm, shift, gain = _gaussian_steps(tuple(prec), d)
    # by bitmask: the centres of the subsets some later point extends
    centre = np.zeros((1 << (m - 1), n, d))
    spread = np.zeros((1 << m, n))
    diff = np.empty((1 << (m - 1), n, d))
    sq = np.empty((1 << (m - 1), n))
    for i in range(m):
        lo = 1 << i
        new, dl, ql = slice(lo, 2 * lo), diff[:lo], sq[:lo]
        np.subtract(X[:, i], centre[:lo], out=dl)
        np.multiply(dl[..., 0], dl[..., 0], out=ql)
        for a in range(1, d):
            ql += dl[..., a] * dl[..., a]
        ql *= gain[new, None]
        np.add(spread[:lo], ql, out=spread[new])
        if i < m - 1:
            dl *= shift[new, None, None]
            np.add(centre[:lo], dl, out=centre[new])
    table = spread[1:]
    np.negative(table, out=table)
    np.exp(table, out=table)
    table *= norm[:, None]
    return table


@functools.lru_cache(maxsize=32)
def _gaussian_steps(prec: tuple, d: int):
    """Per-subset constants of _gaussian_integrals: the norms
    (pi / A)^(d/2) of the nonempty subsets (row s for bitmask s + 1), each
    the product of d factors sqrt(pi / A), and by bitmask b = b' + 2^i
    (b' below 2^i) the centre weight w_i / A_b and the spread weight
    A_b' w_i / A_b."""
    total = np.zeros(1 << len(prec))
    shift = np.zeros(1 << len(prec))
    gain = np.zeros(1 << len(prec))
    for i, w in enumerate(prec):
        lo = 1 << i
        total[lo:2 * lo] = total[:lo] + w
        shift[lo:2 * lo] = w / total[lo:2 * lo]
        gain[lo:2 * lo] = total[:lo] * w / total[lo:2 * lo]
    root = np.sqrt(math.pi / total[1:])
    norm = root
    for _ in range(d - 1):
        norm = norm * root
    return norm, shift, gain


def indicator_union_exponent(X: np.ndarray, radii, scales,
                             beta: float, n_nodes: int = 64) -> np.ndarray:
    """beta * integral(prod_i (1 - p_i 1{|y-x_i|<=r_i}) - 1) dy, batched.

    X: (n, m, d); radii and scales (the p_i), one per point, each radius
    finite and > 0 and each scale in (0, 1]. A row where no three balls
    overlap pairwise takes exact inclusion-exclusion over its singles
    and pairs (the table with top = 2; every larger subset's volume is
    0). A row with such a triple takes the exact arrangement of its
    balls in d <= 2, and in d >= 3 the table over all subsets, which
    slices volumes of three or more balls with n_nodes nodes.
    """
    radii, scales = _check_points(X, radii=radii, scales=scales)
    n, m, d = X.shape
    triples = _overlapping_triples(X, radii)
    total = np.empty(n)
    for rows, top in ((~triples, 2), (triples, m)):
        if rows.any() and top > 2 and d <= 2:
            total[rows] = _arrangement_sums(X[rows], radii, scales)
        elif rows.any():
            total[rows] = _inclusion_exclusion(
                X[rows], scales, top, functools.partial(
                    _ball_integrals, radii=radii, top=top, n_nodes=n_nodes))
    return beta * total


def _check_points(X: np.ndarray, **values):
    """The named per-point values (radii, widths or scales) as float
    arrays, in order; refuse one unless X has at least one point and it
    holds one value per point, each radius and width finite and > 0 and
    each scale in (0, 1]."""
    m = X.shape[1]
    out = []
    for name, value in values.items():
        value = np.asarray(value, dtype=float)
        if m == 0 or value.shape != (m,):
            raise ValueError(f"{name}: need one value per point of at least "
                             f"one, got shape {value.shape} for {m} points")
        if name == "scales":
            if not np.all((value > 0) & (value <= 1)):
                raise ValueError(f"scales: must lie in (0, 1], got {value!r}")
        elif not np.all((value > 0) & (value < math.inf)):
            raise ValueError(f"{name}: must be finite and > 0, got {value!r}")
        out.append(value)
    return out


def gaussian_union_exponent(X: np.ndarray, widths,
                            beta: float) -> np.ndarray:
    """beta * integral(prod_i (1 - exp(-|y-x_i|^2 / s_i^2)) - 1) dy, batched.

    Exact inclusion-exclusion over point subsets, each term in closed form
    (_gaussian_integrals) with scale 1 and precision 1 / s_i^2: no grid
    and no truncation. X: (n, m, d); widths one per point, each finite
    and > 0.
    """
    (widths,) = _check_points(X, widths=widths)
    prec = 1.0 / (widths * widths)
    return beta * _inclusion_exclusion(
        X, np.ones(len(widths)), len(widths),
        lambda Y: _gaussian_integrals(Y, prec))


def generic_union_exponent(X: np.ndarray, funcs, beta: float,
                           n_nodes: int = 48) -> np.ndarray:
    """beta * integral(prod_i phibar_i(y - x_i) - 1) dy by tensor quadrature.

    Works for any connection function kinds; the integration box covers
    every truncation ball, so the value carries the truncation error of
    EPS_TRUNC and the quadrature error of n_nodes. Only the exponential
    kind and tuples of mixed kinds use it; the indicator and Gaussian
    kinds have exact expansions. X: (n, m, d).

    The grid is a tensor product, so a node differs from a point by one
    offset per axis: the squared distances are broadcast sums of per-axis
    squared offsets, added in coordinate order as a Euclidean norm adds
    them. Rows go in blocks of at most _BLOCK_ELEMENTS grid nodes (one
    row at least); a row's value does not depend on its block.
    """
    n, m, d = X.shape
    reach = np.array([f.truncation_radius() for f in funcs])
    nodes, weights = _gl_nodes(n_nodes)
    wts = weights
    for _ in range(d - 1):
        wts = np.multiply.outer(wts, weights)
    wts = wts.ravel()
    lo = np.min(X - reach[:, None], axis=1)
    hi = np.max(X + reach[:, None], axis=1)
    # axes[s, a] holds the nodes of axis a of row s's box
    axes = lo[..., None] + (nodes + 1.0) * 0.5 * (hi - lo)[..., None]
    scale = np.prod(0.5 * (hi - lo), axis=-1)
    # axis a of the grid as a broadcast shape (rows, 1, .., n_nodes, .., 1)
    shapes = [(-1,) + (1,) * a + (n_nodes,) + (1,) * (d - 1 - a)
              for a in range(d)]
    step = max(1, _BLOCK_ELEMENTS // len(wts))
    out = np.empty(n)
    for s in range(0, n, step):
        prod = 1.0
        for i, f in enumerate(funcs):
            off = (axes[s:s + step] - X[s:s + step, i, :, None]) ** 2
            sq = off[:, 0].reshape(shapes[0])
            for a in range(1, d):
                sq = sq + off[:, a].reshape(shapes[a])
            dist = np.sqrt(sq.reshape(len(off), -1))
            prod = prod * (1.0 - f.phi_of_dist(dist))
        # a row-wise sum, not a matrix-vector product: each row's value
        # must not depend on its block
        out[s:s + step] = np.sum((prod - 1.0) * wts, axis=-1) \
            * scale[s:s + step]
    return beta * out


def _is_indicator(phi: ConnectionFunction) -> bool:
    return phi.kind in ("gilbert", "scaled_indicator")


def mixed_exponent(X: np.ndarray, funcs, beta: float) -> np.ndarray:
    """Interaction exponent for per-point connection functions, batched.

    Tuples of indicator kinds only and of Gaussians only (of any widths)
    have exact expansions (indicator_union_exponent and
    gaussian_union_exponent); the tensor grid of generic_union_exponent
    takes the exponential kind and mixed kinds.
    """
    if all(_is_indicator(f) for f in funcs):
        return indicator_union_exponent(X, [f.r for f in funcs],
                                        [f.p for f in funcs], beta)
    if all(f.kind == "gaussian" for f in funcs):
        return gaussian_union_exponent(X, [f.s for f in funcs], beta)
    return generic_union_exponent(X, funcs, beta)


def q_kl(X1: np.ndarray, X2: np.ndarray, phi: ConnectionFunction,
         psi: ConnectionFunction, beta: float) -> np.ndarray:
    """The two-cluster interaction kernel of the asymptotic covariances.

    X1: (n, k, d) first cluster (anchored at 0), X2: (n, l, d) second
    cluster. Value: cross product of phibar over inter-cluster pairs
    times the joint exponent, minus the product of the two separate
    cluster exponents. Each of the three exponents is its own
    mixed_exponent call, on the joint tuple, on X1 and on X2, so a
    cluster's exponent is bit for bit the one it has on its own.
    """
    k, l = X1.shape[1], X2.shape[1]
    e_joint = mixed_exponent(np.concatenate([X1, X2], axis=1),
                             [phi] * k + [psi] * l, beta)
    e1 = mixed_exponent(X1, [phi] * k, beta)
    e2 = mixed_exponent(X2, [psi] * l, beta)
    return _cross_phibar(X1, X2, phi) * np.exp(e_joint) - np.exp(e1 + e2)


def _cross_phibar(X1: np.ndarray, X2: np.ndarray,
                  phi: ConnectionFunction) -> np.ndarray:
    """Product of phibar over all pairs with one point in each cluster:
    the probability that no phi edge joins the two clusters."""
    cross = np.ones(len(X1))
    for i in range(X1.shape[1]):
        disp = X2 - X1[:, i: i + 1, :]
        dist = np.sqrt(squared_lengths(np.moveaxis(disp, -1, 0)))
        cross *= np.prod(1.0 - phi.phi_of_dist(dist), axis=1)
    return cross


# ---------------------------------------------------------------------------
# spanning-tree importance sampling

def prufer_decode(codes: np.ndarray, k: int):
    """Labeled trees on k vertices from their Pruefer codes, batched.

    codes: (n, k-2) integers in [0, k). Returns (child, parent), each of
    shape (n, k-1): edge e of tree s joins child[s, e] to parent[s, e].
    Edges come in leaf-removal order (smallest leaf first), so every
    tree is rooted at vertex k-1 and each parent is either the root or
    a child of a later edge.
    """
    n = len(codes)
    child = np.empty((n, max(k - 1, 0)), dtype=np.intp)
    parent = np.empty_like(child)
    if k < 2:
        return child, parent
    rows = np.arange(n)
    deg = 1 + np.sum(codes[:, :, None] == np.arange(k), axis=1)
    for i in range(k - 2):
        leaf = np.argmax(deg == 1, axis=1)
        child[:, i] = leaf
        parent[:, i] = codes[:, i]
        deg[rows, leaf] = 0
        deg[rows, codes[:, i]] -= 1
    # two vertices remain, and the larger one is always k-1
    child[:, -1] = np.argmax(deg == 1, axis=1)
    parent[:, -1] = k - 1
    return child, parent


@functools.cache
def _tree_table(k: int):
    """(child, parent) of every labeled tree on k vertices, as
    prufer_decode gives them: row c is the tree whose Pruefer code has
    the base-k digits of c, most significant first. Decoded once per
    process and read-only, since every ClusterProposal of order k
    shares it."""
    m = max(k - 2, 0)
    codes = np.array(list(itertools.product(range(k), repeat=m)),
                     dtype=np.intp).reshape(k ** m, m)
    child, parent = prufer_decode(codes, k)
    child.flags.writeable = parent.flags.writeable = False
    return child, parent


class ClusterProposal(RadialProposal):
    """Positions of a k-cluster drawn along uniformly mixed labeled trees.

    Each sample picks one of the k^(k-2) labeled trees through a uniform
    Pruefer code and joins every tree edge by an iid displacement with
    radial density proportional to phi_tilde(t)^(1/3) t^(d-1); the
    cluster is then shifted so that the anchor vertex 0 sits at the
    origin. The proposal density is the uniform mixture over all
    labeled trees of the products of the edge densities f, which covers
    every configuration the integrand can reach. By Kirchhoff's
    matrix-tree theorem that sum over trees is the determinant of the
    weighted Laplacian with weights f(|x_i - x_j|), vertex 0 deleted.

    The trees come from the per-process table of all decoded codes
    (_tree_table) and the radii from the cached radial grid, so a draw
    is table lookups; k is at most ENUM_CAP, which bounds the table.
    """

    def __init__(self, phi: ConnectionFunction, k: int):
        if k > ENUM_CAP:
            raise ValueError(f"order beyond enumeration cap {ENUM_CAP}")
        super().__init__(phi)
        self.k = k
        # Pruefer indices of the labeled trees the proposal mixes over
        self.trees = range(k ** max(k - 2, 0))
        self._child, self._parent = _tree_table(k)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        k, d = self.k, self.d
        if k == 1:
            return np.zeros((n, k, d))
        codes = rng.integers(0, k, size=(n, k - 2))
        tree = codes @ k ** np.arange(k - 3, -1, -1)
        child, parent = self._child[tree], self._parent[tree]
        disp = self._displacements(rng, n * (k - 1))[0].reshape(n, k - 1, d)
        # coordinate c of vertex v of sample s is X[c, s*k + v], so each
        # placement is a 1-d gather and scatter; the root k-1 sits at the
        # origin, and later edges hold the parents
        X = np.zeros((d, n * k))
        base = np.arange(0, n * k, k)
        for e in range(k - 2, -1, -1):
            to, frm = base + child[:, e], base + parent[:, e]
            for c, Xc in enumerate(X):
                Xc[to] = Xc.take(frm) + disp[:, e, c]
        X = X.T.reshape(n, k, d)
        return np.subtract(X, X[:, :1, :], order="C")

    def density(self, X: np.ndarray) -> np.ndarray:
        n, k, _ = X.shape
        if k == 1:
            return np.ones(n)
        iu = np.triu_indices(k, 1)
        w = self._disp_density(_pair_dists(X))
        lap = np.zeros((n, k, k))
        lap[:, iu[0], iu[1]] = -w
        lap[:, iu[1], iu[0]] = -w
        diag = np.arange(k)
        lap[:, diag, diag] = -lap.sum(axis=2)
        return np.linalg.det(lap[:, 1:, 1:]) / len(self.trees)


class AnchorProposal(RadialProposal):
    """Second-cluster anchor around a uniformly chosen first-cluster point.

    The radial profile is the dominator profile widened by a factor
    large enough to cover every configuration where the two-cluster
    kernel is nonzero.
    """

    def __init__(self, phi: ConnectionFunction, widen: float):
        super().__init__(phi, widen)

    def sample(self, rng: np.random.Generator, X1: np.ndarray) -> np.ndarray:
        n, k, d = X1.shape
        pick = rng.integers(0, k, size=n)
        return X1[np.arange(n), pick, :] + self._displacements(rng, n)[0]

    def density(self, X1: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        diff = anchor[:, None, :] - X1
        dist = np.sqrt(squared_lengths(np.moveaxis(diff, -1, 0)))
        return np.mean(self._disp_density(dist), axis=1)


def _lexmin_ids(X: np.ndarray) -> np.ndarray:
    """Row of each cluster's lexicographically smallest point in
    X.reshape(-1, d), by the census rule (census._lexmin, one label per
    cluster): a tie in one coordinate is decided by the next, and a
    point that repeats is the minimum at its smallest index."""
    n, k, d = X.shape
    return _lexmin(X.reshape(n * k, d), np.repeat(np.arange(n), k), n)


def _is_anchor_lexmin(X: np.ndarray) -> np.ndarray:
    """True when vertex 0 of each cluster is its lexicographic minimum."""
    return _lexmin_ids(X) == X.shape[1] * np.arange(len(X))


def _lexmin_points(X: np.ndarray) -> np.ndarray:
    """The lexicographically smallest point of each sample's cluster."""
    return X.reshape(-1, X.shape[2])[_lexmin_ids(X)]


# ---------------------------------------------------------------------------
# Monte Carlo driver

# Draws per batch of the driver below. A batch reads the random stream
# in one piece, so changing a size changes every estimate.
_PAIR_BATCH = 20000
_SINGLE_BATCH = 40000

def _mc_estimate(weights: np.ndarray, scale: float) -> tuple[float, float]:
    """scale times the sample mean of the draws, and its standard error."""
    n = len(weights)
    if n < 2:
        raise ValueError("a Monte Carlo estimate needs at least 2 draws")
    mean = float(np.mean(weights))
    se = float(np.std(weights, ddof=1) / math.sqrt(n))
    return scale * mean, scale * se


def _mc_moment(values: np.ndarray, scale: float,
               truncation_radius: float) -> MomentEstimate:
    """The Monte Carlo estimate of scale * E[value] from per-draw values:
    the one rule by which draws become a MomentEstimate."""
    value, se = _mc_estimate(values, scale)
    return MomentEstimate(value=value, std_error=se, n_samples=len(values),
                          truncation_radius=truncation_radius,
                          method="monte_carlo")


def _linear_combination(terms) -> MomentEstimate:
    """sum_k c_k X_k of independent estimates X_k, for terms (c_k, X_k):
    the values added in order starting from +0.0, as analysis.combine
    adds counts, and the standard errors in quadrature. The sample count,
    truncation radius and method are those of the first term."""
    terms = [(float(c), est) for c, est in terms]
    value = 0.0
    for c, est in terms:
        value = value + c * est.value
    return replace(
        terms[0][1], value=value,
        std_error=math.hypot(*(c * est.std_error for c, est in terms)))


def _sqrt_estimate(prefactor: float, est: MomentEstimate) -> MomentEstimate:
    """prefactor * sqrt(X) of an estimate X, by the delta method; at a
    root of 0 the standard error is prefactor * sqrt(se)."""
    root = math.sqrt(max(est.value, 0.0))
    root_se = (0.5 * est.std_error / root if root > 0
               else math.sqrt(max(est.std_error, 0.0)))
    return replace(est, value=prefactor * root,
                   std_error=prefactor * root_se)


def _importance_mc(phi, beta, k, prob_fn, kernel_fn, n_samples, seed,
                   second=None):
    """Importance-sampled integral of prob_fn(*Xs) * kernel_fn(*Xs).

    Xs is one k-cluster of phi points anchored at the origin or, with
    second = (psi, l, anchor), that cluster and an l-cluster of psi
    points whose anchor `anchor` draws given the first. Each batch reads
    the stream as X1, then the anchor, then X2. The sorted indicators'
    combinatorial factors are applied here. Rows whose first cluster is
    not anchored at its lexicographic minimum get weight 0 and no
    probability; rows whose probability is 0 get weight 0 and no
    proposal density; rows whose proposal density is 0 get weight 0 and
    no kernel. Each of these evaluations is row by row, so a row's
    weight p * kernel * factor / density is the one an evaluation of
    every row would give.
    """
    n_samples = _check_order("n_samples", n_samples, 2)
    rng = np.random.default_rng(_check_order("seed", seed, 0))
    prop1 = ClusterProposal(phi, k)
    if second is None:
        batch, n_points = _SINGLE_BATCH, k
        factor = 1.0 / math.factorial(k - 1)
    else:
        psi, l, anchor = second
        prop2 = ClusterProposal(psi, l)
        batch, n_points = _PAIR_BATCH, k + l
        factor = 1.0 / (math.factorial(k - 1) * math.factorial(l))
    weights = np.zeros(n_samples)
    for done in range(0, n_samples, batch):
        m = min(batch, n_samples - done)
        X1 = prop1.sample(rng, m)
        if second is None:
            Xs = (X1,)
        else:
            a2 = anchor.sample(rng, X1)
            X2rel = prop2.sample(rng, m)
            Xs = (X1, X2rel + a2[:, None, :])
        rows = np.flatnonzero(_is_anchor_lexmin(X1))
        p = prob_fn(*(X[rows] for X in Xs))
        live = p != 0
        rows, p = rows[live], p[live]
        dens = prop1.density(X1[rows])
        if second is not None:
            dens = dens * anchor.density(X1[rows], a2[rows]) \
                * prop2.density(X2rel[rows])
        keep = dens > 0
        rows, p, dens = rows[keep], p[keep], dens[keep]
        if rows.size:
            weights[done + rows] = p * kernel_fn(*(X[rows] for X in Xs)) \
                * factor / dens
    return _mc_moment(weights, beta ** n_points, phi.truncation_radius())


def _cluster_kernel(phi, beta, k):
    """exp of the interaction exponent of a k-cluster of phi points."""
    return lambda X: np.exp(mixed_exponent(X, [phi] * k, beta))


def _second_moment(k, l, prob1, prob2, diag_prob, kernel, phi, psi, beta,
                   n_samples, seed) -> MomentEstimate:
    """A second moment of a count of k-clusters under phi and one of
    l-clusters under psi; prob1 and prob2 map per-pair edge
    probabilities to the clusters' class probabilities.

    Two-cluster term: prob1 * prob2 * kernel(X1, X2), with the second
    cluster's anchor drawn by an AnchorProposal around the first
    cluster. Shared-tuple term, for equal orders only: both counts see
    the same k-tuple and diag_prob maps (pe_phi, pe_psi) to the coupled
    class probability; it has its own stream at seed + 1 and
    max(n_samples // 2, 1000) draws.
    """
    if not phi.dominates(psi):
        raise ValueError("psi must be dominated by phi")
    if max(k, l) > ENUM_CAP:
        raise ValueError(f"order beyond enumeration cap {ENUM_CAP}")
    anchor = AnchorProposal(phi, widen=float(l + 2))
    terms = [(1.0, _importance_mc(
        phi, beta, k, lambda X1, X2: prob1(_pair_values(X1, phi))
        * prob2(_pair_values(X2, psi)), kernel, n_samples, seed,
        second=(psi, l, anchor)))]
    if k == l:
        n_shared = max(n_samples // 2, 1000)
        terms.append((1.0, _importance_mc(
            phi, beta, k,
            lambda X: diag_prob(_pair_values(X, phi), _pair_values(X, psi)),
            _cluster_kernel(phi, beta, k), n_shared, seed + 1)))
    return _linear_combination(terms)


# ---------------------------------------------------------------------------
# public operations

def expected_count_intensity(G: GraphClass, phi: ConnectionFunction,
                             beta: float, n_samples: int = 200000,
                             seed: int = 0) -> MomentEstimate:
    """Per-volume intensity rho_G of components isomorphic to G."""
    _check_beta(beta)
    check_canonical(G)
    k = G.order
    if k > ENUM_CAP:
        raise ValueError(f"order beyond enumeration cap {ENUM_CAP}")
    if k == 1:
        return MomentEstimate(value=beta * math.exp(-beta * phi.m_phi),
                              std_error=0.0, n_samples=0,
                              truncation_radius=phi.truncation_radius(),
                              method="closed_form")
    return _importance_mc(
        phi, beta, k, lambda X: prob_isomorphic(_pair_values(X, phi), G),
        _cluster_kernel(phi, beta, k), n_samples, seed)


def window_overlap_volume(window: Window, x):
    """Volume of the window intersected with itself shifted by x: a float
    for one shift x (d,), one volume per row for shifts x (..., d). For
    a ball window of radius R it is the lens of B(0, R) and B(x, R)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != window.dim:
        raise ValueError(f"shifts need the window's dimension {window.dim} "
                         f"in their last axis, got shape {x.shape}")
    if window.shape == "box":
        vol = np.prod(np.maximum(0.0, 2.0 * window.extent - np.abs(x)),
                      axis=-1)
    else:
        shifts = x.reshape(-1, window.dim)
        vol = _two_ball_volume(
            np.stack([np.zeros_like(shifts), shifts]),
            np.full((2, len(shifts)), window.extent)).reshape(x.shape[:-1])
    return float(vol) if vol.ndim == 0 else vol


def _class_cov(G: GraphClass, H: GraphClass, phi: ConnectionFunction,
               psi: ConnectionFunction, beta: float, kernel, n_samples: int,
               seed: int) -> MomentEstimate:
    """Covariance per unit volume of the count of G-components under phi
    and of H-components under psi, with the two-cluster kernel `kernel`."""
    _check_beta(beta)
    check_canonical(G)
    check_canonical(H)
    return _second_moment(
        G.order, H.order, lambda pe: prob_isomorphic(pe, G),
        lambda pe: prob_isomorphic(pe, H),
        lambda a, b: joint_prob_coupled(a, b, G, H), kernel, phi, psi, beta,
        n_samples, seed)


def asy_cov(G: GraphClass, H: GraphClass, phi: ConnectionFunction,
            psi: ConnectionFunction, beta: float,
            n_samples: int = 200000, seed: int = 0) -> MomentEstimate:
    """Asymptotic covariance per unit volume of the two class counts;
    with psi != phi and G.order > H.order the nested term is missing."""
    return _class_cov(G, H, phi, psi, beta,
                      lambda X1, X2: q_kl(X1, X2, phi, psi, beta),
                      n_samples, seed)


def finite_window_cov(G: GraphClass, H: GraphClass, phi: ConnectionFunction,
                      psi: ConnectionFunction, window: Window, beta: float,
                      n_samples: int = 200000,
                      seed: int = 0) -> MomentEstimate:
    """Cov(count_G under phi, count_H under psi) / |W| on one window W,
    each component counted when its lexicographic minimum lies in W.

    The asymptotic covariance with its two-cluster kernel q_kl weighted
    by |W intersected with W + x| / |W|, x the second cluster's lexmin
    point (the first cluster's is the origin); the weight tends to 1 as
    W grows. The shared-tuple term is asy_cov's, and so is the missing
    nested term for psi != phi and G.order > H.order.
    """
    _check_dimension(window, phi)
    if not window.volume > 0:
        raise ValueError("window: a covariance per volume needs a window of "
                         "positive volume")

    def kernel(X1, X2):
        return q_kl(X1, X2, phi, psi, beta) * window_overlap_volume(
            window, _lexmin_points(X2)) / window.volume

    return _class_cov(G, H, phi, psi, beta, kernel, n_samples, seed)


def asy_cov_kl(k: int, l: int, phi: ConnectionFunction,
               psi: ConnectionFunction, beta: float,
               n_samples: int = 200000, seed: int = 0) -> MomentEstimate:
    """Asymptotic covariance per unit volume of the two order counts.

    The shared-tuple term requires both coupled graphs to be connected;
    with nested edge sets that event is connectivity of the sparser
    graph, so the diagonal uses the psi connectivity probability. With
    psi != phi and k > l the nested term is missing.
    """
    _check_beta(beta)
    k, l = _check_order("k", k), _check_order("l", l)
    return _second_moment(
        k, l, lambda pe: prob_connected(pe, k),
        lambda pe: prob_connected(pe, l),
        lambda a, b: prob_connected(b, k),
        lambda X1, X2: q_kl(X1, X2, phi, psi, beta), phi, psi, beta,
        n_samples, seed)


def _estimate_matrix(m: int, entry):
    """The symmetric m x m matrix of the estimates entry(i, j), each
    computed once, for i <= j: its rows of MomentEstimates, and the
    arrays of their values and of their standard errors."""
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = entry(i, j)
    return (rows, np.array([[e.value for e in row] for row in rows]),
            np.array([[e.std_error for e in row] for row in rows]))


def _quadratic_form(a, rows) -> MomentEstimate:
    """sum_ij a_i a_j X_ij of a symmetric matrix of independent estimates
    (rows, read in its leading len(a) x len(a) block): the upper triangle
    row by row, each entry off the diagonal twice."""
    m = len(a)
    return _linear_combination(
        (a[i] * a[j] * (1.0 if i == j else 2.0), rows[i][j])
        for i in range(m) for j in range(i, m))


def asy_var_quadratic(a, classes, phi: ConnectionFunction, beta: float,
                      n_samples: int = 200000, seed: int = 0):
    """Quadratic form sum_ij a_i a_j sigma(G_i, G_j) with its error.

    Returns (estimate, matrix, matrix_errors); entry (i, j), i <= j, uses
    seed + 97*(i*m + j).
    """
    _check_beta(beta)
    a = _check_weights("a", a)
    seed = _check_order("seed", seed, 0)
    classes = list(classes)
    if not np.any(a != 0):
        raise ValueError("weights must not all vanish")
    if len(a) != len(classes):
        raise ValueError("weight and class lists differ in length")
    for G in classes:
        check_canonical(G)
    m = len(classes)
    rows, mat, err = _estimate_matrix(m, lambda i, j: asy_cov(
        classes[i], classes[j], phi, phi, beta, n_samples=n_samples,
        seed=seed + 97 * (i * m + j)))
    return _quadratic_form(a, rows), mat, err


def sigma_total_partial(m: int, phi: ConnectionFunction, beta: float,
                        n_samples: int = 200000, seed: int = 0):
    """Partial sums sum_{i,j<=m'} sigma^(i,j) for m' = 1..m; the pair of
    orders (i, j), i <= j, uses seed + 131*(i*(m+1) + j).

    Returns (estimate_of_level_m, list_of_partial_sum_estimates).
    """
    _check_beta(beta)
    m = _check_order("m", m)
    seed = _check_order("seed", seed, 0)
    if m > ENUM_CAP:
        raise ValueError(f"order beyond enumeration cap {ENUM_CAP}")
    rows, _, _ = _estimate_matrix(m, lambda i, j: asy_cov_kl(
        i + 1, j + 1, phi, phi, beta, n_samples=n_samples,
        seed=seed + 131 * ((i + 1) * (m + 1) + j + 1)))
    partials = [_quadratic_form([1.0] * level, rows)
                for level in range(1, m + 1)]
    return partials[-1], partials
