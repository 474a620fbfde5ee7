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
theorem).

Sorted-tuple indicators are removed analytically: the remaining
integrand is symmetric under relabeling the free points of a cluster, so
1{x_1 < ... < x_k} integrates to 1/(k-1)! times the unsorted integrand
restricted to configurations whose anchor is the lexicographic minimum.

Every Monte Carlo integrand is a graph probability times an interaction
kernel (the exponential of the interaction exponent, or the two-cluster
kernel). The drivers evaluate the probability only on draws that pass
the lexmin test and have positive proposal density, and the costly
kernel only on those of them whose probability is nonzero; for the
indicator kinds that is a small share of the draws. Every reduction in
the kernels runs row by row, so a draw's kernel value does not depend
on which other draws share its batch, and each estimate is bit for bit
the one a kernel evaluated on every draw would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .census import GraphClass, permuted_bits
from .connection import ConnectionFunction, RadialProposal
from .geometry import Window, lex_order, unit_ball_volume

ENUM_CAP = 6


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    std_error: float
    n_samples: int
    truncation_radius: float
    method: str    # closed_form | quadrature | monte_carlo

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


# ---------------------------------------------------------------------------
# pair bookkeeping and graph probabilities

def _pair_dists(X: np.ndarray) -> np.ndarray:
    """Distances of all point pairs of X (n, k, d) -> (n, npairs), in
    np.triu_indices(k, 1) order."""
    i, j = np.triu_indices(X.shape[1], 1)
    disp = X[:, i, :] - X[:, j, :]
    return np.sqrt(np.einsum("nij,nij->ni", disp, disp))


def _pair_values(X: np.ndarray, func: ConnectionFunction) -> np.ndarray:
    """func evaluated on all point pairs of X (n, k, d) -> (n, npairs)."""
    return func.phi_of_dist(_pair_dists(X))


_iso_cache: dict = {}


def iso_masks(G: GraphClass):
    """All labeled edge subsets isomorphic to G, as a (m, npairs) bool
    array, in the order the vertex permutations first reach them."""
    if G not in _iso_cache:
        bits = permuted_bits(G.adjacency())
        _, first = np.unique(bits, axis=0, return_index=True)
        _iso_cache[G] = bits[np.sort(first)]
    return _iso_cache[G]


def prob_isomorphic(pe: np.ndarray, G: GraphClass) -> np.ndarray:
    """P(labeled RCM on the tuple is isomorphic to G) per sample.

    pe holds the per-pair edge probabilities in upper-triangular order.
    """
    masks = iso_masks(G)
    qe = 1.0 - pe
    out = np.zeros(len(pe))
    for bits in masks:
        out += np.prod(np.where(bits[None, :], pe, qe), axis=1)
    return out


def prob_connected(pe: np.ndarray, k: int) -> np.ndarray:
    """P(labeled RCM on the k-tuple is connected) per sample."""
    n = len(pe)
    if k == 1:
        return np.ones(n)
    iu = np.triu_indices(k, 1)
    pair_of = {}
    for e, (i, j) in enumerate(zip(*iu)):
        pair_of[(int(i), int(j))] = e
        pair_of[(int(j), int(i))] = e
    qe = 1.0 - pe
    # qv[j][mask] = P(no edge between vertex j and any vertex in mask)
    qv = [dict() for _ in range(k)]
    for j in range(k):
        qv[j][0] = np.ones(n)
        for mask in range(1, 1 << k):
            if (mask >> j) & 1:
                continue
            low = mask & -mask
            i = low.bit_length() - 1
            qv[j][mask] = qv[j][mask ^ low] * qe[:, pair_of[(i, j)]]
    conn = {0: np.zeros(n)}
    for mask in range(1, 1 << k):
        anchor = mask & -mask
        bits = [j for j in range(k) if (mask >> j) & 1]
        if len(bits) == 1:
            conn[mask] = np.ones(n)
            continue
        total = np.ones(n)
        sub = (mask - 1) & mask
        while sub:
            if sub & anchor and sub != mask:
                rest = mask ^ sub
                cross = np.ones(n)
                for j in range(k):
                    if (rest >> j) & 1:
                        cross = cross * qv[j][sub]
                total = total - conn[sub] * cross
            sub = (sub - 1) & mask
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
    both = pe_psi
    only_phi = pe_phi - pe_psi
    neither = 1.0 - pe_phi
    out = np.zeros(len(pe_phi))
    for mphi in iso_masks(G):
        for mpsi in iso_masks(H):
            if np.any(mpsi & ~mphi):
                continue
            band = np.where(mpsi[None, :], both,
                            np.where(mphi[None, :], only_phi, neither))
            out += np.prod(band, axis=1)
    return out


# ---------------------------------------------------------------------------
# interaction exponents

_gl_cache: dict = {}


def _gl_nodes(n: int):
    if n not in _gl_cache:
        _gl_cache[n] = roots_legendre(n)
    return _gl_cache[n]


def _balls_intersection_volume(centers: np.ndarray, radii: np.ndarray,
                               n_nodes: int = 64) -> np.ndarray:
    """Volume of the intersection of balls B(c_i, r_i), batched.

    centers: (n, m, d) with d in {1, 2}; radii: (m,). The intersection
    is convex, so in d=2 its area is the integral over the first
    coordinate of the chord overlap length (Gauss-Legendre nodes).
    """
    n, m, d = centers.shape
    if d == 1:
        lo = np.max(centers[:, :, 0] - radii[None, :], axis=1)
        hi = np.min(centers[:, :, 0] + radii[None, :], axis=1)
        return np.maximum(0.0, hi - lo)
    if d != 2:
        raise NotImplementedError("exact ball intersections only for d <= 2")
    lo = np.max(centers[:, :, 0] - radii[None, :], axis=1)
    hi = np.min(centers[:, :, 0] + radii[None, :], axis=1)
    width = np.maximum(0.0, hi - lo)
    nodes, weights = _gl_nodes(n_nodes)
    x = lo[:, None] + (nodes[None, :] + 1.0) * 0.5 * width[:, None]
    dx = x[:, :, None] - centers[:, None, :, 0]
    half = np.sqrt(np.maximum(0.0, radii[None, None, :] ** 2 - dx ** 2))
    upper = np.min(centers[:, None, :, 1] + half, axis=2)
    lower = np.max(centers[:, None, :, 1] - half, axis=2)
    chord = np.maximum(0.0, upper - lower)
    # a row-wise sum, not a matrix-vector product: BLAS results depend on
    # the batch, and each row's volume must not
    return 0.5 * width * np.sum(chord * weights, axis=1)


def indicator_union_exponent(X: np.ndarray, radii, scales,
                             beta: float, n_nodes: int = 64) -> np.ndarray:
    """beta * integral(prod_i (1 - p_i 1{|y-x_i|<=r_i}) - 1) dy, batched.

    Exact inclusion-exclusion over point subsets; each term is a volume
    of an intersection of balls. X: (n, m, d).
    """
    n, m, d = X.shape
    radii = np.asarray(radii, dtype=float)
    scales = np.asarray(scales, dtype=float)
    iu = np.triu_indices(m, 1)
    disjoint = _pair_dists(X) >= (radii[iu[0]] + radii[iu[1]])[None, :]
    total = np.zeros(n)
    for sub in range(1, 1 << m):
        members = [i for i in range(m) if (sub >> i) & 1]
        coef = np.prod(-scales[members])
        if len(members) == 1:
            i = members[0]
            vol = np.full(n, unit_ball_volume(d) * radii[i] ** d)
            total = total + coef * vol
            continue
        active = np.ones(n, dtype=bool)
        for e, (i, j) in enumerate(zip(*iu)):
            if (sub >> int(i)) & 1 and (sub >> int(j)) & 1:
                active &= ~disjoint[:, e]
        if not active.any():
            continue
        vol = np.zeros(n)
        vol[active] = _balls_intersection_volume(
            X[active][:, members, :], radii[members], n_nodes=n_nodes)
        total = total + coef * vol
    return beta * total


def generic_union_exponent(X: np.ndarray, funcs, beta: float,
                           n_nodes: int = 48) -> np.ndarray:
    """beta * integral(prod_i phibar_i(y - x_i) - 1) dy by tensor quadrature.

    Works for any connection function kinds; the integration box covers
    every truncation ball. Used for smooth kinds where the subset
    expansion does not apply.
    """
    n, m, d = X.shape
    reach = np.array([f.truncation_radius() for f in funcs])
    nodes, weights = _gl_nodes(n_nodes)
    out = np.empty(n)
    for s in range(n):
        lo = np.min(X[s] - reach[:, None], axis=0)
        hi = np.max(X[s] + reach[:, None], axis=0)
        axes = [lo[a] + (nodes + 1.0) * 0.5 * (hi[a] - lo[a]) for a in range(d)]
        grids = np.meshgrid(*axes, indexing="ij")
        Y = np.stack([g.ravel() for g in grids], axis=-1)
        prod = np.ones(len(Y))
        for i, f in enumerate(funcs):
            dist = np.linalg.norm(Y - X[s, i], axis=1)
            prod *= 1.0 - f.phi_of_dist(dist)
        wts = weights
        for _ in range(d - 1):
            wts = np.multiply.outer(wts, weights)
        scale = np.prod(0.5 * (hi - lo))
        out[s] = np.sum((prod - 1.0) * wts.ravel()) * scale
    return beta * out


def _is_indicator(phi: ConnectionFunction) -> bool:
    return phi.kind in ("gilbert", "scaled_indicator")


def cluster_exponent_supported(phi: ConnectionFunction) -> bool:
    """Whether mixed_exponent can evaluate clusters of two or more points
    of phi: exact ball intersections for indicator kinds exist only in
    d <= 2."""
    return not _is_indicator(phi) or phi.dim <= 2


def _indicator_params(phi: ConnectionFunction):
    if phi.kind == "gilbert":
        return phi.r, 1.0
    return phi.r, phi.p


def mixed_exponent(X: np.ndarray, funcs, beta: float) -> np.ndarray:
    """Interaction exponent for per-point connection functions, batched."""
    if all(_is_indicator(f) for f in funcs):
        radii = [_indicator_params(f)[0] for f in funcs]
        scales = [_indicator_params(f)[1] for f in funcs]
        return indicator_union_exponent(X, radii, scales, beta)
    return generic_union_exponent(X, funcs, beta)


def inner_exponent(x, phi: ConnectionFunction, beta: float) -> float:
    """beta * integral(prod_i phibar(y - x_i) - 1) dy for one tuple.

    For indicator kinds in d <= 2 this is the inclusion-exclusion sum of
    indicator_union_exponent, with exact interval lengths in d = 1 and
    Gauss-Legendre chord integration on 1024 nodes in d = 2 (about 1e-7
    relative where lens boundaries kink the chord length). Smooth kinds
    and indicators in d >= 3 use tensor Gauss-Legendre quadrature.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.ndim != 2:
        raise ValueError("x must be a (k, d) array")
    k, d = X.shape
    if len(np.unique(X, axis=0)) != k:
        raise ValueError("points must be distinct")
    if k == 1:
        return -beta * phi.m_phi
    if _is_indicator(phi) and d <= 2:
        r, p = _indicator_params(phi)
        return float(indicator_union_exponent(X[None], [r] * k, [p] * k,
                                              beta, n_nodes=1024)[0])
    return float(generic_union_exponent(X[None, :, :], [phi] * k, beta,
                                        n_nodes=96)[0])


def q_kl(X1: np.ndarray, X2: np.ndarray, phi: ConnectionFunction,
         psi: ConnectionFunction, beta: float) -> np.ndarray:
    """The two-cluster interaction kernel of the asymptotic covariances.

    X1: (n, k, d) first cluster (anchored at 0), X2: (n, l, d) second
    cluster. Value: cross product of phibar over inter-cluster pairs
    times the joint exponent, minus the product of the two separate
    cluster exponents.
    """
    k, l = X1.shape[1], X2.shape[1]
    Xall = np.concatenate([X1, X2], axis=1)
    e_joint = mixed_exponent(Xall, [phi] * k + [psi] * l, beta)
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
        dist = np.sqrt(np.einsum("nij,nij->ni", disp, disp))
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
    """

    def __init__(self, phi: ConnectionFunction, k: int):
        super().__init__(phi)
        self.k = k
        # Pruefer indices of the labeled trees the proposal mixes over
        self.trees = range(k ** max(k - 2, 0))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        k, d = self.k, self.d
        X = np.zeros((n, k, d))
        if k == 1:
            return X
        child, parent = prufer_decode(rng.integers(0, k, size=(n, k - 2)), k)
        disp = self._displacements(rng, n * (k - 1))[0].reshape(n, k - 1, d)
        rows = np.arange(n)
        # the root k-1 sits at the origin; later edges hold the parents
        for e in range(k - 2, -1, -1):
            X[rows, child[:, e]] = X[rows, parent[:, e]] + disp[:, e]
        return X - X[:, :1, :]

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
        dist = np.sqrt(np.einsum("nij,nij->ni", diff, diff))
        return np.mean(self._disp_density(dist), axis=1)


class BoxAnchor:
    """Second-cluster anchor drawn uniformly from the cube [-half, half]^d,
    whatever the first cluster; same interface as AnchorProposal."""

    def __init__(self, half: float, d: int):
        self.half = half
        self.d = d
        self._density = 1.0 / (2.0 * half) ** d

    def sample(self, rng: np.random.Generator, X1: np.ndarray) -> np.ndarray:
        return rng.uniform(-self.half, self.half, size=(len(X1), self.d))

    def density(self, X1: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        return np.full(len(anchor), self._density)


def _is_anchor_lexmin(X: np.ndarray) -> np.ndarray:
    """True when vertex 0 of each cluster is its lexicographic minimum."""
    n, k, d = X.shape
    if k == 1:
        return np.ones(n, dtype=bool)
    strictly_greater = np.zeros((n, k - 1), dtype=bool)
    undecided = np.ones((n, k - 1), dtype=bool)
    for a in range(d):
        col = X[:, 1:, a] - X[:, 0:1, a]
        strictly_greater |= undecided & (col > 0)
        undecided &= col == 0
    return np.all(strictly_greater, axis=1)


def _lexmin_points(X: np.ndarray) -> np.ndarray:
    """The lexicographically smallest point of each sample's cluster.

    Continuous coordinates make first-coordinate ties a null event, so
    the first coordinate alone decides the minimum.
    """
    idx = np.argmin(X[:, :, 0], axis=1)
    return X[np.arange(len(X)), idx, :]


# ---------------------------------------------------------------------------
# Monte Carlo drivers

# Draws per batch of the drivers below. A batch reads the random stream
# in one piece, so changing a size changes every estimate.
_PAIR_BATCH = 20000
_SINGLE_BATCH = 40000

def _mc_estimate(weights: np.ndarray, scale: float) -> tuple[float, float]:
    n = len(weights)
    mean = float(np.mean(weights))
    se = float(np.std(weights, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return scale * mean, scale * se


def _importance_weights(Xs, dens, factor, prob_fn, kernel_fn):
    """prob * kernel * factor / dens for one chunk of draws Xs.

    Rows whose anchor cluster Xs[0] is not anchored at its lexicographic
    minimum, or whose proposal density is 0, get weight 0 and no
    probability; rows whose probability is 0 get weight 0 and no kernel.
    """
    w = np.zeros(len(dens))
    rows = np.flatnonzero(_is_anchor_lexmin(Xs[0]) & (dens > 0))
    if rows.size:
        p = prob_fn(*(X[rows] for X in Xs))
        live = p != 0
        rows, p = rows[live], p[live]
        if rows.size:
            w[rows] = p * kernel_fn(*(X[rows] for X in Xs)) \
                * factor / dens[rows]
    return w


def _cluster_pair_mc(phi, psi, beta, k, l, prob_fn, kernel_fn, n_samples,
                     seed, anchor=None):
    """Generic two-cluster importance-sampled integral.

    The integrand is prob_fn(X1, X2) * kernel_fn(X1, X2) per sample; the
    sorted indicators' combinatorial factors are applied here. The
    second cluster's anchor comes from `anchor` (default: an
    AnchorProposal around the first cluster).
    """
    rng = np.random.default_rng(seed)
    prop1 = ClusterProposal(phi, k)
    prop2 = ClusterProposal(psi, l)
    if anchor is None:
        anchor = AnchorProposal(phi, widen=float(l + 2))
    factor = 1.0 / (math.factorial(k - 1) * math.factorial(l))
    weights = np.empty(n_samples)
    done = 0
    while done < n_samples:
        m = min(_PAIR_BATCH, n_samples - done)
        X1 = prop1.sample(rng, m)
        a2 = anchor.sample(rng, X1)
        X2rel = prop2.sample(rng, m)
        X2 = X2rel + a2[:, None, :]
        dens = prop1.density(X1) * anchor.density(X1, a2) * prop2.density(X2rel)
        weights[done:done + m] = _importance_weights(
            (X1, X2), dens, factor, prob_fn, kernel_fn)
        done += m
    return _mc_estimate(weights, beta ** (k + l))


def _single_cluster_mc(phi, beta, k, prob_fn, kernel_fn, n_samples, seed):
    """Importance-sampled integral of prob_fn(X) * kernel_fn(X) over one
    anchored cluster."""
    rng = np.random.default_rng(seed)
    prop = ClusterProposal(phi, k)
    factor = 1.0 / math.factorial(k - 1)
    weights = np.empty(n_samples)
    done = 0
    while done < n_samples:
        m = min(_SINGLE_BATCH, n_samples - done)
        X = prop.sample(rng, m)
        weights[done:done + m] = _importance_weights(
            (X,), prop.density(X), factor, prob_fn, kernel_fn)
        done += m
    return _mc_estimate(weights, beta ** k)


def _cluster_kernel(phi, beta, k):
    """exp of the interaction exponent of a k-cluster of phi points."""
    return lambda X: np.exp(mixed_exponent(X, [phi] * k, beta))


def _shared_tuple_mc(phi, psi, beta, k, diag_prob, n_samples, seed):
    """Term of a second moment where both counts see the same k-tuple;
    diag_prob maps (pe_phi, pe_psi) to the coupled class probability."""
    return _single_cluster_mc(
        phi, beta, k,
        lambda X: diag_prob(_pair_values(X, phi), _pair_values(X, psi)),
        _cluster_kernel(phi, beta, k), max(n_samples // 2, 1000), seed + 1)


# ---------------------------------------------------------------------------
# public operations

def is_lex_sorted(X: np.ndarray) -> bool:
    order = lex_order(X)
    return bool(np.all(order == np.arange(len(X))))


def p_phi_k(x, phi: ConnectionFunction) -> float:
    """Connectivity probability with the sorted-tuple indicator."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if not is_lex_sorted(X):
        return 0.0
    pe = _pair_values(X[None, :, :], phi)
    return float(prob_connected(pe, len(X))[0])


def expected_count_intensity(G: GraphClass, phi: ConnectionFunction,
                             beta: float, n_samples: int = 200000,
                             seed: int = 0) -> MomentEstimate:
    """Per-volume intensity rho_G of components isomorphic to G."""
    k = G.order
    if k > ENUM_CAP:
        raise ValueError(f"order beyond enumeration cap {ENUM_CAP}")
    trunc = phi.truncation_radius()
    if k == 1:
        return MomentEstimate(value=beta * math.exp(-beta * phi.m_phi),
                              std_error=0.0, n_samples=0,
                              truncation_radius=trunc, method="closed_form")

    value, se = _single_cluster_mc(
        phi, beta, k, lambda X: prob_isomorphic(_pair_values(X, phi), G),
        _cluster_kernel(phi, beta, k), n_samples, seed)
    return MomentEstimate(value=value, std_error=se, n_samples=n_samples,
                          truncation_radius=trunc, method="monte_carlo")


def window_overlap_volume(window: Window, x) -> float:
    """Volume of the window intersected with itself shifted by x."""
    x = np.asarray(x, dtype=float)
    if window.shape == "box":
        return float(np.prod(np.maximum(0.0, 2.0 * window.extent - np.abs(x))))
    t = float(np.linalg.norm(x))
    R = window.extent
    if t >= 2.0 * R:
        return 0.0
    d = window.dim
    if d == 1:
        return 2.0 * R - t
    if d == 2:
        return 2.0 * R ** 2 * math.acos(t / (2.0 * R)) \
            - 0.5 * t * math.sqrt(4.0 * R ** 2 - t ** 2)
    if d == 3:
        return math.pi * (4.0 * R + t) * (2.0 * R - t) ** 2 / 12.0
    raise NotImplementedError("ball overlap volume for d > 3")


def finite_window_cross_moment(G: GraphClass, H: GraphClass,
                               phi: ConnectionFunction,
                               psi: ConnectionFunction,
                               window: Window, beta: float,
                               n_samples: int = 200000,
                               seed: int = 0) -> MomentEstimate:
    """E[count_G under phi * count_H under psi] on the same window.

    First term: distinct tuples, weighted by the overlap volume of the
    window with its shift. Second term (equal orders): shared tuple with
    the coupled joint class probability.
    """
    if not phi.dominates(psi):
        raise ValueError("psi must be dominated by phi")
    k, l = G.order, H.order
    trunc = phi.truncation_radius()

    def prob(X1, X2):
        return prob_isomorphic(_pair_values(X1, phi), G) \
            * prob_isomorphic(_pair_values(X2, psi), H)

    def kernel(X1, X2):
        e = mixed_exponent(np.concatenate([X1, X2], axis=1),
                           [phi] * k + [psi] * l, beta)
        # the counted anchor of the second cluster is its lexicographic
        # minimum, and the overlap weight is evaluated there
        ov = np.array([window_overlap_volume(window, x)
                       for x in _lexmin_points(X2)])
        return _cross_phibar(X1, X2, phi) * np.exp(e) * ov

    # the anchor of the second cluster ranges over the whole difference
    # body of the window, not just near the first cluster: sample it
    # uniformly over the bounding box of the difference body
    v1, se1 = _cluster_pair_mc(
        phi, psi, beta, k, l, prob, kernel,
        n_samples, seed, anchor=BoxAnchor(2.0 * window.extent, window.dim))

    v2, se2 = 0.0, 0.0
    if k == l:
        v2, se2 = _shared_tuple_mc(
            phi, psi, beta, k,
            lambda a, b: joint_prob_coupled(a, b, G, H), n_samples, seed)
        v2 *= window.volume
        se2 *= window.volume
    return MomentEstimate(value=v1 + v2,
                          std_error=math.hypot(se1, se2),
                          n_samples=n_samples, truncation_radius=trunc,
                          method="monte_carlo")


def _asy_cov_generic(phi, psi, beta, k, l, prob1, prob2, diag_prob,
                     n_samples, seed) -> MomentEstimate:
    """Common driver for the asymptotic covariance integrals.

    prob1/prob2 map per-pair probability arrays to cluster probabilities;
    diag_prob maps (pe_phi, pe_psi) to the shared-tuple probability, or
    is None when k != l.
    """
    trunc = phi.truncation_radius()

    def prob(X1, X2):
        return prob1(_pair_values(X1, phi)) * prob2(_pair_values(X2, psi))

    v1, se1 = _cluster_pair_mc(
        phi, psi, beta, k, l, prob,
        lambda X1, X2: q_kl(X1, X2, phi, psi, beta), n_samples, seed)
    v2, se2 = 0.0, 0.0
    if k == l and diag_prob is not None:
        v2, se2 = _shared_tuple_mc(phi, psi, beta, k, diag_prob,
                                   n_samples, seed)
    return MomentEstimate(value=v1 + v2, std_error=math.hypot(se1, se2),
                          n_samples=n_samples, truncation_radius=trunc,
                          method="monte_carlo")


def asy_cov(G: GraphClass, H: GraphClass, phi: ConnectionFunction,
            psi: ConnectionFunction, beta: float,
            n_samples: int = 200000, seed: int = 0) -> MomentEstimate:
    """Asymptotic covariance per unit volume of the two class counts."""
    if not phi.dominates(psi):
        raise ValueError("psi must be dominated by phi")
    k, l = G.order, H.order
    if max(k, l) > ENUM_CAP:
        raise ValueError(f"order beyond enumeration cap {ENUM_CAP}")
    return _asy_cov_generic(
        phi, psi, beta, k, l,
        prob1=lambda pe: prob_isomorphic(pe, G),
        prob2=lambda pe: prob_isomorphic(pe, H),
        diag_prob=(lambda a, b: joint_prob_coupled(a, b, G, H))
        if k == l else None,
        n_samples=n_samples, seed=seed)


def asy_cov_kl(k: int, l: int, phi: ConnectionFunction,
               psi: ConnectionFunction, beta: float,
               n_samples: int = 200000, seed: int = 0) -> MomentEstimate:
    """Asymptotic covariance per unit volume of the two order counts.

    The shared-tuple term requires both coupled graphs to be connected;
    with nested edge sets that event is connectivity of the sparser
    graph, so the diagonal uses the psi connectivity probability.
    """
    if not phi.dominates(psi):
        raise ValueError("psi must be dominated by phi")
    if max(k, l) > ENUM_CAP:
        raise ValueError(f"order beyond enumeration cap {ENUM_CAP}")
    return _asy_cov_generic(
        phi, psi, beta, k, l,
        prob1=lambda pe: prob_connected(pe, k),
        prob2=lambda pe: prob_connected(pe, l),
        diag_prob=(lambda a, b: prob_connected(b, k)) if k == l else None,
        n_samples=n_samples, seed=seed)


def _asy_cov_matrix(classes, phi: ConnectionFunction, beta: float,
                    n_samples: int, seed: int, stride: int):
    """Matrices of asy_cov(classes[i], classes[j]) under phi and of its
    standard errors; entry (i, j), i <= j, uses seed + stride*(i*m + j)."""
    m = len(classes)
    mat = np.zeros((m, m))
    err = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            est = asy_cov(classes[i], classes[j], phi, phi, beta,
                          n_samples=n_samples,
                          seed=seed + stride * (i * m + j))
            mat[i, j] = mat[j, i] = est.value
            err[i, j] = err[j, i] = est.std_error
    return mat, err


def asy_var_quadratic(a, classes, phi: ConnectionFunction, beta: float,
                      n_samples: int = 200000, seed: int = 0):
    """Quadratic form sum_ij a_i a_j sigma(G_i, G_j) with its error.

    Returns (estimate, matrix, matrix_errors).
    """
    a = np.asarray(a, dtype=float)
    classes = list(classes)
    if not np.any(a != 0):
        raise ValueError("weights must not all vanish")
    if len(a) != len(classes):
        raise ValueError("weight and class lists differ in length")
    m = len(classes)
    mat, err = _asy_cov_matrix(classes, phi, beta, n_samples, seed, 97)
    value = float(a @ mat @ a)
    var = 0.0
    for i in range(m):
        for j in range(i, m):
            mult = (a[i] * a[j]) if i == j else (2.0 * a[i] * a[j])
            var += (mult * err[i, j]) ** 2
    estimate = MomentEstimate(value=value, std_error=math.sqrt(var),
                              n_samples=n_samples,
                              truncation_radius=phi.truncation_radius(),
                              method="monte_carlo")
    return estimate, mat, err


def sigma_total_partial(m: int, phi: ConnectionFunction, beta: float,
                        n_samples: int = 200000, seed: int = 0):
    """Partial sums sum_{i,j<=m'} sigma^(i,j) for m' = 1..m.

    Returns (estimate_of_level_m, list_of_partial_sum_estimates).
    """
    if m > ENUM_CAP:
        raise ValueError(f"order beyond enumeration cap {ENUM_CAP}")
    terms = {}
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            est = asy_cov_kl(i, j, phi, phi, beta, n_samples=n_samples,
                             seed=seed + 131 * (i * (m + 1) + j))
            terms[(i, j)] = est
    partials = []
    for level in range(1, m + 1):
        total, var = 0.0, 0.0
        for i in range(1, level + 1):
            for j in range(i, level + 1):
                mult = 1.0 if i == j else 2.0
                total += mult * terms[(i, j)].value
                var += (mult * terms[(i, j)].std_error) ** 2
        partials.append(MomentEstimate(
            value=total, std_error=math.sqrt(var), n_samples=n_samples,
            truncation_radius=phi.truncation_radius(), method="monte_carlo"))
    return partials[-1], partials
