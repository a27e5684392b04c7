"""Distances between finite atomic measures and convergence reports.

Two notions of distance drive all comparisons:

* Prohorov: the least eps such that each measure fits inside the other's
  eps-enlargement with eps mass to spare, both ways.  Computed exactly by a
  short sequence of max-flow feasibility checks (a coupling of mass
  max(total) - eps supported on pairs within eps exists iff the flow value
  reaches it), scanning the windows between consecutive pairwise distances.
* Bounded-Lipschitz dual (Kantorovich-Rubinstein style): sup of the signed
  integral over functions with |f| <= 1 that contract distances, computed
  as a linear program; on a tree its constraints sit on the edges of the
  spanned subtree.  Finite for measures of different totals, which is
  what restriction to growing balls produces.

Both have tiny brute-force twins used only as test oracles.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .tree import (
    FLOAT_SLACK,
    GEOM_TOL,
    MeasureError,
    RootedMetricTree,
    SpeedMeasure,
    _euler_sorted,
    branch_closure,
    lower_mass,
)


@dataclass(frozen=True)
class FiniteAtomMeasure:
    """Finite positive measure on hashable points; zero-weight atoms dropped."""

    points: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.points) != len(self.weights):
            raise MeasureError("points and weights must align")
        if len(set(self.points)) != len(self.points):
            raise MeasureError("duplicate atoms; merge them first")
        for w in self.weights:
            if not (w > 0 and math.isfinite(w)):
                raise MeasureError(f"atom weights must be positive and finite, got {w}")

    @classmethod
    def from_dict(cls, mapping: Mapping) -> "FiniteAtomMeasure":
        pts, ws = [], []
        for p, w in mapping.items():
            w = float(w)
            if w < 0 or not math.isfinite(w):
                raise MeasureError(f"atom weights must be nonnegative, got {w}")
            if w > 0:
                pts.append(p)
                ws.append(w)
        return cls(tuple(pts), tuple(ws))

    @classmethod
    def from_samples(cls, samples, total: float = 1.0) -> "FiniteAtomMeasure":
        samples = list(samples)
        if not samples:
            raise MeasureError("need at least one sample")
        counts = Counter(samples)
        scale = total / len(samples)
        return cls(tuple(counts.keys()),
                   tuple(c * scale for c in counts.values()))

    @property
    def total(self) -> float:
        return float(sum(self.weights))

    def __len__(self) -> int:
        return len(self.points)

    def mass(self, point) -> float:
        for p, w in zip(self.points, self.weights):
            if p == point:
                return w
        return 0.0

    def as_dict(self) -> dict:
        return dict(zip(self.points, self.weights))


def empirical_law(samples) -> FiniteAtomMeasure:
    """Probability measure putting 1/n on each sample (ties aggregated)."""
    return FiniteAtomMeasure.from_samples(samples, total=1.0)


@dataclass(frozen=True)
class TreeMetric:
    """The metric of a tree on its vertex ids, as a callable d(u, v).

    The distances here recognize it and read the tree: batched pair
    distances, a sweep when the tree is a path, edges for KR.
    """

    tree: RootedMetricTree

    def __call__(self, u, v) -> float:
        return self.tree.distance(int(u), int(v))


def tree_metric(tree: RootedMetricTree) -> TreeMetric:
    return TreeMetric(tree)


# ------------------------------------------------------------------ Prohorov

def _dinic_flow(na: int, nb: int, src_caps, snk_caps, ii, jj) -> float:
    """Exact float max flow on the three-layer admissibility network."""
    s, t = na + nb, na + nb + 1
    n_nodes = t + 1
    big = float(sum(src_caps)) + 1.0
    to: list[int] = []
    cap: list[float] = []
    adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add(u, v, c):
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0.0)

    for i, w in enumerate(src_caps):
        add(s, i, float(w))
    for j, w in enumerate(snk_caps):
        add(na + j, t, float(w))
    for i, j in zip(ii, jj):
        add(int(i), na + int(j), big)

    tiny = 1e-15 * big
    flow = 0.0
    while True:
        level = [-1] * n_nodes
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in adj[u]:
                v = to[e]
                if cap[e] > tiny and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return flow
        it = [0] * n_nodes

        def push(u, limit):
            if u == t:
                return limit
            while it[u] < len(adj[u]):
                e = adj[u][it[u]]
                v = to[e]
                if cap[e] > tiny and level[v] == level[u] + 1:
                    got = push(v, min(limit, cap[e]))
                    if got > 0.0:
                        cap[e] -= got
                        cap[e ^ 1] += got
                        return got
                it[u] += 1
            return 0.0

        while True:
            pushed = push(s, big)
            if pushed <= 0.0:
                break
            flow += pushed


def _interval_flow(supply_pos, supply_w, demand_pos, demand_w,
                   eps: float) -> float:
    """Max shippable mass when admissibility is |p - q| <= eps on a line.

    Both sides come sorted by position.  Sweep demands in position order and
    serve each from the active supply expiring soonest; the exchange
    argument makes this greedy exact, and it stays O(n log n) where the
    generic solver would see dense graphs.
    """
    heap: list = []
    shipped = 0.0
    k = 0
    for q, demand in zip(demand_pos, demand_w):
        while k < len(supply_pos) and supply_pos[k] <= q + eps:
            heapq.heappush(heap, [supply_pos[k] + eps, supply_w[k]])
            k += 1
        while heap and heap[0][0] < q:
            heapq.heappop(heap)
        while demand > 0.0 and heap:
            take = min(demand, heap[0][1])
            shipped += take
            demand -= take
            heap[0][1] -= take
            if heap[0][1] <= 0.0:
                heapq.heappop(heap)
    return shipped


def _path_positions(tree: RootedMetricTree) -> Optional[np.ndarray]:
    """d(end, v) for every v when the tree is a path, else None.

    In a path the root has at most two children and every other vertex at
    most one; the deepest vertex is then an end.
    """
    kids = np.bincount(tree.parent, minlength=tree.n)
    kids[tree.root] -= 2      # its own parent, and allowed a second child
    return None if kids.max() > 1 else tree.distances_from(
        int(np.argmax(tree.height)))


def prohorov(mu: FiniteAtomMeasure, nu: FiniteAtomMeasure, dist,
             dists: Optional[np.ndarray] = None) -> float:
    """Prohorov distance, exact up to float slack.

    Between consecutive pairwise distances the admissible pair set is
    constant, so the least feasible eps in a window is
    max(window start, max(total) - flow).  The first window that contains
    its own candidate yields the global minimum.  The predicate is monotone
    in the window index; galloping up from the smallest window keeps every
    probed flow graph about as sparse as the answer's own window, which is
    what makes near-aligned measures with large supports cheap.

    ``dists``, when given, is the precomputed len(mu) x len(nu) distance
    array and ``dist`` is not called.  When ``dist`` is a :class:`TreeMetric`
    whose tree is a path, feasibility runs through the sweep-line greedy on
    positions along the path instead of the generic flow solver.
    """
    if len(mu) == 0 and len(nu) == 0:
        return 0.0
    top = max(mu.total, nu.total)
    line = None
    if isinstance(dist, TreeMetric):
        ids_mu, ids_nu = _vertex_ids(mu.points), _vertex_ids(nu.points)
        line = _path_positions(dist.tree)
        if dists is None:
            dists = dist.tree.distance_block(ids_mu, ids_nu)
    if dists is None:
        dists = np.array([[dist(p, q) for q in nu.points] for p in mu.points],
                         dtype=np.float64)
    else:
        dists = np.asarray(dists, dtype=np.float64)
        if dists.shape != (len(mu), len(nu)):
            raise MeasureError("dists must be a len(mu) x len(nu) array")
    flat = dists.ravel()
    cuts = np.unique(np.concatenate(([0.0], flat)))
    mu_w = np.asarray(mu.weights, dtype=np.float64)
    nu_w = np.asarray(nu.weights, dtype=np.float64)
    if line is not None:
        # each side sorted by position once, for every probe
        sides = []
        for pos, w in ((line[ids_mu], mu_w), (line[ids_nu], nu_w)):
            order = np.argsort(pos, kind="stable")
            sides += [pos[order].tolist(), w[order].tolist()]
    else:
        order = np.argsort(flat, kind="stable")
        dvals = flat[order]
        ii = order // max(len(nu), 1)
        jj = order % max(len(nu), 1)
    flows: dict[int, float] = {}

    def flow_at(k: int) -> float:
        if k not in flows:
            eps = cuts[k] + FLOAT_SLACK
            if line is not None:
                flows[k] = _interval_flow(*sides, eps)
            else:
                m = int(np.searchsorted(dvals, eps, side="right"))
                flows[k] = _dinic_flow(len(mu), len(nu), mu_w, nu_w,
                                       ii[:m], jj[:m])
        return flows[k]

    def candidate(k: int) -> float:
        return max(cuts[k], top - flow_at(k))

    def solvable(k: int) -> bool:
        nxt = cuts[k + 1] if k + 1 < len(cuts) else math.inf
        return candidate(k) < nxt - FLOAT_SLACK or k + 1 == len(cuts)

    last = len(cuts) - 1
    if solvable(0):
        return float(max(candidate(0), 0.0))
    lo, hi = 0, 1                     # lo is known unsolvable
    while hi < last and not solvable(hi):
        lo, hi = hi, min(2 * hi, last)
    a, b = lo + 1, hi                 # first solvable index lies in [a, b]
    while a < b:
        mid = (a + b) // 2
        if solvable(mid):
            b = mid
        else:
            a = mid + 1
    return float(max(candidate(a), 0.0))


def prohorov_bruteforce(mu: FiniteAtomMeasure, nu: FiniteAtomMeasure,
                        dist) -> float:
    """Literal definition over all subsets; oracle for small supports only.

    Each side has at most 10 atoms.  A probe of one eps tries the 2^k - 1
    nonempty subsets of each side (k its atom count), and the bisection
    makes at most 81 probes.
    """
    if len(mu) > 10 or len(nu) > 10:
        raise MeasureError("brute-force check is limited to 10 atoms per side")
    if len(mu) == 0 and len(nu) == 0:
        return 0.0

    def enlarged(points, other, eps):
        return sum(w for q, w in zip(other.points, other.weights)
                   if any(dist(p, q) <= eps + FLOAT_SLACK for p in points))

    def one_sided(a: FiniteAtomMeasure, b: FiniteAtomMeasure, eps: float) -> bool:
        idx = range(len(a))
        for r in range(1, len(a) + 1):
            for sub in itertools.combinations(idx, r):
                pts = [a.points[i] for i in sub]
                massa = sum(a.weights[i] for i in sub)
                if massa > enlarged(pts, b, eps) + eps + FLOAT_SLACK:
                    return False
        return True

    def ok(eps: float) -> bool:
        return one_sided(mu, nu, eps) and one_sided(nu, mu, eps)

    hi = max([mu.total, nu.total]
             + [dist(p, q) for p in mu.points for q in nu.points])
    if ok(0.0):
        return 0.0
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ------------------------------------------------- bounded-Lipschitz duality

# HiGHS's default 1e-7 feasibility tolerances cost digits at thousands of atoms
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10}
# row subsets per batched det/solve in kr_bruteforce: bounds one chunk's systems
SUBSET_BLOCK = 1 << 12


def linprog(c, **kwargs):
    """``scipy.optimize.linprog``, imported at the first call.

    Importing scipy.optimize takes about 0.17 s and only the KR program
    needs it, so a run that solves none never loads it.  kr_distance calls
    the solver through this module-level name, which bench/tracer.py wraps
    to count LP rows.
    """
    from scipy.optimize import linprog as solve

    return solve(c, **kwargs)


def kr_distance(mu: FiniteAtomMeasure, nu: FiniteAtomMeasure, dist) -> float:
    """sup { integral f d(mu - nu) : |f| <= 1, |f(p) - f(q)| <= d(p, q) }.

    For a :class:`TreeMetric`, f lives on the branch closure of the support
    and the root, and only the edges of the subtree it spans are
    constrained: geodesics run along them (Evans & Matsen, JRSS-B 74(3),
    2012).  Any other callable constrains all pairs.
    """
    support = list(dict.fromkeys(list(mu.points) + list(nu.points)))
    if isinstance(dist, TreeMetric):
        tree = dist.tree
        closed = branch_closure(tree, np.append(_vertex_ids(support), tree.root))
        # each vertex's deepest closure ancestor is its meet with the
        # previous vertex in first-visit order, as in spanned_subtree
        order = _euler_sorted(tree, closed)
        up = tree.lca(order[:-1], order[1:])
        pi = np.searchsorted(closed, order[1:])
        pj = np.searchsorted(closed, up)
        d = tree.height[order[1:]] - tree.height[up]
        support = closed.tolist()
    n = len(support)
    if n == 0:
        return 0.0
    pos = {p: i for i, p in enumerate(support)}
    w = np.zeros(n)
    for p, m in zip(mu.points, mu.weights):
        w[pos[p]] += m
    for p, m in zip(nu.points, nu.weights):
        w[pos[p]] -= m
    if n == 1:
        return float(abs(w[0]))
    if not isinstance(dist, TreeMetric):
        pi, pj = np.triu_indices(n, 1)
        d = np.array([dist(support[i], support[j]) for i, j in zip(pi, pj)],
                     dtype=np.float64)
    # pair k gives rows 2k (f_i - f_j <= d) and 2k + 1 (f_j - f_i <= d)
    k2 = 2 * np.arange(len(pi))
    rows_i = np.stack((k2, k2, k2 + 1, k2 + 1), axis=1).ravel()
    rows_j = np.stack((pi, pj, pi, pj), axis=1).ravel()
    vals = np.tile([1.0, -1.0, -1.0, 1.0], len(pi))
    rhs = np.repeat(d, 2)
    a_ub = sp.csr_matrix((vals, (rows_i, rows_j)), shape=(2 * len(pi), n))
    res = linprog(-w, A_ub=a_ub, b_ub=rhs, bounds=(-1.0, 1.0), method="highs",
                  options=_LP_OPTIONS)
    if not res.success:
        raise MeasureError(f"dual program failed: {res.message}")
    return float(-res.fun)


def kr_bruteforce(mu: FiniteAtomMeasure, nu: FiniteAtomMeasure, dist) -> float:
    """Vertex enumeration of the dual polytope; oracle for tiny supports.

    On a union support of n <= 5 points the polytope has n(n + 1) rows, and
    every one of the C(n(n + 1), n) row subsets is tried as a vertex: at most
    142,506 at n = 5.  Subsets are drawn SUBSET_BLOCK at a time, so memory is
    one chunk of stacked n x n systems, never the whole subset list.
    """
    support = list(dict.fromkeys(list(mu.points) + list(nu.points)))
    n = len(support)
    if n > 5:
        raise MeasureError("brute-force dual is limited to 5 support points")
    if n == 0:
        return 0.0
    w = np.zeros(n)
    for p, m in zip(mu.points, mu.weights):
        w[support.index(p)] += m
    for p, m in zip(nu.points, nu.weights):
        w[support.index(p)] -= m
    rows, rhs = [], []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows += [e.copy(), -e]
        rhs += [1.0, 1.0]
    for i in range(n):
        for j in range(i + 1, n):
            d = dist(support[i], support[j])
            e = np.zeros(n)
            e[i], e[j] = 1.0, -1.0
            rows += [e.copy(), -e]
            rhs += [d, d]
    rows = np.array(rows)
    rhs = np.array(rhs)
    best = -math.inf
    combos = itertools.combinations(range(len(rows)), n)
    while True:
        subs = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, SUBSET_BLOCK)),
            dtype=np.intp).reshape(-1, n)
        if not len(subs):
            return best
        a = rows[subs]
        keep = np.abs(np.linalg.det(a)) >= 1e-12
        x = np.linalg.solve(a[keep], rhs[subs[keep]][..., None])[..., 0]
        # each row holds at most two entries of +-1, so these sums are exact
        feasible = np.all(x @ rows.T <= rhs + 1e-9, axis=1)
        for vertex in x[feasible]:   # x[feasible] @ w would round differently
            best = max(best, float(w @ vertex))


# ------------------------------------------------------ set and report layer

def _vertex_ids(points) -> np.ndarray:
    return np.array([int(p) for p in points], dtype=np.int64)


def hausdorff_distance(tree: RootedMetricTree, a, b) -> float:
    """Hausdorff gap between two vertex sets in the tree metric."""
    return _block_hausdorff(tree.distance_block(_vertex_ids(a), _vertex_ids(b)))


def _block_hausdorff(dmat: np.ndarray) -> float:
    """Hausdorff gap read off the |a| x |b| distance block of two sets."""
    rows, cols = dmat.shape
    if not rows or not cols:
        return 0.0 if rows == cols else math.inf
    return float(max(0.0, dmat.min(axis=1).max(), dmat.min(axis=0).max()))


@dataclass
class ConvergenceRow:
    label: str
    radius: float
    hausdorff: float
    prohorov: float
    kr: float
    m_delta: float
    flagged: bool


def _ball_measure(tree: RootedMetricTree, measure: SpeedMeasure, radius: float) -> FiniteAtomMeasure:
    inside = np.flatnonzero((measure.masses > 0)
                            & (tree.height <= radius + FLOAT_SLACK))
    return FiniteAtomMeasure(tuple(inside.tolist()),
                             tuple(measure.masses[inside].tolist()))


def gh_vague_report(tree: RootedMetricTree, limit_measure: SpeedMeasure,
                    approximations: Sequence, radii: Sequence[float],
                    delta: float) -> list[ConvergenceRow]:
    """ConvergenceRows of (support Hausdorff, Prohorov, dual gap, mass floor),
    one per radius and approximation.

    ``approximations`` is a list of (label, SpeedMeasure) pairs on the same
    ambient tree as the limit.  A radius is flagged when the limit measure
    charges a vertex sitting on the boundary sphere within geometric
    tolerance; restriction is unstable against such ties.
    """
    dist = tree_metric(tree)
    rows = []
    for radius in radii:
        target = _ball_measure(tree, limit_measure, radius)
        tgt_idx = _vertex_ids(target.points)
        flagged = bool(np.any((limit_measure.masses > 0)
                              & (np.abs(tree.height - radius) <= GEOM_TOL)))
        for label, approx in approximations:
            got = _ball_measure(tree, approx, radius)
            dmat = tree.distance_block(_vertex_ids(got.points), tgt_idx)
            rows.append(ConvergenceRow(
                label=str(label),
                radius=float(radius),
                hausdorff=_block_hausdorff(dmat),
                prohorov=prohorov(got, target, dist, dists=dmat),
                kr=kr_distance(got, target, dist),
                m_delta=lower_mass(tree, approx, delta, radius=radius).value,
                flagged=flagged,
            ))
    return rows


def polynomial_lower_bound(tree: RootedMetricTree, measure: SpeedMeasure,
                           deltas: Sequence[float], kappa: float) -> float:
    """Largest c with ball mass >= c * delta^kappa over all centers and deltas.

    Open balls; a zero return means some ball in the range carries no mass
    and no polynomial floor of that exponent exists.
    """
    best = math.inf
    everyone = np.arange(tree.n)
    for d in deltas:
        if d <= 0:
            raise MeasureError("deltas must be positive")
        masses = measure.ball_masses(tree, everyone, d, closed=False)
        best = min(best, float((masses / d ** kappa).min()))
    return float(best)
