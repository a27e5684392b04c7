"""Closed forms and linear-algebra oracles for the tree walk.

Everything here is deterministic.  The closed forms (occupation kernel,
capacity, natural scale, one-atom passage law, confinement and escape
bounds, heat-kernel norm bound) are the quantities the simulator is judged
against; the linear-system solvers are independent of those formulas and of
the sampler, so the three can cross-check each other.

Conventions: conductance of an edge is 1/length, the walk leaves u at rate
c(u, v) / (2 mass(u)), and the energy form is

    E(f, g) = (1/2) * sum over edges of (1/length) * df * dg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .tree import FLOAT_SLACK, RootedMetricTree, SpeedMeasure, TreeError
from .walk import WalkChain

DENSE_SOLVE_LIMIT = 1500


class OracleError(ValueError):
    """Precondition failure in an exact computation."""


# ----------------------------------------------------------------- occupation

def green_kernel(tree: RootedMetricTree, x: int, y: int, z: int) -> float:
    """Occupation density g(x, z) for the walk killed on hitting y.

    E_x[time in dz before hitting y] = g(x, z) * mass(z) with
    g(x, z) = 2 * d(y, median(x, y, z)).  Symmetric in x and z.
    """
    m = tree.branch_point(x, y, z)
    return 2.0 * tree.distance(y, m)


def occupation_functional(tree: RootedMetricTree, measure: SpeedMeasure,
                          x: int, y: int, f=None) -> float:
    """Closed form for the expected integral of f along the walk until it hits y."""
    if f is None:
        fv = np.ones(tree.n)
    else:
        fv = _as_vertex_function(tree, f)
    zs = np.flatnonzero((measure.masses != 0.0) & (fv != 0.0))
    # green_kernel for every z at once: the median is the deepest pairwise meet
    meets = (tree.lca(x, y), tree.lca(y, zs), tree.lca(x, zs))
    median = np.where(tree.depth[meets[1]] > tree.depth[meets[0]], meets[1], meets[0])
    median = np.where(tree.depth[meets[2]] > tree.depth[median], meets[2], median)
    terms = fv[zs] * (2.0 * tree.distance(y, median)) * measure.masses[zs]
    total = 0.0
    for term in terms:       # summed in vertex order, like the scalar formula
        total += term
    return float(total)


def occupation_solve(chain: WalkChain, x: int, y: int, f=None) -> float:
    """Same functional via the absorbed linear system; no closed form used."""
    if x not in chain.index or y not in chain.index:
        raise OracleError("x and y must be chain states")
    if f is None:
        fv = np.ones(chain.tree.n)
    else:
        fv = _as_vertex_function(chain.tree, f)
    if x == y:
        return 0.0
    free = [int(s) for s in chain.states if int(s) != y]
    pos = {s: i for i, s in enumerate(free)}
    n = len(free)
    rows, cols, vals = [], [], []
    rhs = np.empty(n)
    for s in free:
        i = pos[s]
        rates = chain.jump_rates(s)
        rows.append(i)
        cols.append(i)
        vals.append(sum(rates.values()))
        for v, r in rates.items():
            if v != y:
                rows.append(i)
                cols.append(pos[v])
                vals.append(-r)
        rhs[i] = fv[s]
    sol = _solve(rows, cols, vals, n, rhs)
    return float(sol[pos[x]])


def expected_hitting(chain: WalkChain, x: int, y: int) -> float:
    """E_x[first hitting time of y], solved from the generator."""
    return occupation_solve(chain, x, y, None)


def _solve(rows, cols, vals, n, rhs):
    if n <= DENSE_SOLVE_LIMIT:
        a = np.zeros((n, n))
        for r, c, v in zip(rows, cols, vals):
            a[r, c] += v
        return np.linalg.solve(a, rhs)
    a = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return spla.spsolve(a, rhs)


# -------------------------------------------------- scale, capacity, harmonic

def hitting_prob(tree: RootedMetricTree, x: int, a: int, b: int) -> float:
    """P_x(hit a before b) = d(x, b) / d(a, b) for x on the segment [a, b].

    Distance is the natural scale of the walk, whatever the speed measure.
    """
    if a == b:
        raise OracleError("a and b must differ")
    if not tree.on_segment(x, a, b, tol=1e-9):
        raise OracleError(f"vertex {x} is not on the segment [{a}, {b}]")
    return tree.distance(x, b) / tree.distance(a, b)


def capacity(tree: RootedMetricTree, y: int, z: int) -> float:
    """cap(y, z) = 1 / (2 d(y, z)), the minimal energy linking the pair."""
    if y == z:
        raise OracleError("capacity needs two distinct vertices")
    return 1.0 / (2.0 * tree.distance(y, z))


def harmonic_extension(tree: RootedMetricTree, boundary: Mapping) -> np.ndarray:
    """Extend boundary values to the whole tree with zero conductance flux.

    Returns one value per vertex; boundary vertices keep their given values.
    """
    if not boundary:
        raise OracleError("boundary must be nonempty")
    fixed = {int(k): float(v) for k, v in boundary.items()}
    for k in fixed:
        if not 0 <= k < tree.n:
            raise OracleError(f"boundary vertex {k} out of range")
    out = np.zeros(tree.n)
    free = [v for v in range(tree.n) if v not in fixed]
    for k, v in fixed.items():
        out[k] = v
    if not free:
        return out
    pos = {v: i for i, v in enumerate(free)}
    n = len(free)
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for v in free:
        i = pos[v]
        diag = 0.0
        for u in tree.neighbors(v):
            c = 1.0 / tree.edge_length[v if tree.parent[v] == u else u]
            diag += c
            if u in fixed:
                rhs[i] += c * fixed[u]
            else:
                rows.append(i)
                cols.append(pos[u])
                vals.append(-c)
        rows.append(i)
        cols.append(i)
        vals.append(diag)
    sol = _solve(rows, cols, vals, n, rhs)
    for v in free:
        out[v] = sol[pos[v]]
    return out


def tree_energy(tree: RootedMetricTree, f) -> float:
    """E(f, f) summed over edges with conductance 1/length."""
    fv = _as_vertex_function(tree, f)
    acc = 0.0
    for v, p, ell in tree.edges():
        d = fv[v] - fv[p]
        acc += d * d / ell
    return 0.5 * acc


def capacity_variational(tree: RootedMetricTree, y: int, z: int) -> float:
    """Capacity as the energy of the harmonic potential; cross-checks capacity()."""
    h = harmonic_extension(tree, {y: 1.0, z: 0.0})
    return tree_energy(tree, h)


# ------------------------------------------------------------- one-atom law

@dataclass(frozen=True)
class AtomLaw:
    """Passage-time law to v from w when all mass sits at the far end u.

    With probability ``zero_weight`` the walk slips to v without touching u
    and the time is exactly 0; otherwise the time is exponential with mean
    ``exp_mean``.
    """

    zero_weight: float
    exp_mean: float

    @property
    def mean(self) -> float:
        return (1.0 - self.zero_weight) * self.exp_mean

    def cdf(self, t: float) -> float:
        if t < 0:
            return 0.0
        tail = (1.0 - self.zero_weight) * math.exp(-t / self.exp_mean)
        return 1.0 - tail

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = rng.exponential(scale=self.exp_mean, size=size)
        out[rng.random(size) < self.zero_weight] = 0.0
        return out


def atom_law(tree: RootedMetricTree, measure: SpeedMeasure,
             w: int, u: int, v: int) -> AtomLaw:
    """Law of the passage time w -> v when u carries the only atom on the way.

    Requires w on the segment [u, v] and positive mass at u.  Writing
    r_u = d(w, u) and R = d(w, v):

        P(time = 0)        = r_u / (r_u + R)
        conditional law    = Exp(mean 2 (r_u + R) mass(u))

    The zero branch is the event of reaching v before u, which has the
    natural-scale probability; the exponential branch is the total holding
    time at the atom, whose mean is the occupation kernel at u.
    """
    if not tree.on_segment(w, u, v, tol=1e-9):
        raise OracleError(f"vertex {w} is not on the segment [{u}, {v}]")
    mu = measure[u]
    if mu <= 0:
        raise OracleError("the atom u must carry positive mass")
    r_u = tree.distance(w, u)
    big_r = tree.distance(w, v)
    if big_r <= 0:
        raise OracleError("w and v must be distinct")
    return AtomLaw(zero_weight=r_u / (r_u + big_r),
                   exp_mean=2.0 * (r_u + big_r) * mu)


# ------------------------------------------------------------------- bounds

def hit_bound(tree: RootedMetricTree, measure: SpeedMeasure,
              x: int, v: int, t: float, delta: float) -> float:
    """Upper bound for P_x(hit v by time t) using only mass near x.

    S is the open ball B(x, delta); with R = d(S, v) and m = mass(S),

        P_x(hit v by t) <= 2 (1 - (R / (R + 2 delta)) exp(-t / (R m))).

    Requires d(x, v) > delta so that v lies outside S.
    """
    if delta <= 0:
        raise OracleError("delta must be positive")
    d_xv = tree.distance(x, v)
    if d_xv <= delta + FLOAT_SLACK:
        raise OracleError("target must lie outside the delta-ball around x")
    big_r = d_xv - delta
    m = measure.ball_mass(tree, x, delta, closed=False)
    if m <= 0:
        raise OracleError("the delta-ball around x carries no mass")
    return 2.0 * (1.0 - (big_r / (big_r + 2.0 * delta)) * math.exp(-t / (big_r * m)))


def speed_bound(tree: RootedMetricTree, measure: SpeedMeasure,
                x: int, t: float, eps: float, delta: float) -> float:
    """Upper bound for P_x(walk leaves the eps-ball by time t).

    Valid when 0 < delta < eps and t < (eps - delta) * m with m the open
    delta-ball mass at x; outside that window the bound is vacuous and the
    function returns inf.  deg counts the branches at distance eps from x.

        bound = 2 deg (1 - ((eps - delta) / (eps + delta)) exp(-t / (eps m)))
    """
    from .tree import epsilon_degree

    if not (0 < delta < eps):
        return math.inf
    m = measure.ball_mass(tree, x, delta, closed=False)
    if m <= 0 or t >= (eps - delta) * m:
        return math.inf
    deg = epsilon_degree(tree, x, eps)
    return 2.0 * deg * (1.0 - ((eps - delta) / (eps + delta)) * math.exp(-t / (eps * m)))


# -------------------------------------------------------------- heat kernel

POISSON_TAIL = 1e-12


@dataclass
class HeatKernelResult:
    """One-time marginal laws P_t(x, .) over chain states, one row per time."""

    chain: WalkChain
    start: int
    times: list
    laws: np.ndarray          # shape (len(times), n_states)
    uniformization_rate: float
    terms: int

    def law(self, t: float) -> np.ndarray:
        for i, s in enumerate(self.times):
            if abs(s - t) <= FLOAT_SLACK:
                return self.laws[i]
        raise OracleError(f"time {t} was not requested")

    def prob(self, t: float, vertex: int) -> float:
        if vertex not in self.chain.index:
            return 0.0
        return float(self.law(t)[self.chain.index[vertex]])

    def kernel(self, t: float, vertex: int) -> float:
        """Density p_t(x, y) = P_t(x, y) / mass(y)."""
        if vertex not in self.chain.index:
            raise OracleError(f"vertex {vertex} is not a chain state")
        i = self.chain.index[vertex]
        return float(self.law(t)[i] / self.chain.mass[i])

    def l2_norm_sq(self, t: float) -> float:
        row = self.law(t)
        return float(np.sum(row * row / self.chain.mass))

    def l2_bound(self, t: float) -> float:
        """Nash-type ceiling 1/mass(T) + diam/t for the squared density norm."""
        if t <= 0:
            return math.inf
        return 1.0 / self.chain.total_mass + self.chain.diameter() / t

    def set_prob_bound(self, t: float, vertices: Sequence[int]) -> float:
        """Cauchy-Schwarz bound for P_t(x, A) from the density norm ceiling."""
        mass = sum(self.chain.mass[self.chain.index[v]]
                   for v in vertices if v in self.chain.index)
        return math.sqrt(self.l2_bound(t)) * math.sqrt(mass)

    def mass_defect(self) -> float:
        return float(np.max(np.abs(self.laws.sum(axis=1) - 1.0)))


def heat_kernel(chain: WalkChain, start: int, times) -> HeatKernelResult:
    """Laws of the walk at fixed times by uniformized series; no time stepping.

    P_t = sum_k Poisson(k; L t) B^k with B = I + Q / L and L just above the
    top exit rate.  Terms are added until the Poisson weights of every
    requested time have absorbed all but 1e-12 of their mass, with weights
    computed in log space so large L t cannot underflow.  A time whose sum
    stalls below that in floating point is finished once k is past its
    mean a = L t and its weight has underflowed to 0.0: past the mode the
    weights only fall.  The Chernoff bound on the Poisson tail puts that
    underflow (log weight below -746) within a + 39 sqrt(a) + 498, so

        terms <= a_max + 39 * sqrt(a_max) + 499,   a_max = L * max(times),

    for finite nonnegative times; others raise OracleError.
    """
    if start not in chain.index:
        raise OracleError(f"start vertex {start} is not a chain state")
    tlist = [float(t) for t in times]
    bad = [t for t in tlist if not (math.isfinite(t) and t >= 0)]
    if not tlist or bad:
        raise OracleError("times must be finite, nonnegative and nonempty, "
                          f"got {bad or tlist}")
    n = chain.n_states
    lam = 1.1 * float(chain.exit_rate.max())
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(1.0 - chain.exit_rate[i] / lam)
        for j, r in zip(chain.nbr[i], chain.rates[i]):
            rows.append(i)
            cols.append(int(j))
            vals.append(r / lam)
    b = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    if n <= 600:
        # sparse matvec overhead dominates at this size
        b = b.toarray()

    out = np.zeros((len(tlist), n))
    cum = np.zeros(len(tlist))
    lt = np.array([lam * t for t in tlist])
    psi = np.zeros(n)
    psi[chain.index[start]] = 1.0
    finished = [False] * len(tlist)
    k = 0
    while True:
        for i, a in enumerate(lt):
            if finished[i]:
                continue
            if a == 0.0:
                w = 1.0 if k == 0 else 0.0
            else:
                w = math.exp(k * math.log(a) - a - math.lgamma(k + 1))
            if w > 0.0:
                out[i] += w * psi
                cum[i] += w
            finished[i] = cum[i] >= 1.0 - POISSON_TAIL or (k > a and w == 0.0)
        if all(finished):
            break
        psi = psi @ b
        k += 1
    # renormalize the truncated tail so each row is an exact distribution
    out /= out.sum(axis=1, keepdims=True)
    return HeatKernelResult(chain=chain, start=int(start), times=tlist,
                            laws=out, uniformization_rate=lam, terms=k)


def _as_vertex_function(tree: RootedMetricTree, f) -> np.ndarray:
    if isinstance(f, Mapping):
        out = np.zeros(tree.n)
        for k, v in f.items():
            out[int(k)] = float(v)
        return out
    if np.isscalar(f):
        return np.full(tree.n, float(f))
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != (tree.n,):
        raise OracleError("function must assign a value to every vertex")
    return arr
