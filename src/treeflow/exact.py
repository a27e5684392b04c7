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
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.linalg import eigh
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.csgraph import depth_first_order

from .tree import FLOAT_SLACK, RootedMetricTree, SpeedMeasure
from .walk import WalkChain, _state_index, vertex_function


class OracleError(ValueError):
    """Precondition failure in an exact computation."""


# ----------------------------------------------------------------- occupation

def green_kernel(tree: RootedMetricTree, x: int, y: int, z):
    """Occupation density g(x, z) for the walk killed on hitting y.

    E_x[time in dz before hitting y] = g(x, z) * mass(z) with
    g(x, z) = 2 * d(y, median(x, y, z)).  Symmetric in x and z.  A vertex
    id z gives a float; an array of ids gives an array, bit for bit the
    same per entry.
    """
    m = tree.branch_point(x, y, z)
    return 2.0 * tree.distance(y, m)


def occupation_functional(tree: RootedMetricTree, measure: SpeedMeasure,
                          x: int, y: int, f=None) -> float:
    """Closed form for the expected integral of f along the walk until it hits y."""
    fv = vertex_function(tree, 1.0 if f is None else f, OracleError)
    zs = np.flatnonzero((measure.masses != 0.0) & (fv != 0.0))
    terms = fv[zs] * green_kernel(tree, x, y, zs) * measure.masses[zs]
    total = 0.0
    for term in terms:       # summed in vertex order, like the scalar formula
        total += term
    return float(total)


def occupation_solve(chain: WalkChain, x: int, y: int, f=None) -> float:
    """Same functional via the absorbed linear system; no closed form used.

    Solves -Q[free, free] u = f[free] with one sparse LU, where Q is the
    chain generator and free holds every state but y.
    """
    ix = _state_index(chain, x, "x", OracleError)
    iy = _state_index(chain, y, "y", OracleError)
    fv = vertex_function(chain.tree, 1.0 if f is None else f, OracleError)
    if x == y:
        return 0.0
    free = np.ones(chain.n_states, dtype=bool)
    free[iy] = False
    a = -chain.generator[free][:, free]
    sol = spla.spsolve(a.tocsc(), fv[chain.states[free]])
    return float(sol[np.count_nonzero(free[:ix])])


def expected_hitting(chain: WalkChain, x: int, y: int) -> float:
    """E_x[first hitting time of y], solved from the generator."""
    return occupation_solve(chain, x, y, None)


# -------------------------------------------------- scale, capacity, harmonic

def hitting_prob(tree: RootedMetricTree, x: int, a: int, b: int) -> float:
    """P_x(hit a before b) = d(x, b) / d(a, b) for x on the segment [a, b].

    Distance is the natural scale of the walk, whatever the speed measure.
    """
    if a == b:
        raise OracleError("a and b must differ")
    if not tree.on_segment(x, a, b):
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
    free = np.ones(tree.n, dtype=bool)
    for k, v in fixed.items():
        out[k] = v
        free[k] = False
    if not free.any():
        return out
    # conductance Laplacian of the tree; rows of free vertices have zero flux
    kids = np.flatnonzero(np.arange(tree.n) != tree.root)
    adj = sp.csr_matrix((1.0 / tree.edge_length[kids], (kids, tree.parent[kids])),
                        shape=(tree.n, tree.n))
    adj = adj + adj.T
    lap = (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()[free]
    out[free] = spla.spsolve(lap[:, free].tocsc(), -(lap[:, ~free] @ out[~free]))
    return out


def tree_energy(tree: RootedMetricTree, f) -> float:
    """E(f, f) summed over edges with conductance 1/length."""
    fv = vertex_function(tree, f, OracleError)
    acc = 0.0
    for v, p, ell in tree.edges():
        d = fv[v] - fv[p]
        acc += d * d / ell
    return 0.5 * acc


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
    if not tree.on_segment(w, u, v):
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
    """One-time marginal laws P_t(x, .) over chain states, shaped like
    transition_laws: one (starts, states) block per time."""

    chain: WalkChain
    starts: list
    times: list
    laws: np.ndarray          # shape (len(times), len(starts), n_states)
    uniformization_rate: float
    terms: int


def l2_bound(chain: WalkChain, t: float) -> float:
    """Nash-type ceiling 1/mass(T) + diam/t for the squared density norm
    sum_y P_t(x, y)^2 / mass(y), from any start x; inf for t <= 0."""
    if t <= 0:
        return math.inf
    return 1.0 / chain.total_mass + chain.diameter() / t


def set_prob_bound(chain: WalkChain, t: float, vertices: Sequence[int]) -> float:
    """Cauchy-Schwarz bound for P_t(x, A) from the density norm ceiling.

    A vertex folded out of the chain carries no mass and counts 0; an id
    outside 0..n-1 raises OracleError naming it.
    """
    n = chain.tree.n
    for v in vertices:
        if not 0 <= v < n:
            raise OracleError(f"vertex {v} is outside 0..{n - 1}")
    mass = sum(chain.mass[chain.index[v]]
               for v in vertices if v in chain.index)
    return math.sqrt(l2_bound(chain, t)) * math.sqrt(mass)


def _law_inputs(chain: WalkChain, starts, times):
    """Chain indices of the starts and the times as floats.

    Raises OracleError naming a start that is not a chain state, or the
    times when the list is empty or holds a negative or non-finite value.
    """
    idx = [_state_index(chain, s, "start", OracleError) for s in starts]
    tlist = [float(t) for t in times]
    bad = [t for t in tlist if not (math.isfinite(t) and t >= 0)]
    if not tlist or bad:
        raise OracleError("times must be finite, nonnegative and nonempty, "
                          f"got {bad or tlist}")
    return idx, tlist


def _path_order(q: sp.csr_matrix):
    """Row order along the chain when the pattern of q is a path, else None.

    A connected chain with n - 1 pairs and at most two neighbours per state
    is a path; the order starts at its end with the larger state index.
    """
    width = np.diff(q.indptr)             # neighbours plus the diagonal
    if q.nnz != 3 * q.shape[0] - 2 or width.max() > 3:
        return None
    return depth_first_order(q, int(np.flatnonzero(width == 2)[-1]),
                             directed=False, return_predecessors=False)


def transition_laws(chain: WalkChain, starts, times) -> np.ndarray:
    """Laws P_t(x, .) over the chain states, shape (times, starts, states).

    The generator Q is reversible for the masses m, so S = D^(1/2) Q D^(-1/2)
    with D = diag(m) is symmetric: S[i, j] = c(i, j) / (2 sqrt(m_i m_j)) off
    the diagonal, read off chain.conductance (one rounding fewer than
    sqrt(Q[i, j] Q[j, i])), and S[i, i] = Q[i, i].  One eigendecomposition
    S = V diag(w) V^T gives every law,

        P_t(x, y) = sqrt(m_y / m_x) sum_k V[x, k] exp(w_k t) V[y, k],

    and only the rows of the requested starts are formed; unlike the series,
    the cost does not grow with the stiffest rate.  A path chain takes the
    tridiagonal solver in path order; any other chain takes dense
    divide-and-conquer eigh, O(n^3) time and O(n^2) memory.  Rounding
    negatives are clipped to zero and each row is renormalised to a
    distribution.  Inputs are checked as in heat_kernel.
    """
    idx, tlist = _law_inputs(chain, starts, times)
    n = chain.n_states
    c = chain.conductance
    m = chain.mass
    vals = c.data / (2.0 * np.sqrt(np.repeat(m, np.diff(c.indptr)) * m[c.indices]))
    sym = (sp.csr_matrix((vals, c.indices, c.indptr), shape=(n, n))
           + sp.diags(-chain.exit_rate, format="csr"))
    order = _path_order(sym)
    if order is None:
        order = np.arange(n)
        # LAPACK divide and conquer (syevd); the MRRR routine (syevr) was up
        # to 40x slower on the clustered spectra of crt's reference chains
        evals, vecs = eigh(sym.toarray())
    else:
        evals, vecs = eigh_tridiagonal(sym.diagonal()[order],
                                       sym[order[:-1], order[1:]].A1)
    sqrt_m = np.sqrt(chain.mass[order])
    out = np.empty((len(tlist), len(idx), n))
    at = np.argsort(order)[idx]           # where the starts sit in order
    for j, t in enumerate(tlist):
        decay = np.exp(evals * t)
        for k, px in enumerate(at):
            row = (vecs @ (decay * vecs[px])) * sqrt_m / sqrt_m[px]
            row = np.clip(row, 0.0, None)
            out[j, k, order] = row / row.sum()
    return out


def heat_kernel(chain: WalkChain, starts, times) -> HeatKernelResult:
    """Laws of the walk at fixed times by uniformized series; no time stepping.

    The independent oracle for transition_laws, which is the engine, and
    shaped like it: laws[j, k] is P_t(x, .) for t = times[j], x = starts[k].

    P_t = sum_k Poisson(k; L t) B^k with B = I + Q / L and L just above the
    top exit rate.  The Poisson weights depend on the times only, so one
    loop over them moves every start at once: a (starts, 1, n) stack times
    B, which gives each start's row the bits of a one-start product, as a
    2-D (starts, n) product would not.  Terms are added until the Poisson
    weights of every requested time have absorbed all but 1e-12 of their
    mass, with weights computed in log space so large L t cannot underflow.
    A time whose sum stalls below that in floating point is finished once k
    is past its mean a = L t and its weight has underflowed to 0.0: past
    the mode the weights only fall.  The Chernoff bound on the Poisson tail
    puts that underflow (log weight below -746) within a + 39 sqrt(a) + 498,
    so

        terms <= a_max + 39 * sqrt(a_max) + 499,   a_max = L * max(times),

    whatever the number of starts, for finite nonnegative times; others,
    and a start that is not a chain state, raise OracleError.  B is held
    dense: memory is O(n^2 + starts * n * times) for n states, and the
    oracle runs on small chains, where a dense product beats a sparse one.
    """
    idx, tlist = _law_inputs(chain, starts, times)
    n = chain.n_states
    lam = 1.1 * float(chain.exit_rate.max())
    b = (sp.identity(n, format="csr") + chain.generator / lam).toarray()

    out = np.zeros((len(tlist), len(idx), n))
    cum = np.zeros(len(tlist))
    lt = np.array([lam * t for t in tlist])
    psi = np.zeros((len(idx), 1, n))
    psi[np.arange(len(idx)), 0, idx] = 1.0
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
                out[i] += w * psi[:, 0]
                cum[i] += w
            finished[i] = cum[i] >= 1.0 - POISSON_TAIL or (k > a and w == 0.0)
        if all(finished):
            break
        psi = psi @ b
        k += 1
    # renormalize the truncated tail so each row is an exact distribution
    out /= out.sum(axis=2, keepdims=True)
    return HeatKernelResult(chain=chain, starts=chain.states[idx].tolist(),
                            times=tlist, laws=out, uniformization_rate=lam,
                            terms=k)
