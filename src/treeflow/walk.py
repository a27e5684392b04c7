"""Continuous-time walks driven by a vertex measure and edge conductances.

The chain attached to a tree and a mass vector jumps from u to a neighbor v
at rate

    rate(u -> v) = c(u, v) / (2 * mass(u)),      c(u, v) = 1 / edge_length,

so big atoms slow the walk down and short edges speed it up.  Vertices with
zero mass are eliminated exactly: the walk would spend zero time there, and
folding such a vertex into its neighborhood by the star-mesh rule
c'_ij = c_i * c_j / sum(c) reproduces the law of the watched process on the
remaining states (the rule is the one-vertex Schur complement of the
conductance Laplacian, which preserves effective resistances).  What is left
is one symmetric sparse matrix per chain, `chain.conductance`, from which the
rates, the generator and the sampler's jump table are all read.

Sampling is exact and event by event; nothing is discretized in time.
`lockstep_ensemble` steps a whole ensemble at once from a single generator
and returns end times, endpoints and one holding time per replicate, and on
request the log of every path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .tree import FLOAT_SLACK, RootedMetricTree, SpeedMeasure

SWEEP_CAP = 2_000_000


class ChainError(ValueError):
    """Invalid chain construction or query."""


class JumpCapExceeded(RuntimeError):
    """A lockstep ensemble exceeded SWEEP_CAP sweeps."""


class WalkChain:
    """States with masses, one symmetric conductance matrix, and exact jump rates.

    ``conductance`` is CSR over the states, symmetric, with sorted columns
    and no diagonal; every rate, the generator and the jump table are read
    off it.
    """

    def __init__(self, tree: RootedMetricTree, states: np.ndarray, mass: np.ndarray,
                 conductance: sp.csr_matrix):
        self.tree = tree
        self.states = states
        self.mass = mass
        self.index = {int(v): i for i, v in enumerate(states)}
        self.conductance = conductance
        # rate(i -> j) = c(i, j) / (2 mass(i)), aligned with conductance.data
        self._rates = conductance.data / (2.0 * np.repeat(mass, np.diff(conductance.indptr)))
        # .sum() per row: numpy sums pairwise, and np.add.reduceat, which sums
        # in sequence, rounds differently on rows of more than 8 entries
        self.exit_rate = np.array(
            [r.sum() for r in np.split(self._rates, conductance.indptr[1:-1])])

    @cached_property
    def jump_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Neighbors and cumulative jump probabilities, padded to one width.

        Cumulative rows end in 1.0 from the last neighbor on, so
        count(cum[i] <= u) < degree(i) for u < 1.
        """
        c = self.conductance
        degree = np.diff(c.indptr)
        rows = np.repeat(np.arange(self.n_states), degree)
        slot = np.arange(c.nnz) - c.indptr[rows]
        nbr = np.zeros((self.n_states, degree.max()), dtype=np.int64)
        rates = np.zeros(nbr.shape)
        nbr[rows, slot] = c.indices
        rates[rows, slot] = self._rates
        cum = np.cumsum(rates, axis=1) / self.exit_rate[:, None]
        # guard the top against rounding
        cum[np.arange(nbr.shape[1]) >= degree[:, None] - 1] = 1.0
        return nbr, cum

    @cached_property
    def generator(self) -> sp.csr_matrix:
        """Sparse generator Q: Q[i, j] = rate(i -> j), Q[i, i] = -exit_rate[i]."""
        c = self.conductance
        jumps = sp.csr_matrix((self._rates, c.indices, c.indptr), shape=c.shape)
        return jumps - sp.diags(self.exit_rate, format="csr")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def rate(self, u: int, v: int) -> float:
        """Jump rate u -> v; 0.0 between states that share no conductance."""
        i, j = _state_index(self, u, "from"), _state_index(self, v, "to")
        return self.conductance[i, j] / (2.0 * self.mass[i])

    def jump_rates(self, u: int) -> dict[int, float]:
        """Rate to each neighbor of u, keyed by vertex id."""
        i = _state_index(self, u, "from")
        lo, hi = self.conductance.indptr[i:i + 2]
        return {int(self.states[j]): float(r) for j, r in zip(
            self.conductance.indices[lo:hi], self._rates[lo:hi])}

    def farthest_state(self, vertex: int) -> int:
        """State farthest from a tree vertex; the lowest id among states
        within FLOAT_SLACK of the farthest distance."""
        d = self.tree.distance(int(vertex), self.states)
        return int(self.states[np.flatnonzero(d >= d.max() - FLOAT_SLACK)[0]])

    def diameter(self) -> float:
        """Diameter of the state set in the ambient tree metric (double sweep)."""
        if self.n_states <= 1:
            return 0.0
        a = int(self.states[0])
        for _ in range(2):
            dists = self.tree.distance(a, self.states)
            j = int(np.argmax(dists))
            far = float(dists[j])
            a = int(self.states[j])
        return far

    def __repr__(self):
        return f"WalkChain(states={self.n_states}, total_mass={self.total_mass:.6g})"


def build_chain(tree: RootedMetricTree, measure: SpeedMeasure) -> WalkChain:
    """Conductance network of the tree with zero-mass vertices folded away."""
    if len(measure) != tree.n:
        raise ChainError("measure does not match tree vertex count")
    positive = measure.positive_vertices()
    if len(positive) < 2:
        raise ChainError("need at least two positive-mass vertices")
    adj: dict[int, dict[int, float]] = {v: {} for v in range(tree.n)}
    for v, p, ell in tree.edges():
        c = 1.0 / ell
        adj[v][p] = adj[v].get(p, 0.0) + c
        adj[p][v] = adj[p].get(v, 0.0) + c
    for w in range(tree.n):
        if measure.masses[w] > 0:
            continue
        nb = sorted(adj[w].items())
        total = sum(c for _, c in nb)
        for i in range(len(nb)):
            ui, ci = nb[i]
            for j in range(i + 1, len(nb)):
                uj, cj = nb[j]
                add = ci * cj / total
                adj[ui][uj] = adj[ui].get(uj, 0.0) + add
                adj[uj][ui] = adj[uj].get(ui, 0.0) + add
        for u, _ in nb:
            del adj[u][w]
        del adj[w]
    states = np.array(sorted(adj), dtype=np.int64)
    pos = np.zeros(tree.n, dtype=np.int64)
    pos[states] = np.arange(len(states))
    u, v, c = zip(*((u, v, c) for u in adj for v, c in adj[u].items()))
    conductance = sp.csr_matrix((c, (pos[list(u)], pos[list(v)])),
                                shape=(len(states), len(states)))
    if connected_components(conductance, directed=False)[0] != 1:
        raise ChainError("reduced network is disconnected")
    mass = measure.masses[states].copy()
    return WalkChain(tree, states, mass, conductance)


def rng_from(seed) -> np.random.Generator:
    """Coerce an int, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _state_index(chain: WalkChain, vertex, role: str, error=ChainError) -> int:
    """Chain index of a vertex; the caller's ``error`` class naming it if it
    is not a state."""
    i = chain.index.get(int(vertex))
    if i is None:
        raise error(f"{role} vertex {vertex} is not a chain state")
    return i


def dirichlet_energy(chain: WalkChain, f, g=None) -> float:
    """Quadratic form E(f, g) = (1/2) sum over conductance pairs c * df * dg.

    Each pair sits twice in the symmetric conductance matrix, hence 1/4.
    Satisfies E(f, g) = -(Lf, g) weighted by the state masses.
    """
    fs = vertex_function(chain.tree, f)[chain.states]
    gs = fs if g is None else vertex_function(chain.tree, g)[chain.states]
    c = chain.conductance.tocoo()
    return 0.25 * float(np.sum(c.data * (fs[c.row] - fs[c.col]) * (gs[c.row] - gs[c.col])))


def vertex_function(tree: RootedMetricTree, f, error=ChainError) -> np.ndarray:
    """One value per tree vertex from a mapping, a scalar or an array.

    A mapping sets the listed vertices and leaves the rest at 0; a scalar is
    a constant function; anything else must have length ``tree.n``.  Bad
    input raises the caller's ``error`` class.
    """
    if isinstance(f, Mapping):
        out = np.zeros(tree.n)
        for k, v in f.items():
            if not 0 <= int(k) < tree.n:
                raise error(f"function names vertex {k}, outside 0..{tree.n - 1}")
            out[int(k)] = float(v)
        return out
    if np.isscalar(f):
        return np.full(tree.n, float(f))
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != (tree.n,):
        raise error(f"function must assign a value to every vertex: expected "
                    f"length {tree.n}, got shape {arr.shape}")
    return arr


@dataclass
class LockstepResult:
    """Per-replicate outcomes of `lockstep_ensemble`, one array entry each."""

    end_times: np.ndarray     # stop time, or the horizon
    endpoints: np.ndarray     # vertex id held at the end time
    stopped: np.ndarray       # True where a stop state was entered
    occupation: np.ndarray    # holding time at ``occupy`` before the end
    # with keep_paths: aligned (replicate, time, vertex) arrays, one entry
    # per state a walk holds, ordered by replicate and then by time
    paths: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None


def lockstep_ensemble(chain: WalkChain, start: int, stop_states, seed,
                      replicates: int, horizon: Optional[float] = None,
                      occupy: Optional[int] = None,
                      keep_paths: bool = False) -> LockstepResult:
    """Run ``replicates`` walks from ``start`` in lockstep until each stops.

    A walk stops when it enters a vertex of ``stop_states`` (at time 0 if it
    starts in one), or at ``horizon`` in the state it holds there, whichever
    comes first.  Each sweep moves every running walk one jump: it draws
    ``standard_exponential(alive)`` (the values ``exponential(size=alive)``
    would give) and then ``random(alive)`` from one generator in ascending
    replicate order, then picks every next state with width - 1 compares of
    the uniforms against one contiguous column each of cumulative jump
    probabilities (width is that of ``chain.jump_table``).
    The occupation is the time held at ``occupy`` before the end (zero
    without ``occupy``).  With ``keep_paths`` the result also logs
    ``(r, 0.0, start)`` and every jump taken before the end, at most one
    entry per replicate and sweep; the flag changes no draw.

    Raises ChainError before sampling if ``start``, a stop state or ``occupy``
    is not a chain state, if there is no stop state and the horizon is None
    or infinite, if the horizon is NaN or negative, or if ``replicates`` is
    not an int (a bool is not) of at least 1; and JumpCapExceeded after
    SWEEP_CAP sweeps.
    """
    s0 = _state_index(chain, start, "start")
    is_stop = np.zeros(chain.n_states, dtype=bool)
    is_stop[[_state_index(chain, v, "stop") for v in stop_states]] = True
    occ_state = -1 if occupy is None else _state_index(chain, occupy, "occupy")
    if not is_stop.any() and (horizon is None or horizon == np.inf):
        raise ChainError(f"lockstep ensemble needs a stop state or a horizon, "
                         f"got horizon {horizon} and no stop state")
    if horizon is not None and not horizon >= 0:
        raise ChainError(f"horizon must be nonnegative, got {horizon}")
    if isinstance(replicates, bool) or not isinstance(replicates, int):
        raise ChainError(f"replicates must be an int, got {replicates!r}")
    if replicates < 1:
        raise ChainError(f"replicates must be at least 1, got {replicates}")
    rng = rng_from(seed)
    nbr, cum = chain.jump_table
    width = nbr.shape[1]
    nbr = nbr.ravel()
    # one contiguous column per comparison; the last is 1.0 > u, never counted
    cols = cum.T[:-1].copy()
    exit_rate = chain.exit_rate
    end_t = np.zeros(replicates)
    end_state = np.full(replicates, s0, dtype=np.int64)
    stopped = np.full(replicates, is_stop[s0])
    occ = np.zeros(replicates)
    # the running walks, compacted every sweep in ascending row order
    rows = np.flatnonzero(~stopped)
    cur = np.full(rows.size, s0, dtype=np.int64)
    t = np.zeros(rows.size)
    if keep_paths:
        log = [(np.arange(replicates), np.zeros(replicates), end_state.copy())]
    sweeps = 0
    while rows.size:
        sweeps += 1
        if sweeps > SWEEP_CAP:
            raise JumpCapExceeded(f"lockstep ensemble exceeded {SWEEP_CAP} sweeps")
        dt = rng.standard_exponential(cur.size) / exit_rate[cur]
        t_new = t + dt
        u = rng.random(cur.size)
        k = cur * width
        for col in cols:
            k += u >= col[cur]
        nxt = nbr[k]
        if occ_state >= 0:
            at = cur == occ_state
            held = dt if horizon is None else np.where(t_new > horizon, horizon - t, dt)
            occ[rows[at]] += held[at]
        if horizon is None:
            t, cur = t_new, nxt
            hit = done = is_stop[nxt]
            jumped = slice(None)
        else:
            late = t_new > horizon
            t = np.where(late, horizon, t_new)
            cur = np.where(late, cur, nxt)
            hit = ~late & is_stop[nxt]
            done = late | hit
            jumped = ~late
        if keep_paths:
            log.append((rows[jumped], t[jumped], cur[jumped]))
        if done.any():
            fin, keep = rows[done], ~done
            stopped[fin], end_t[fin], end_state[fin] = hit[done], t[done], cur[done]
            rows, cur, t = rows[keep], cur[keep], t[keep]
    paths = None
    if keep_paths:
        rep, time, state = (np.concatenate(col) for col in zip(*log))
        order = np.argsort(rep, kind="stable")
        paths = (rep[order], time[order], chain.states[state[order]])
    return LockstepResult(end_t, chain.states[end_state], stopped, occ, paths)


def export_paths_csv(paths: tuple[np.ndarray, np.ndarray, np.ndarray], fh):
    """Rows replicate,jump_index,time,state from `LockstepResult.paths`;
    index 0 is the starting state."""
    rep, time, vertex = paths
    jump_index = np.arange(rep.size) - np.searchsorted(rep, rep)
    writer = csv.writer(fh)
    writer.writerow(["replicate", "jump_index", "time", "state"])
    writer.writerows(zip(rep.tolist(), jump_index.tolist(),
                         map(repr, time.tolist()), vertex.tolist()))
