"""Rooted trees with edge lengths, vertex measures, and discretization.

A tree is stored as a parent map plus positive edge lengths; every vertex id
is an integer in ``range(n)`` and the root is its own parent.  One
depth-first pass at construction derives the preorder, depths, heights
(distance to the root) and subtree sizes, and all metric queries go through
lowest-common-ancestor arithmetic:

    d(x, y) = height[x] + height[y] - 2 * height[lca(x, y)]

One Euler-tour table with a sparse range-minimum index (built on the first
query) answers every meet in O(1).  The same table serves the scalar
``lca(x, y)`` / ``distance(x, y)`` on two vertex ids and their batched
forms on id arrays, which broadcast like numpy and keep the operand order
above, so a batched distance equals the scalar one bit for bit.
``distance_block`` evaluates a whole xs-by-ys block a bounded number of
pairs at a time.

The module also provides the measure-side toolkit used throughout the
package: per-vertex mass vectors (:class:`SpeedMeasure`), lower mass
bounds over balls, degree counts at a scale, restriction to a ball around
the root, branch closures, nets, and the root-ward projection onto a subset
together with its mass pushforward.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Mapping, Optional

import numpy as np

GEOM_TOL = 1e-9
FLOAT_SLACK = 1e-12
# vertex pairs per batched distance block: bounds the temporaries of one block
PAIR_BLOCK = 1 << 16

_INTEGER = (int, np.integer)


class TreeError(ValueError):
    """Structurally invalid tree or malformed geometric query."""


class MeasureError(ValueError):
    """Invalid mass assignment."""


def _as_int(v, what="vertex"):
    iv = int(v)
    if iv != v:
        raise TreeError(f"{what} must be an integer, got {v!r}")
    return iv


class _EulerTable:
    """Euler tour of a tree plus a sparse minimum table over it.

    Bender & Farach-Colton, "The LCA problem revisited" (LATIN 2000):
    lca(x, y) is the shallowest vertex of the tour between the first visits
    of x and y.  Row k of the table holds the minimum of every tour window
    of length 2^k, so two overlapping windows cover any range.  Entries are
    ``depth << bits | vertex``, so a minimum carries its vertex, read back
    with ``& mask``.  Rows are stored flat: for a range of length s from lo
    to hi, the two windows sit at ``lo_offset[s] + lo`` and
    ``hi_offset[s] + hi``.  O(n log n) to build, O(1) per query.

    The tour is read off the tree's preorder in O(n), with no walk of its
    own: v is first visited at ``first[v] = 2 pre[v] - depth[v]`` (pre its
    preorder rank) and last at ``last[v] = first[v] + 2 (size[v] - 1)``,
    and the tour is back at the parent of each non-root c at ``last[c] + 1``.
    v's subtree is the vertices whose first visit lies in that window.
    """

    def __init__(self, tree: "RootedMetricTree"):
        n = tree.n
        pre = np.empty(n, dtype=np.int64)
        pre[tree.order] = np.arange(n)
        first = 2 * pre - tree.depth
        last = first + 2 * (tree.size - 1)
        m = 2 * n - 1
        euler = np.empty(m, dtype=np.int64)
        euler[first] = np.arange(n)
        kids = tree.order[1:]
        euler[last[kids] + 1] = tree.parent[kids]
        bits = n.bit_length()
        table = np.empty((m.bit_length(), m), dtype=np.int64)
        table[0] = (tree.depth[euler] << bits) | euler
        for k in range(1, table.shape[0]):
            # row k covers tour windows of length 2^k; its tail is never read
            span = m - (1 << k) + 1
            table[k, :span] = np.minimum(table[k - 1, :span],
                                         table[k - 1, (1 << (k - 1)):][:span])
        lengths = np.arange(m + 1)
        lengths[0] = 1
        level = np.frexp(lengths.astype(np.float64))[1] - 1
        self.width = m
        self.keys = table.ravel()
        self.mask = (1 << bits) - 1
        self.lo_offset = level * m
        self.hi_offset = level * m + 1 - np.left_shift(1, level)
        self.first = first
        self.last = last
        # plain lists serve the scalar queries without numpy scalar overhead
        self.first_list = first.tolist()
        self.heights = tree.height.tolist()

    def meet(self, x: int, y: int) -> int:
        """lca of two valid vertex ids."""
        i, j = self.first_list[x], self.first_list[y]
        if i > j:
            i, j = j, i
        k = (j - i + 1).bit_length() - 1
        base = k * self.width
        a = self.keys.item(base + i)
        b = self.keys.item(base + j + 1 - (1 << k))
        return (a if a < b else b) & self.mask

    def meets(self, xs, ys) -> np.ndarray:
        """lca of valid vertex id arrays (or a full slice), broadcast."""
        i, j = self.first[xs], self.first[ys]
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        span = hi - lo + 1
        a = self.keys[self.lo_offset[span] + lo]
        b = self.keys[self.hi_offset[span] + hi]
        return np.minimum(a, b) & self.mask


class RootedMetricTree:
    """Finite rooted tree with strictly positive edge lengths.

    Instances are built through :func:`build_tree` (or the generator
    helpers), which validates the structure.  One O(n) depth-first pass from
    the root, children by ascending id, gives the preorder ``order`` and each
    vertex's ``depth``, ``height`` and subtree ``size``; a vertex it misses
    lies on a cycle.  Arrays are frozen after construction.
    """

    def __init__(self, parent: np.ndarray, edge_length: np.ndarray, root: int):
        self.parent = parent
        self.edge_length = edge_length
        self.root = root
        self.n = n = parent.shape[0]
        # children grouped by parent, ascending ids within a group; the
        # root, keyed -1, sorts ahead of every group and is dropped
        key = parent.copy()
        key[root] = -1
        self._kids = np.argsort(key, kind="stable")[1:]
        self._kid_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(key[self._kids], minlength=n),
                  out=self._kid_start[1:])
        self.order, self.depth, self.height, self.size = self._preorder()
        self._euler: Optional[_EulerTable] = None
        for arr in (self.parent, self.edge_length, self.order, self.depth,
                    self.height, self.size, self._kids, self._kid_start):
            arr.setflags(write=False)

    # -- construction internals ------------------------------------------

    def _preorder(self):
        """(order, depth, height, size) from one depth-first pass."""
        n, root = self.n, self.root
        par, ell = self.parent.tolist(), self.edge_length.tolist()
        # children reversed, so the stack pops each group in ascending order
        stacked = self._kids[::-1].tolist()
        hi = (n - 1 - self._kid_start).tolist()
        depth, height, order = [0] * n, [0.0] * n, [root]
        stack = stacked[hi[root + 1]:hi[root]]
        while stack:
            v = stack.pop()
            order.append(v)
            p = par[v]
            depth[v] = depth[p] + 1
            height[v] = height[p] + ell[v]
            stack += stacked[hi[v + 1]:hi[v]]
        if len(order) < n:
            raise TreeError("parent pointers contain a cycle")
        size = [1] * n
        for v in reversed(order[1:]):
            size[par[v]] += size[v]
        return (np.array(order, dtype=np.int64), np.array(depth, dtype=np.int64),
                np.array(height, dtype=np.float64), np.array(size, dtype=np.int64))

    def _tables(self) -> "_EulerTable":
        if self._euler is None:
            self._euler = _EulerTable(self)
        return self._euler

    @functools.cached_property
    def _path_positions(self) -> Optional[np.ndarray]:
        """d(end, v) for every v when the tree is a path, else None; built
        on first use and kept, like the Euler table.

        In a path the root has at most two children and every other vertex
        at most one; the deepest vertex is then an end.
        """
        kids = np.bincount(self.parent, minlength=self.n)
        kids[self.root] -= 2      # its own parent, and allowed a second child
        if kids.max() > 1:
            return None
        pos = self.distances_from(int(np.argmax(self.height)))
        pos.setflags(write=False)
        return pos

    def _vertex_array(self, vs) -> np.ndarray:
        arr = np.asarray(vs)
        if arr.size == 0:
            return arr.astype(np.int64)
        if arr.dtype.kind not in "iu":
            raise TreeError(f"vertex ids must be integers, got dtype {arr.dtype}")
        bad = (arr < 0) | (arr >= self.n)
        if bad.any():
            raise TreeError(f"vertex {arr[bad].flat[0]} outside vertex range "
                            f"0..{self.n - 1}")
        return arr.astype(np.int64, copy=False)

    def _lca_scalar(self, x: int, y: int) -> int:
        n = self.n
        if not (0 <= x < n and 0 <= y < n):
            bad = y if 0 <= x < n else x
            raise TreeError(f"vertex {bad} outside vertex range 0..{n - 1}")
        return (self._euler or self._tables()).meet(x, y)

    def _distance_array(self, xs, ys) -> np.ndarray:
        h = self.height
        return h[xs] + h[ys] - 2.0 * h[self._tables().meets(xs, ys)]

    # -- basic queries ----------------------------------------------------

    def children(self, v: int) -> np.ndarray:
        """Children of v in ascending id order."""
        return self._kids[self._kid_start[v]:self._kid_start[v + 1]]

    def neighbors(self, v: int) -> np.ndarray:
        if v == self.root:
            return self.children(v)
        return np.concatenate(([int(self.parent[v])], self.children(v)))

    def edges(self):
        """Yield (child, parent, length) for every edge."""
        for v in range(self.n):
            if v != self.root:
                yield v, int(self.parent[v]), float(self.edge_length[v])

    def lca(self, x, y):
        """Lowest common ancestor; O(1) after an O(n log n) table build.

        Two vertex ids give an int.  Arrays (or an id and an array) give an
        array of meets under numpy broadcasting.
        """
        if isinstance(x, _INTEGER) and isinstance(y, _INTEGER):
            return self._lca_scalar(x, y)
        return self._tables().meets(self._vertex_array(x), self._vertex_array(y))

    def distance(self, x, y):
        """d(x, y) = height[x] + height[y] - 2 * height[lca(x, y)].

        Two vertex ids give a float; arrays broadcast like :meth:`lca` and
        give an array with the same operand order, so both agree bit for bit.
        """
        if isinstance(x, _INTEGER) and isinstance(y, _INTEGER):
            a = self._lca_scalar(x, y)
            h = self._euler.heights   # built by the meet above
            return h[x] + h[y] - 2.0 * h[a]
        return self._distance_array(self._vertex_array(x), self._vertex_array(y))

    def distance_block(self, xs, ys) -> np.ndarray:
        """len(xs) x len(ys) array of d(x, y), rows computed PAIR_BLOCK pairs at a time."""
        xs = self._vertex_array(xs).ravel()
        ys = self._vertex_array(ys).ravel()
        out = np.empty((len(xs), len(ys)), dtype=np.float64)
        for start, block in self._distance_rows(xs, ys):
            out[start:start + len(block)] = block
        return out

    def _distance_rows(self, xs: np.ndarray, ys: np.ndarray):
        """Yield (first row, block) over row chunks of the xs x ys distances."""
        rows = max(1, PAIR_BLOCK // max(1, len(ys)))
        for start in range(0, len(xs), rows):
            yield start, self._distance_array(xs[start:start + rows, None],
                                              ys[None, :])

    def branch_point(self, x, y, z):
        """Median vertex of x, y, z: the unique point on all three segments.

        Three vertex ids give an int; arrays broadcast like :meth:`lca` and
        give an array of medians.
        """
        a, b, c = self.lca(x, y), self.lca(y, z), self.lca(x, z)
        # two of the three pairwise meets coincide; the deepest one is the median
        depth = self.depth
        best = np.where(depth[b] > depth[a], b, a)
        best = np.where(depth[c] > depth[best], c, best)
        return best if best.ndim else int(best)

    def on_segment(self, u, x, y):
        """Whether u lies on the segment [x, y], within ``GEOM_TOL``; an array
        of ids u gives an array of flags."""
        gap = self.distance(x, u) + self.distance(u, y) - self.distance(x, y)
        return abs(gap) <= GEOM_TOL

    def ancestors(self, v: int) -> list[int]:
        """Vertices on the root segment of v, from v up to the root inclusive."""
        out = [v]
        while v != self.root:
            v = int(self.parent[v])
            out.append(v)
        return out

    def distances_from(self, x: int) -> np.ndarray:
        """Distance from x to every vertex."""
        x = int(x)
        if not 0 <= x < self.n:
            raise TreeError(f"vertex {x} outside vertex range 0..{self.n - 1}")
        # the full slice indexes every vertex without gathering
        return self._distance_array(x, slice(None))

    def diameter(self) -> float:
        """Exact diameter via a double farthest-point sweep."""
        if self.n == 1:
            return 0.0
        a = int(np.argmax(self.height))
        da = self.distances_from(a)
        return float(da.max())

    def __repr__(self):
        return f"RootedMetricTree(n={self.n}, root={self.root})"


def build_tree(parents, edge_lengths, root: int) -> RootedMetricTree:
    """Validate and build a rooted tree.

    ``parents`` maps every non-root vertex to its parent (the root may be
    included mapping to itself); ``edge_lengths`` maps every non-root vertex
    to the strictly positive length of the edge toward its parent.  Vertex
    ids must be exactly 0..n-1.
    """
    root = _as_int(root, "root")
    if isinstance(parents, Mapping):
        keys = {_as_int(k) for k in parents}
        keys.add(root)
        n = max(keys) + 1 if keys else 0
        if keys != set(range(n)):
            missing = sorted(set(range(n)) - keys)
            raise TreeError(f"vertex ids must be contiguous from 0; missing {missing}")
        parr = np.empty(n, dtype=np.int64)
        parr[root] = root
        for k, p in parents.items():
            k = _as_int(k)
            if k == root:
                if _as_int(p) != root:
                    raise TreeError("root must be its own parent")
                continue
            parr[k] = _as_int(p, "parent")
    else:
        parr = np.asarray(parents, dtype=np.int64).copy()
        n = parr.shape[0]
        parr[root] = root
    if n == 0:
        raise TreeError("empty tree")
    if not (0 <= root < n):
        raise TreeError(f"root {root} outside vertex range 0..{n - 1}")
    if ((parr < 0) | (parr >= n)).any():
        raise TreeError("dangling vertex: parent id outside vertex range")

    if isinstance(edge_lengths, Mapping):
        earr = np.zeros(n, dtype=np.float64)
        seen = set()
        for k, ell in edge_lengths.items():
            k = _as_int(k)
            if not (0 <= k < n):
                raise TreeError(f"dangling vertex {k} in edge lengths")
            earr[k] = float(ell)
            seen.add(k)
        missing = set(range(n)) - seen - {root}
        if missing:
            raise TreeError(f"missing edge length for vertices {sorted(missing)}")
    else:
        earr = np.asarray(edge_lengths, dtype=np.float64).copy()
        if earr.shape[0] != n:
            raise TreeError("edge length array does not match vertex count")
    earr[root] = 0.0
    bad = ~((earr > 0.0) & np.isfinite(earr))
    bad[root] = False
    if bad.any():
        raise TreeError("edge lengths must be strictly positive and finite; "
                        f"bad at {np.flatnonzero(bad).tolist()}")
    return RootedMetricTree(parr, earr, root)  # cycle check happens here


# -- measures --------------------------------------------------------------


class SpeedMeasure:
    """Nonnegative finite mass per vertex, aligned with a tree's vertex ids.

    Strict positivity is not required here (a massless vertex is folded out
    of the chain); operations that need at least two positive atoms, such as
    chain construction, enforce it themselves.
    """

    def __init__(self, masses):
        m = np.asarray(masses, dtype=np.float64).copy()
        if m.ndim != 1:
            raise MeasureError("masses must be a flat vector")
        if not np.all(np.isfinite(m)):
            raise MeasureError("masses must be finite")
        if (m < 0).any():
            raise MeasureError("masses must be nonnegative")
        m.setflags(write=False)
        self.masses = m

    @classmethod
    def from_dict(cls, n: int, mapping: Mapping[int, float]) -> "SpeedMeasure":
        m = np.zeros(n, dtype=np.float64)
        for k, v in mapping.items():
            k = _as_int(k)
            if not 0 <= k < n:
                raise MeasureError(f"vertex {k} outside vertex range 0..{n - 1}")
            m[k] = float(v)
        return cls(m)

    def __len__(self):
        return self.masses.shape[0]

    def __getitem__(self, v: int) -> float:
        return float(self.masses[v])

    @property
    def total(self) -> float:
        return float(self.masses.sum())

    def positive_vertices(self) -> np.ndarray:
        return np.nonzero(self.masses > 0)[0]

    def ball_mass(self, tree: RootedMetricTree, x: int, radius: float,
                  closed: bool = True) -> float:
        return float(self.ball_masses(tree, [int(x)], radius, closed)[0])

    def ball_masses(self, tree: RootedMetricTree, centers, radius: float,
                    closed: bool = True) -> np.ndarray:
        """Mass of the ball of ``radius`` around each center, one per center.

        Each ball sums ``masses[selected]`` on its own, so a value does not
        depend on which other centers share its distance block.
        """
        centers = tree._vertex_array(centers).ravel()
        out = np.empty(len(centers), dtype=np.float64)
        everyone = np.arange(tree.n)
        for start, block in tree._distance_rows(centers, everyone):
            if closed:
                sel = block <= radius + FLOAT_SLACK
            else:
                sel = block < radius - FLOAT_SLACK
            out[start:start + len(block)] = [self.masses[row].sum() for row in sel]
        return out

    def __repr__(self):
        return f"SpeedMeasure(n={len(self)}, total={self.total:.6g})"


def lower_mass(tree: RootedMetricTree, measure: SpeedMeasure, delta: float,
               radius: Optional[float] = None) -> float:
    """Infimum over centers of the measure of the closed delta-ball.

    With ``radius`` given, centers range over the open ball around the root;
    an empty center range gives +inf.

    On a path this costs O(n log n), plus one dense ball_masses row per
    center kept by _floor_candidates; on any other tree, O(n * centers).
    Either way the value is the least dense row, bit for bit.
    """
    if delta < 0:
        raise TreeError("delta must be nonnegative")
    if radius is None:
        centers = np.arange(tree.n)
    else:
        centers = np.flatnonzero(tree.height < radius - FLOAT_SLACK)
    line = tree._path_positions
    if line is not None and len(centers):
        centers = _floor_candidates(line, measure.masses, centers, delta)
    masses = measure.ball_masses(tree, centers, delta, closed=True)
    return float(masses.min()) if len(masses) else math.inf


def _floor_candidates(pos: np.ndarray, masses: np.ndarray,
                      centers: np.ndarray, delta: float) -> np.ndarray:
    """The centers on a path whose closed delta-ball may hold the least mass.

    ``pos`` is each vertex's position along the path.  A ball holds every
    vertex within delta - tol of its center in position and none beyond
    delta + tol, where tol (GEOM_TOL, scaled up on paths longer than 1)
    covers the rounding of positions and distances.  Prefix sums of the
    masses in path order over those two windows bracket each ball's mass; a
    center whose lower bound exceeds the least upper bound, by more than the
    sums' own rounding, cannot be the minimum.
    """
    order = np.argsort(pos, kind="stable")
    line = pos[order]
    cum = np.concatenate(([0.0], np.cumsum(masses[order])))
    at = pos[centers]
    tol = GEOM_TOL * max(1.0, float(line[-1]))

    def window(r: float) -> np.ndarray:
        return (cum[np.searchsorted(line, at + r, side="right")]
                - cum[np.searchsorted(line, at - r, side="left")])

    # a center always lies in its own ball, whatever the window
    low = window(delta - tol) if delta > tol else masses[centers]
    high = window(delta + tol)
    # a prefix difference and a dense sum each round by under n ulps of the total
    slack = 8.0 * len(masses) * np.finfo(np.float64).eps * float(cum[-1])
    return centers[low <= high.min() + slack]


def epsilon_degree(tree: RootedMetricTree, x: int, eps: float) -> int:
    """Count of gateway vertices just outside the open eps-ball around x.

    A vertex v outside B(x, eps) counts when some neighbor u of v lies in
    B(x, eps) and v lies on the segment from u to some vertex outside
    B(x, 2*eps).  The ball is connected, so v has at most one such u.  When
    every edge is longer than GEOM_TOL, v lies on such a segment exactly
    when the far side of the edge uv, the part of the tree that removing the
    edge leaves with v, holds a vertex outside B(x, 2*eps).  That far side
    is v's subtree or the complement of u's, an Euler-tour window, so one
    search among the sorted first visits of those vertices answers each
    edge: O(n log n) in all.
    """
    if eps <= 0:
        raise TreeError("eps must be positive")
    d = tree.distances_from(x)
    in_ball = d < eps - FLOAT_SLACK
    tables = tree._tables()
    far = np.sort(tables.first[d >= 2 * eps - FLOAT_SLACK])
    kids = tree.order[1:]
    kid_in, parent_in = in_ball[kids], in_ball[tree.parent[kids]]
    # far vertices in each kid's subtree
    below = (np.searchsorted(far, tables.last[kids], side="right")
             - np.searchsorted(far, tables.first[kids], side="left"))
    # v is the kid, its far side its subtree; or v is the parent, its far
    # side the rest of the tree
    out = parent_in & ~kid_in & (below > 0)
    into = kid_in & ~parent_in & (below < len(far))
    return int(np.count_nonzero(out) + np.count_nonzero(into))


# -- four point condition ---------------------------------------------------


@dataclass(frozen=True)
class FourPointReport:
    ok: bool
    checked: int
    exhaustive: bool
    quadruple: Optional[tuple[int, int, int, int]] = None
    sums: Optional[tuple[float, float, float]] = None


def check_four_point(obj, exhaustive_limit: int = 30, samples: int = 100_000,
                     seed: int = 0) -> FourPointReport:
    """Check the tree metric quadruple inequality on a tree or a matrix.

    For every quadruple the largest of the three pairings
    d12+d34, d13+d24, d14+d23 must be attained (up to GEOM_TOL) at least
    twice.  Exhaustive up to ``exhaustive_limit`` points, seeded sampling of
    ``samples`` quadruples beyond that, all drawn up front.  The first
    violating quadruple (in lexicographic or draw order) is reported with its
    three pairing sums; ``checked`` counts the quadruples up to and
    including it.
    """
    if isinstance(obj, RootedMetricTree):
        n = obj.n
        pair = obj.distance
    else:
        mat = np.asarray(obj, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise TreeError("distance matrix must be square")
        n = mat.shape[0]
        pair = lambda i, j: mat[i, j]

    exhaustive = n <= exhaustive_limit
    if exhaustive:
        blocks = _all_quadruples(n)
    else:
        blocks = [_distinct_quadruples(np.random.default_rng(seed), n, samples)]
    checked = 0
    for quads in blocks:
        i, j, k, l = quads.T
        sums = np.sort(np.stack((pair(i, j) + pair(k, l),
                                 pair(i, k) + pair(j, l),
                                 pair(i, l) + pair(j, k)), axis=1), axis=1)
        bad = np.flatnonzero(sums[:, 2] - sums[:, 1] > GEOM_TOL)
        if len(bad):
            b = int(bad[0])
            return FourPointReport(False, checked + b + 1, exhaustive,
                                   tuple(int(v) for v in quads[b]),
                                   tuple(float(v) for v in sums[b]))
        checked += len(quads)
    return FourPointReport(True, checked, exhaustive)


def _all_quadruples(n: int):
    """Every 4-subset of range(n) in lexicographic order, PAIR_BLOCK rows at a time."""
    combos = combinations(range(n), 4)
    while True:
        block = np.array(list(islice(combos, PAIR_BLOCK)), dtype=np.int64)
        if not len(block):
            return
        yield block


def _distinct_quadruples(rng, n: int, count: int) -> np.ndarray:
    """``count`` rows of four distinct vertex ids, each row uniform.

    Column c draws a rank among the n - c ids not yet in its row and shifts
    it past the earlier picks in ascending order.
    """
    ranks = rng.integers(0, n - np.arange(4), size=(count, 4))
    quads = np.empty_like(ranks)
    for c in range(4):
        pick = ranks[:, c].copy()
        for earlier in np.sort(quads[:, :c], axis=1).T:
            pick += pick >= earlier
        quads[:, c] = pick
    return quads


# -- restriction, closure, nets, projection ---------------------------------


@dataclass(frozen=True)
class Restriction:
    tree: RootedMetricTree
    measure: SpeedMeasure
    old_ids: np.ndarray  # old_ids[new] = ambient vertex id

    def __iter__(self):  # allow tree, measure, old = restrict(...)
        return iter((self.tree, self.measure, self.old_ids))


def restrict(tree: RootedMetricTree, measure: SpeedMeasure,
             radius: float) -> Restriction:
    """Induced subtree and measure on the closed ball around the root."""
    if radius < 0:
        raise TreeError("radius must be nonnegative")
    keep = np.flatnonzero(tree.height <= radius + FLOAT_SLACK)
    # heights grow along root segments, so parents of kept vertices are kept
    new_of = np.searchsorted(keep, tree.parent[keep])
    sub = build_tree(new_of, tree.edge_length[keep],
                     int(np.searchsorted(keep, tree.root)))
    return Restriction(sub, SpeedMeasure(measure.masses[keep]), keep)


def branch_closure(tree: RootedMetricTree, subset: Iterable[int]) -> np.ndarray:
    """Close a root-containing vertex set under branch points of its triples.

    With the root present, the median of any triple is one of the pairwise
    meets, and meets of added points are again meets of original points, so
    adding all pairwise meets yields the idempotent closure.  Those are the
    meets of neighbours in first-visit order, so one sorted pass suffices:
    O(k log k) for k vertices.
    """
    s = _rooted_subset(tree, subset)
    order = _euler_sorted(tree, s)
    return np.union1d(s, tree.lca(order[:-1], order[1:]))


def _rooted_subset(tree: RootedMetricTree, subset) -> np.ndarray:
    """Sorted distinct vertex ids of ``subset``, which must hold the root."""
    s = np.unique(tree._vertex_array(np.fromiter((int(v) for v in subset),
                                                 dtype=np.int64)))
    if not np.any(s == tree.root):
        raise TreeError("subset must contain the root")
    return s


def _euler_sorted(tree: RootedMetricTree, s: np.ndarray) -> np.ndarray:
    """Vertices of s in order of first visit; the meets of adjacent ones are
    all the pairwise meets (the virtual-tree construction)."""
    first = tree._tables().first
    return s[np.argsort(first[s], kind="stable")]


def spanned_subtree(tree: RootedMetricTree, subset: Iterable[int]):
    """Tree induced on a branch-closed, root-containing subset.

    Each subset vertex's parent is its deepest proper subset ancestor; edge
    lengths are height gaps, so subtree distances agree with ambient ones.
    Returns (subtree, old_ids).
    """
    s_arr = _rooted_subset(tree, subset)
    if len(branch_closure(tree, s_arr)) != len(s_arr):
        raise TreeError("subset is not branch closed")
    # in a closed set the meet with the previous vertex in first-visit
    # order is the deepest proper subset ancestor
    order = _euler_sorted(tree, s_arr)
    kids, up = order[1:], tree.lca(order[:-1], order[1:])
    at = np.searchsorted(s_arr, kids)
    parents = np.zeros(len(s_arr), dtype=np.int64)
    parents[at] = np.searchsorted(s_arr, up)
    lengths = np.zeros(len(s_arr))
    lengths[at] = tree.height[kids] - tree.height[up]
    sub = build_tree(parents, lengths, int(np.searchsorted(s_arr, tree.root)))
    return sub, s_arr


def epsilon_net(tree: RootedMetricTree, eps: float) -> np.ndarray:
    """Greedy farthest-point eps-net of the tree, rooted.

    Starts from the root and repeatedly adds the farthest uncovered vertex
    (lowest id on ties) until every vertex is within eps of the net.
    """
    if eps <= 0:
        raise TreeError("eps must be positive")
    cand = np.arange(tree.n)
    dist = tree.distance(tree.root, cand)
    net = [tree.root]
    while True:
        far = int(np.argmax(dist))
        if dist[far] <= eps + FLOAT_SLACK:
            break
        v = int(cand[far])
        net.append(v)
        dist = np.minimum(dist, tree.distance(v, cand))
    return np.array(sorted(set(net)), dtype=np.int64)


@dataclass(frozen=True)
class Discretization:
    subset: np.ndarray         # sorted subset ids, the root among them
    psi: np.ndarray            # psi[x] = deepest subset vertex on the root segment of x
    pushforward: SpeedMeasure  # masses moved onto the subset, ambient ids
    max_displacement: float


def project_psi(tree: RootedMetricTree, measure: SpeedMeasure,
                subset: Iterable[int]) -> Discretization:
    """Root-ward projection onto a subset and the measure pushforward."""
    s = _rooted_subset(tree, subset)
    in_s = np.zeros(tree.n, dtype=bool)
    in_s[s] = True
    psi = _root_ward(tree, in_s)
    pushed = np.zeros(tree.n, dtype=np.float64)
    np.add.at(pushed, psi, measure.masses)
    disp = tree.distance(np.arange(tree.n), psi).max()
    return Discretization(subset=s, psi=psi, pushforward=SpeedMeasure(pushed),
                          max_displacement=float(disp))


def _root_ward(tree: RootedMetricTree, in_s: np.ndarray) -> np.ndarray:
    """Deepest marked vertex on each root segment, in one top-down pass.

    The preorder lists every parent before its children; the root must be
    marked.
    """
    psi = list(range(tree.n))
    parent = tree.parent.tolist()
    marked = in_s.tolist()
    for v in tree.order.tolist():
        if not marked[v]:
            psi[v] = psi[parent[v]]
    return np.array(psi, dtype=np.int64)


def discretize(tree: RootedMetricTree, measure: SpeedMeasure,
               eps: float) -> Discretization:
    """Branch-closed eps-net whose root-ward projection moves mass at most eps.

    Density of a net bounds the distance to the nearest net point but not to
    the nearest net point on the way to the root (worst case twice eps), so
    after closing the greedy net this augments it, per violating vertex, with
    the farthest ancestor within eps, re-closing until the projection
    displacement is within eps.  The pushforward then sits within Prohorov
    distance eps of the measure by the obvious coupling.
    """
    h = tree.height
    reach = eps + FLOAT_SLACK
    in_s = np.zeros(tree.n, dtype=bool)
    in_s[branch_closure(tree, epsilon_net(tree, eps))] = True
    for _ in range(tree.n + 1):
        low = np.flatnonzero(h - h[_root_ward(tree, in_s)] > reach)
        if not len(low):
            break
        # climb every violator to its farthest ancestor within eps
        top = low.copy()
        climbing = top != tree.root
        while climbing.any():
            idx = np.flatnonzero(climbing)
            up = tree.parent[top[idx]]
            ok = ~(h[low[idx]] - h[up] > reach)
            top[idx[ok]] = up[ok]
            climbing[idx] = ok & (up != tree.root)
        added = in_s.copy()
        added[top] = True
        in_s[branch_closure(tree, np.flatnonzero(added))] = True
    return project_psi(tree, measure, np.flatnonzero(in_s))


# -- interchange format ------------------------------------------------------


def save_tree(path, tree: RootedMetricTree, measure: Optional[SpeedMeasure] = None):
    """Write the plain-text interchange format.

    Header ``tree v1 <n> <root>``; one ``<vertex> <parent> <length>`` line
    per non-root vertex; optional ``mass <vertex> <value>`` lines.  Floats
    carry 17 significant digits so round-trips are exact.
    """
    lines = [f"tree v1 {tree.n} {tree.root}"]
    lines += [f"{v} {p} {ell:.17g}" for v, p, ell in tree.edges()]
    if measure is not None:
        if len(measure) != tree.n:
            raise MeasureError("measure size does not match tree")
        lines += [f"mass {v} {m:.17g}" for v, m in enumerate(measure.masses.tolist())]
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_tree(path):
    """Parse the interchange format; returns (tree, measure or None).

    A field that does not parse, a vertex id outside 0..n-1, or a second
    edge or mass line for one vertex raises TreeError naming the line.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [(no, ln.split()) for no, ln in enumerate(fh.read().splitlines(), 1)
                 if ln.strip()]
    if not lines:
        raise TreeError("empty tree file")
    no, head = lines[0]
    if len(head) != 4 or head[:2] != ["tree", "v1"]:
        raise TreeError(f"bad header: {' '.join(head)!r}")
    n = _field(no, "n", head[2], int)
    root = _field(no, "root", head[3], int, n)
    parents: dict[int, int] = {}
    lengths: dict[int, float] = {}
    masses: dict[int, float] = {}
    for no, parts in lines[1:]:
        kind = "mass" if parts[0] == "mass" else "edge"
        if len(parts) != 3:
            raise TreeError(f"line {no}: bad {kind} line {' '.join(parts)!r}")
        v = _field(no, "vertex", parts[1] if kind == "mass" else parts[0], int, n)
        if v in (masses if kind == "mass" else parents):
            raise TreeError(f"line {no}: second {kind} line for vertex {v}")
        if kind == "mass":
            masses[v] = _field(no, "mass", parts[2], float)
        else:
            parents[v] = _field(no, "parent", parts[1], int, n)
            lengths[v] = _field(no, "length", parts[2], float)
    if set(parents) != set(range(n)) - {root}:
        raise TreeError("edge lines do not cover exactly the non-root vertices")
    tree = build_tree(parents, lengths, root)
    return tree, (SpeedMeasure.from_dict(n, masses) if masses else None)


def _field(no: int, what: str, text: str, kind, n: Optional[int] = None):
    """A field of line ``no`` of a tree file read as ``kind``; a vertex id
    (``n`` given) must lie in 0..n-1."""
    try:
        value = kind(text)
    except ValueError:
        raise TreeError(f"line {no}: {what} {text!r} is not "
                        f"{'an integer' if kind is int else 'a number'}") from None
    if n is not None and not 0 <= value < n:
        raise TreeError(f"line {no}: {what} {value} outside vertex range 0..{n - 1}")
    return value
