"""Tree families: excursion gluing, conditioned branching trees, size-biased
trees from reflected walks, exponential binary trees, and
exchangeable-coalescent genealogies with their speed measures.

Each generator is pure given its parameters and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tree import RootedMetricTree, SpeedMeasure, build_tree
from .walk import rng_from

GLUE_TOL = 1e-12


class FamilyError(ValueError):
    """Invalid family parameters or failed generation."""


# ------------------------------------------------------------------- gluing

@dataclass(frozen=True)
class Excursion:
    """Nonnegative heights at equally spaced abscissae.

    ``origin`` is the index of abscissa 0.  One-sided excursions (origin 0)
    must start and end at height 0; two-sided ones only need height 0 at the
    origin, their outer ends stay up.
    """

    samples: np.ndarray
    step: float
    origin: int = 0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise FamilyError("samples must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise FamilyError("heights must be finite and nonnegative")
        if self.step <= 0:
            raise FamilyError("step must be positive")
        if not 0 <= self.origin < arr.size:
            raise FamilyError("origin index out of range")
        if arr[self.origin] != 0.0:
            raise FamilyError("height at the origin must be zero")
        if self.origin == 0 and (arr[0] != 0.0 or arr[-1] != 0.0):
            raise FamilyError("one-sided excursions must start and end at zero")
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return int(self.samples.size)


def excursion_distance(exc: Excursion, i: int, j: int) -> float:
    """Pseudo-distance between two abscissae, straight from the definition.

    Same-sign pairs use the infimum over the enclosed window; opposite-sign
    pairs use the infimum over the sampled complement of the window.
    """
    s = exc.samples
    i, j = sorted((int(i), int(j)))
    xi, xj = i - exc.origin, j - exc.origin
    if xi * xj >= 0:
        m = float(s[i:j + 1].min())
    else:
        m = float(min(s[:i + 1].min(), s[j:].min()))
    return float(s[i] + s[j] - 2.0 * m)


@dataclass
class GluedTree:
    """Tree of knot classes; unpacks as (tree, measure)."""

    tree: RootedMetricTree
    measure: SpeedMeasure
    class_of: np.ndarray
    excursion: Excursion

    def __iter__(self):
        yield self.tree
        yield self.measure


def glue_excursion(exc: Excursion) -> GluedTree:
    """Quotient the abscissae by zero pseudo-distance and build the tree.

    One outward sweep per side maintains a stack of open levels: a knot
    joins the class on top of the stack when their heights agree within
    tolerance and nothing lower intervened, and otherwise opens a new class
    whose parent is the class directly below.  The frames that survive a
    sweep are exactly the knots whose outward window never dips below them,
    which for two-sided excursions are the points the complement rule can
    identify across sides; survivors of equal height are merged and the
    merged spine is re-parented by height.  Every knot then deposits one
    step of mass on its class.
    """
    s = exc.samples
    n = exc.n
    o = exc.origin
    heights: list[float] = []
    parent: list[int] = []
    knot_class = np.empty(n, dtype=np.int64)

    def sweep(indices, seeded_root: Optional[int]):
        stack: list[tuple[float, int]] = []
        if seeded_root is not None:
            stack.append((0.0, seeded_root))
        for k in indices:
            v = float(s[k])
            while stack and stack[-1][0] > v + GLUE_TOL:
                stack.pop()
            if stack and abs(stack[-1][0] - v) <= GLUE_TOL:
                cid = stack[-1][1]
            else:
                cid = len(heights)
                heights.append(v)
                parent.append(stack[-1][1] if stack else -1)
                stack.append((v, cid))
            knot_class[k] = cid
        return stack

    right_stack = sweep(range(o, n), None)
    root_class = int(knot_class[o])
    left_stack = sweep(range(o - 1, -1, -1), root_class) if o > 0 else []

    # union-find over classes; only cross-side record merging uses it
    uf = list(range(len(heights)))

    def find(c: int) -> int:
        while uf[c] != c:
            uf[c] = uf[uf[c]]
            c = uf[c]
        return c

    if o > 0:
        survivors = sorted(
            set(right_stack) | set(left_stack) | {(0.0, root_class)})
        merged: list[tuple[float, int]] = []
        for lvl, cid in survivors:
            if merged and abs(lvl - merged[-1][0]) <= GLUE_TOL:
                uf[find(cid)] = find(merged[-1][1])
            else:
                merged.append((lvl, cid))
        for k in range(1, len(merged)):
            parent[merged[k][1]] = merged[k - 1][1]

    reps = sorted({find(c) for c in range(len(heights))},
                  key=lambda c: (heights[c], c))
    vid = {c: i for i, c in enumerate(reps)}
    parents = {}
    lengths = {}
    for c in reps:
        if parent[c] == -1:
            continue
        p = find(parent[c])
        parents[vid[c]] = vid[p]
        lengths[vid[c]] = heights[c] - heights[p]
    tree = build_tree(parents, lengths, root=vid[find(root_class)])
    masses = np.zeros(len(reps))
    classes = np.empty(n, dtype=np.int64)
    for k in range(n):
        i = vid[find(int(knot_class[k]))]
        classes[k] = i
        masses[i] += exc.step
    return GluedTree(tree=tree, measure=SpeedMeasure(masses),
                     class_of=classes, excursion=exc)


def degree_measure(tree: RootedMetricTree, scale: float = 1.0) -> SpeedMeasure:
    """Half the graph degree per vertex, times a scale factor."""
    masses = np.empty(tree.n)
    for v in range(tree.n):
        deg = len(tree.children(v)) + (0 if v == tree.root else 1)
        masses[v] = scale * deg / 2.0
    return SpeedMeasure(masses)


# ------------------------------------------------- conditioned branching tree

@dataclass(frozen=True)
class OffspringLaw:
    """Critical offspring distribution with known variance: "geometric"
    or "poisson"."""

    name: str
    sigma2: float

    def __post_init__(self):
        if self.name not in ("geometric", "poisson"):
            raise FamilyError(f"unknown offspring law {self.name!r}")

    def sample(self, rng: np.random.Generator) -> int:
        if self.name == "geometric":
            return int(rng.geometric(0.5)) - 1
        return int(rng.poisson(1.0))

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def offspring_geometric() -> OffspringLaw:
    """P(k) = 2^-(k+1); mean 1, variance 2."""
    return OffspringLaw("geometric", 2.0)


def offspring_poisson() -> OffspringLaw:
    """Poisson with unit mean and variance."""
    return OffspringLaw("poisson", 1.0)


@dataclass
class GWSample:
    """Size-conditioned branching tree with its two standard measures."""

    tree: RootedMetricTree
    degree: SpeedMeasure        # deg(v) / (2n)
    skeleton: SpeedMeasure      # 1/(n-1) per non-root vertex
    attempts: int
    sigma: float


def gw_conditioned(offspring: OffspringLaw, n: int, seed,
                   max_attempts: int = 10 ** 6) -> GWSample:
    """Branching tree conditioned on exactly n vertices, by exact rejection.

    Each attempt grows the tree vertex by vertex and aborts as soon as the
    population passes n, so failures are cheap.  Edges get length
    sigma / sqrt(n), vertex masses deg / (2n); the companion skeleton
    measure spreads mass 1/(n-1) over the non-root vertices.
    """
    if n < 2:
        raise FamilyError("need at least two vertices")
    rng = rng_from(seed)
    for attempt in range(1, max_attempts + 1):
        parents = {}
        frontier = [0]
        total = 1
        overflow = False
        while frontier and not overflow:
            u = frontier.pop()
            k = offspring.sample(rng)
            if total + k > n:
                overflow = True
                break
            for _ in range(k):
                parents[total] = u
                frontier.append(total)
                total += 1
        if overflow or total != n:
            continue
        ell = offspring.sigma / math.sqrt(n)
        tree = build_tree(parents, {v: ell for v in parents}, root=0)
        skel = np.full(n, 1.0 / (n - 1))
        skel[0] = 0.0
        return GWSample(tree=tree,
                        degree=degree_measure(tree, scale=1.0 / n),
                        skeleton=SpeedMeasure(skel),
                        attempts=attempt,
                        sigma=offspring.sigma)
    raise FamilyError(
        f"no tree of size {n} in {max_attempts} attempts "
        f"(acceptance below {1.0 / max_attempts:.2g})")


# --------------------------------------------- size-biased tree, two wings

def reflect_path(w) -> np.ndarray:
    """w_t - 2 inf_{s <= t} w_s for a path started at 0; never negative."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.size == 0 or arr[0] != 0.0:
        raise FamilyError("path must start at 0")
    return arr - 2.0 * np.minimum.accumulate(arr)


@dataclass
class KestenSample:
    """Two-wing reflected-walk excursion with its glued, rescaled tree."""

    excursion: Excursion
    glued: GluedTree
    degree: SpeedMeasure        # n^(-2/3) * deg / 2 on the glued tree


def kesten_excursion(n: int, seed, horizon: float = 1.0) -> KestenSample:
    """Rescaled reflected-walk excursion on [-horizon, horizon].

    Each wing is an independent simple-walk path of ceil(horizon * n^(2/3))
    unit steps, reflected at its running minimum; heights shrink by
    n^(-1/3) and abscissae by n^(-2/3).  Wing records sit on the exact
    lattice, so cross-side identification is exact.
    """
    if n < 1:
        raise FamilyError("n must be positive")
    if horizon <= 0:
        raise FamilyError("horizon must be positive")
    rng = rng_from(seed)
    steps = max(1, math.ceil(horizon * n ** (2.0 / 3.0)))

    def wing():
        inc = rng.integers(0, 2, size=steps) * 2 - 1
        w = np.concatenate([[0.0], np.cumsum(inc)])
        return reflect_path(w)

    right = wing()
    left = wing()
    hscale = n ** (-1.0 / 3.0)
    samples = hscale * np.concatenate([left[:0:-1], right])
    exc = Excursion(samples=samples, step=n ** (-2.0 / 3.0), origin=steps)
    glued = glue_excursion(exc)
    return KestenSample(excursion=exc, glued=glued,
                        degree=degree_measure(glued.tree, scale=n ** (-2.0 / 3.0)))


# ------------------------------------------------------- fixed deterministic

def binary_tree(depth: int):
    """Full binary tree with unit edges and mass e^(-level) per vertex."""
    if not 1 <= depth <= 20:
        raise FamilyError("depth must be between 1 and 20")
    n = 2 ** (depth + 1) - 1
    parents = {v: (v - 1) // 2 for v in range(1, n)}
    tree = build_tree(parents, {v: 1.0 for v in range(1, n)}, root=0)
    measure = SpeedMeasure(np.exp(-tree.height))
    return tree, measure


# ------------------------------------------------------------- coalescents

@dataclass(frozen=True)
class CoalescentSpec:
    """Merging-measure family and leaf count.

    kind "kingman": unit atom at 0 (only pair mergers); "beta": Beta(a, b)
    probability density; "atoms": finite point masses on (0, 1].
    """

    kind: str
    n_leaves: int
    a: float = 0.0
    b: float = 0.0
    atoms: tuple = ()

    def __post_init__(self):
        if self.n_leaves < 2:
            raise FamilyError("need at least two leaves")
        if self.kind == "kingman":
            return
        if self.kind == "beta":
            if self.a <= 0 or self.b <= 0:
                raise FamilyError("beta parameters must be positive")
            return
        if self.kind == "atoms":
            if not self.atoms:
                raise FamilyError("need at least one atom")
            for x, w in self.atoms:
                if not (0 < x <= 1) or w <= 0:
                    raise FamilyError("atoms must sit in (0, 1] with positive mass")
            return
        raise FamilyError(f"unknown coalescent kind {self.kind!r}")

    @classmethod
    def kingman(cls, n_leaves: int) -> "CoalescentSpec":
        return cls("kingman", n_leaves)

    @classmethod
    def beta(cls, n_leaves: int, a: float, b: float) -> "CoalescentSpec":
        return cls("beta", n_leaves, a=a, b=b)

    @classmethod
    def point_masses(cls, n_leaves: int, atoms) -> "CoalescentSpec":
        return cls("atoms", n_leaves, atoms=tuple((float(x), float(w)) for x, w in atoms))


def _betaln(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def merge_rate(spec: CoalescentSpec, k: int, b: int) -> float:
    """Rate at which any fixed k of the current b blocks merge.

    Integral of x^(k-2) (1-x)^(b-k) against the merging measure; 0^0 = 1 so
    the pure-pair case and full mergers at x = 1 come out right.
    """
    if not 2 <= k <= b:
        raise FamilyError("need 2 <= k <= b")
    if spec.kind == "kingman":
        return 1.0 if k == 2 else 0.0
    if spec.kind == "beta":
        return math.exp(_betaln(spec.a + k - 2, spec.b + b - k) - _betaln(spec.a, spec.b))
    return sum(w * x ** (k - 2) * (1.0 - x) ** (b - k) for x, w in spec.atoms)


@dataclass
class CoalescentTree:
    """Genealogy of the block-merging chain.

    Leaves are vertices 0..n_leaves-1; each merge event adds one vertex at
    half its event time above the leaf level, so the tree distance between
    two leaves equals the first time their blocks coincide, leaves sit at a
    common depth, and the root (the final merge vertex) is diam/2 from each.
    """

    tree: RootedMetricTree
    n_leaves: int
    events: list                      # (time, merged vertex ids, new id)

    @property
    def leaves(self) -> range:
        return range(self.n_leaves)

    @property
    def merge_times(self) -> list:
        return [t for t, _, _ in self.events]


def coalescent_tree(spec: CoalescentSpec, seed) -> CoalescentTree:
    rng = rng_from(seed)
    n = spec.n_leaves
    blocks = [(v, 0.0) for v in range(n)]     # (top vertex, its age)
    parents = {}
    lengths = {}
    events = []
    next_id = n
    t = 0.0
    while len(blocks) >= 2:
        b = len(blocks)
        weights = np.array([math.comb(b, k) * merge_rate(spec, k, b)
                            for k in range(2, b + 1)])
        total = float(weights.sum())
        if not (total > 0 and math.isfinite(total)):
            raise FamilyError(f"total merge rate {total} with {b} blocks")
        t += rng.exponential(1.0 / total)
        k = 2 + int(rng.choice(b - 1, p=weights / total))
        chosen = sorted(rng.choice(b, size=k, replace=False))
        age = t / 2.0
        merged = []
        for i in chosen:
            top, top_age = blocks[i]
            parents[top] = next_id
            lengths[top] = age - top_age
            merged.append(top)
        events.append((t, tuple(merged), next_id))
        blocks = [blk for i, blk in enumerate(blocks) if i not in chosen]
        blocks.append((next_id, age))
        next_id += 1
    tree = build_tree(parents, lengths, root=next_id - 1)
    return CoalescentTree(tree=tree, n_leaves=n, events=events)


def coalescent_speed_measure(ct: CoalescentTree, variant: str) -> SpeedMeasure:
    """Leaf-fraction density against a length measure, lumped per vertex.

    With mu uniform on the leaves and S^v the leaves above v, the density
    mu(S^v) is constant along the edge below v, so each non-root vertex can
    carry mu(S^v) times its parent-edge length.  The skeleton-density
    variant does that for every non-root vertex; the branch-atomic variant
    restricts to internal vertices and adds a unit atom at the root, the
    discrete form of (length measure on branch points) + (root atom).
    """
    if not isinstance(ct, CoalescentTree):
        raise FamilyError("need a coalescent genealogy with marked leaves")
    if variant not in ("skeleton-density", "branch-atomic"):
        raise FamilyError(f"unknown variant {variant!r}")
    tree = ct.tree
    n = ct.n_leaves
    order = sorted(range(tree.n), key=lambda v: -tree.depth[v])
    below = np.zeros(tree.n)
    for v in order:
        if v < n:
            below[v] += 1.0
        if v != tree.root:
            below[tree.parent[v]] += below[v]
    frac = below / n
    masses = np.zeros(tree.n)
    for v in range(tree.n):
        if v == tree.root:
            continue
        if variant == "skeleton-density" or v >= n:
            masses[v] = frac[v] * tree.edge_length[v]
    if variant == "branch-atomic":
        masses[tree.root] = 1.0
    return SpeedMeasure(masses)
