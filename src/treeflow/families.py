"""Tree families: excursion gluing, conditioned branching trees, size-biased
trees from reflected walks, exponential binary trees, and
exchangeable-coalescent genealogies with their speed measures.

Each generator is pure given its parameters and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tree import RootedMetricTree, SpeedMeasure, build_tree
from .walk import rng_from

GLUE_TOL = 1e-12


class FamilyError(ValueError):
    """Invalid family parameters or failed generation."""


def _check_size(value, name: str, low: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise FamilyError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise FamilyError(f"{name} must be at least {low}, got {value}")


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
        if not (math.isfinite(self.step) and self.step > 0):
            raise FamilyError(f"step must be finite and positive, got {self.step!r}")
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

    The knots are swept once in cyclic order from the origin: ``o..n-1``,
    then ``0..o-1``.  In that order the window between a right knot and a
    left knot is exactly the sampled complement that the opposite-sign rule
    takes its infimum over, so a two-sided excursion glues as the one-sided
    excursion of its rotation.  A stack holds the open levels: a knot joins
    the class on top when their heights agree within tolerance, and
    otherwise opens a new class whose parent is the class below.  When a
    knot pops levels and then opens a class, that class lies between the
    last class popped and its old parent, so it becomes the parent of the
    last class popped (the Cartesian-tree step; it never fires on
    skip-free walks).  Vertex ids order the classes by height, then by the
    first knot met walking outward from the origin, right side first.
    Every knot deposits one step of mass on its class.
    """
    s = exc.samples
    n = exc.n
    o = exc.origin
    heights: list[float] = []
    parent: list[int] = []
    knot_class = np.empty(n, dtype=np.int64)
    stack: list[tuple[float, int]] = []
    for k in np.r_[o:n, 0:o]:
        v = float(s[k])
        popped = -1
        while stack and stack[-1][0] > v + GLUE_TOL:
            popped = stack.pop()[1]
        if stack and abs(stack[-1][0] - v) <= GLUE_TOL:
            cid = stack[-1][1]
        else:
            cid = len(heights)
            heights.append(v)
            parent.append(stack[-1][1] if stack else -1)
            if popped >= 0:
                parent[popped] = cid
            stack.append((v, cid))
        knot_class[k] = cid

    knots = np.arange(n)
    outward = np.where(knots >= o, knots - o, n - 1 - knots)
    first = np.full(len(heights), n)
    np.minimum.at(first, knot_class, outward)
    order = np.lexsort((first, heights))
    vid = np.empty(len(heights), dtype=np.int64)
    vid[order] = np.arange(len(heights))
    # class 0 holds the origin, at height 0, and is the only one without a parent
    kids = np.arange(1, len(heights))
    up = np.array(parent[1:], dtype=np.int64)
    h = np.array(heights)
    parents = np.zeros(len(heights), dtype=np.int64)
    parents[vid[kids]] = vid[up]
    lengths = np.zeros(len(heights))
    lengths[vid[kids]] = h[kids] - h[up]
    classes = vid[knot_class]
    masses = np.zeros(len(heights))
    np.add.at(masses, classes, exc.step)
    return GluedTree(tree=build_tree(parents, lengths, root=int(vid[0])),
                     measure=SpeedMeasure(masses),
                     class_of=classes, excursion=exc)


def degree_measure(tree: RootedMetricTree, scale: float = 1.0) -> SpeedMeasure:
    """Half the graph degree per vertex, times a scale factor."""
    # the root is its own parent: one count too many, plus no edge above it
    deg = np.bincount(tree.parent, minlength=tree.n) + 1
    deg[tree.root] -= 2
    return SpeedMeasure(scale * deg / 2.0)


# --------------- conditioned excursions and branching trees, by cycle lemma

def _cycle_rotate(steps: np.ndarray) -> np.ndarray:
    """Rotate integer steps >= -1 summing to -1 to start just after the first
    minimum of their partial sums: by the cycle lemma (Dvoretzky & Motzkin
    1947; Pitman 2006, ch. 6) the one rotation whose partial sums stay
    nonnegative before the last step.  The rotations are distinct, so an
    exchangeable draw rotates to a uniform one among those sequences."""
    return np.roll(steps, -1 - int(np.argmin(np.cumsum(steps))))


def lattice_excursion(half_steps: int, seed) -> np.ndarray:
    """Heights 0, w_1, ..., w_2k = 0 of a uniform nonnegative +-1 excursion,
    k = half_steps: one permutation of k up-steps and k + 1 down-steps,
    rotated by the cycle lemma, less its last down-step.  Exact, O(k) time
    and memory, no retries."""
    _check_size(half_steps, "half_steps", 1)
    steps = np.repeat([1, -1], [half_steps, half_steps + 1])
    steps = _cycle_rotate(rng_from(seed).permutation(steps))[:-1]
    return np.concatenate([[0], np.cumsum(steps)]).astype(float)


@dataclass(frozen=True)
class OffspringLaw:
    """Critical offspring distribution with known variance: "geometric"
    or "poisson"."""

    name: str
    sigma2: float

    def __post_init__(self):
        if self.name not in ("geometric", "poisson"):
            raise FamilyError(f"unknown offspring law {self.name!r}")

    def conditioned(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. offspring counts conditioned to sum to n - 1, in O(n): a
        uniform weak composition (one permutation of n - 1 stars and n - 1
        bars) for the geometric law, an equal-cell multinomial for Poisson."""
        if self.name == "geometric":
            bars = rng.permutation(np.repeat([0, 1], n - 1))
            return np.bincount(np.cumsum(bars)[bars == 0], minlength=n)
        return rng.multinomial(n - 1, np.full(n, 1.0 / n))

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
    sigma: float


def gw_conditioned(offspring: OffspringLaw, n: int, seed) -> GWSample:
    """Branching tree conditioned on exactly n vertices, drawn exactly.

    n offspring counts conditioned to sum to n - 1 and rotated by the cycle
    lemma are the child counts of the vertices in preorder, and vertex ids
    follow the preorder: O(n) time and memory, no retries.  Edges get length
    sigma / sqrt(n), vertex masses deg / (2n); the companion skeleton
    measure spreads mass 1/(n-1) over the non-root vertices.
    """
    _check_size(n, "n", 2)
    counts = _cycle_rotate(offspring.conditioned(n, rng_from(seed)) - 1) + 1
    parent = [0]
    open_slots = [0] * int(counts[0])       # one entry per unfilled child slot
    for v, k in enumerate(counts[1:].tolist(), start=1):
        parent.append(open_slots.pop())
        open_slots.extend([v] * k)
    tree = build_tree(parent, np.full(n, offspring.sigma / math.sqrt(n)), root=0)
    return GWSample(tree=tree,
                    degree=degree_measure(tree, scale=1.0 / n),
                    skeleton=SpeedMeasure(np.r_[0.0, np.full(n - 1, 1.0 / (n - 1))]),
                    sigma=offspring.sigma)


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
    _check_size(n, "n", 1)
    if not (math.isfinite(horizon) and horizon > 0):
        raise FamilyError(f"horizon must be finite and positive, got {horizon!r}")
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
    tree = build_tree((np.arange(n) - 1) // 2, np.ones(n), root=0)
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


def _merge_weights(spec: CoalescentSpec, b: int) -> np.ndarray:
    """Rate at which some k of the current b blocks merge, comb(b, k) *
    merge_rate(spec, k, b), for k = 2..b.

    Kingman's one nonzero rate is the exact integer comb(b, 2).  The other
    kinds form each weight in log space, exp(log comb(b, k) + log rate), so
    no factor overflows at any b: the binomial's log is taken of the exact
    integer, and Beta's log rate is the same _betaln difference merge_rate
    exponentiates.  Each weight is at most the total rate, which is finite.
    """
    if spec.kind == "kingman":
        weights = np.zeros(b - 1)
        weights[0] = float(math.comb(b, 2))
        return weights
    log_comb, c = [], b * (b - 1) // 2
    for k in range(2, b + 1):
        log_comb.append(math.log(c))
        c = c * (b - k) // (k + 1)
    log_comb = np.array(log_comb)
    if spec.kind == "beta":
        return np.exp(log_comb + np.array(
            [_betaln(spec.a + k - 2, spec.b + b - k) - _betaln(spec.a, spec.b)
             for k in range(2, b + 1)]))
    k = np.arange(2, b + 1)
    weights = np.zeros(b - 1)
    for x, w in spec.atoms:
        if x == 1.0:
            weights[-1] += w          # 0^0 = 1: only the full merger
        else:
            weights += w * np.exp(log_comb + (k - 2) * math.log(x)
                                  + (b - k) * math.log1p(-x))
    return weights


def coalescent_tree(spec: CoalescentSpec, seed) -> CoalescentTree:
    """Genealogy of the spec's block-merging chain, drawn from seed.

    A merge among b blocks takes O(b) arithmetic steps plus O(b k) for the
    k blocks it merges, so n leaves take O(n^2) steps.
    """
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
        weights = _merge_weights(spec, b)
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
    # v's subtree is the preorder window [pre, pre + size); leaves are 0..n-1
    leaves = np.concatenate(([0], np.cumsum(tree.order < n)))
    pre = np.arange(tree.n)
    below = np.empty(tree.n)
    below[tree.order] = leaves[pre + tree.size[tree.order]] - leaves[pre]
    # the root's edge length is 0, so it carries no density mass
    masses = below / n * tree.edge_length
    if variant == "branch-atomic":
        masses[:n] = 0.0
        masses[tree.root] = 1.0
    return SpeedMeasure(masses)
