"""Measure distances against brute-force twins and hand-computed values."""

import itertools
import math

import numpy as np
import pytest

from treeflow import measures
from treeflow.measures import (
    FiniteAtomMeasure,
    gh_vague_report,
    hausdorff_distance,
    kr_bruteforce,
    kr_distance,
    prohorov,
    prohorov_bruteforce,
    tree_metric,
)
from treeflow.tree import (
    MeasureError,
    SpeedMeasure,
    branch_closure,
    build_tree,
    lower_mass,
)
from conftest import path_tree, random_tree


def line_dist(a, b):
    return abs(float(a) - float(b))


def line_tree(xs, root):
    """Path through increasing positions xs, rooted at index ``root``."""
    parents = {i: i + 1 if i < root else i - 1
               for i in range(len(xs)) if i != root}
    lengths = {i: float(abs(xs[i] - xs[p])) for i, p in parents.items()}
    return build_tree(parents, lengths, root)


def dirac(p, w=1.0):
    return FiniteAtomMeasure((p,), (w,))


def kr_loop(mu, nu, dist):
    """Reference for kr_bruteforce: one det and one solve per row subset."""
    support = list(dict.fromkeys(list(mu.points) + list(nu.points)))
    n = len(support)
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
    for sub in itertools.combinations(range(len(rows)), n):
        a = rows[list(sub)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, rhs[list(sub)])
        if np.all(rows @ x <= rhs + 1e-9):
            best = max(best, float(w @ x))
    return best


def prohorov_loop(mu, nu, dist):
    """Reference for prohorov_bruteforce: every subset rebuilt and summed
    in each probe of the bisection."""
    if len(mu) > 10 or len(nu) > 10:
        raise MeasureError("brute-force check is limited to 10 atoms per side")
    if len(mu) == 0 and len(nu) == 0:
        return 0.0
    slack = measures.FLOAT_SLACK

    def enlarged(points, other, eps):
        return sum(w for q, w in zip(other.points, other.weights)
                   if any(dist(p, q) <= eps + slack for p in points))

    def one_sided(a, b, eps):
        for r in range(1, len(a) + 1):
            for sub in itertools.combinations(range(len(a)), r):
                pts = [a.points[i] for i in sub]
                massa = sum(a.weights[i] for i in sub)
                if massa > enlarged(pts, b, eps) + eps + slack:
                    return False
        return True

    def ok(eps):
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


def split_support(rng, pts):
    """mu on a random nonempty prefix of pts, nu on the rest (may be empty)."""
    k = int(rng.integers(1, len(pts) + 1))
    mu = FiniteAtomMeasure(tuple(pts[:k]), tuple(rng.uniform(0.1, 1.0, k)))
    nu = FiniteAtomMeasure(tuple(pts[k:]),
                           tuple(rng.uniform(0.1, 1.0, len(pts) - k)))
    return mu, nu


def jittered_line(rng, size):
    """Points on a coarse lattice, each moved by -1e-16, 0 or +1e-16, so
    that many pairwise distances tie up to rounding."""
    base = rng.integers(0, 3, size=size) * 0.1 * rng.integers(1, 4)
    return base + rng.integers(-1, 2, size=size) * 1e-16


def prohorov_by_bisection(mu, nu, dist):
    """Least eps at which max(total) - flow <= eps, where the flow runs on
    the pairs within eps + FLOAT_SLACK of each other; both sides of the test
    move monotonically in eps, so a plain bisection finds it.  An oracle for
    supports too large for prohorov_bruteforce."""
    d = np.array([[dist(p, q) for q in nu.points] for p in mu.points])
    top = max(mu.total, nu.total)

    def ok(eps):
        ii, jj = np.nonzero(d <= eps + measures.FLOAT_SLACK)
        flow = measures._dinic_flow(len(mu), len(nu), mu.weights, nu.weights,
                                    ii, jj)
        return top - flow <= eps

    lo, hi = 0.0, max(top, float(d.max()))
    if ok(lo):
        return lo
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


class TestFiniteAtomMeasure:
    def test_validation(self):
        with pytest.raises(MeasureError):
            FiniteAtomMeasure((0, 0), (1.0, 1.0))
        with pytest.raises(MeasureError):
            FiniteAtomMeasure((0,), (-1.0,))
        with pytest.raises(MeasureError):
            FiniteAtomMeasure((0, 1), (1.0,))

    def test_from_dict_drops_zeros(self):
        m = FiniteAtomMeasure.from_dict({0: 1.0, 1: 0.0, 2: 0.5})
        assert set(m.points) == {0, 2}
        assert m.total == pytest.approx(1.5)
        assert m.as_dict() == {0: 1.0, 2: 0.5}


class TestProhorov:
    def test_identical_is_zero(self):
        m = FiniteAtomMeasure.from_dict({0.0: 0.4, 2.0: 0.6})
        assert prohorov(m, m, line_dist) == pytest.approx(0.0, abs=1e-12)

    def test_diracs_cap_at_total(self):
        for d in (0.25, 0.8, 1.0, 3.0):
            got = prohorov(dirac(0.0), dirac(d), line_dist)
            assert got == pytest.approx(min(d, 1.0), abs=1e-10)

    def test_mass_difference_same_point(self):
        got = prohorov(dirac(1.0, 0.9), dirac(1.0, 0.4), line_dist)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_empty_sides(self):
        e = FiniteAtomMeasure((), ())
        assert prohorov(e, e, line_dist) == 0.0
        assert prohorov(e, dirac(0.0, 0.7), line_dist) == pytest.approx(0.7)

    def test_matches_bruteforce_on_line(self, rng):
        for _ in range(30):
            na, nb = rng.integers(1, 5), rng.integers(1, 5)
            mu = FiniteAtomMeasure(
                tuple(float(x) for x in rng.choice(20, size=na, replace=False)),
                tuple(float(w) for w in rng.uniform(0.1, 1.0, size=na)))
            nu = FiniteAtomMeasure(
                tuple(float(x) for x in rng.choice(20, size=nb, replace=False)),
                tuple(float(w) for w in rng.uniform(0.1, 1.0, size=nb)))
            fast = prohorov(mu, nu, line_dist)
            slow = prohorov_bruteforce(mu, nu, line_dist)
            assert fast == pytest.approx(slow, abs=1e-8)

    def test_matches_bruteforce_on_trees(self, rng):
        for _ in range(15):
            t = random_tree(rng, 12)
            dist = tree_metric(t)
            pa = rng.choice(12, size=3, replace=False)
            pb = rng.choice(12, size=4, replace=False)
            mu = FiniteAtomMeasure(tuple(int(v) for v in pa),
                                   tuple(rng.uniform(0.2, 1.5, size=3)))
            nu = FiniteAtomMeasure(tuple(int(v) for v in pb),
                                   tuple(rng.uniform(0.2, 1.5, size=4)))
            assert prohorov(mu, nu, dist) == pytest.approx(
                prohorov_bruteforce(mu, nu, dist), abs=1e-8)

    def test_symmetry(self, rng):
        mu = FiniteAtomMeasure((0.0, 4.0), (0.3, 0.9))
        nu = FiniteAtomMeasure((1.0, 2.0, 8.0), (0.5, 0.1, 0.2))
        assert prohorov(mu, nu, line_dist) == pytest.approx(
            prohorov(nu, mu, line_dist), abs=1e-10)

    def test_line_sweep_matches_generic_solver(self, rng):
        # tree_metric(path) runs the interval greedy; a plain callable on
        # the same path runs the flow network
        for _ in range(25):
            m = int(rng.integers(2, 13))
            path = line_tree(np.sort(rng.uniform(0.0, 6.0, size=m)),
                             int(rng.integers(0, m)))
            na, nb = rng.integers(1, min(m, 8) + 1, size=2)
            mu = FiniteAtomMeasure(
                tuple(int(v) for v in rng.choice(m, size=na, replace=False)),
                tuple(rng.uniform(0.05, 1.2, size=na)))
            nu = FiniteAtomMeasure(
                tuple(int(v) for v in rng.choice(m, size=nb, replace=False)),
                tuple(rng.uniform(0.05, 1.2, size=nb)))
            fast = prohorov(mu, nu, tree_metric(path))
            slow = prohorov(mu, nu, lambda p, q: path.distance(p, q))
            assert fast == pytest.approx(slow, abs=1e-10)

    def test_line_sweep_matches_bruteforce(self, rng):
        for _ in range(20):
            path = line_tree(np.arange(20.0), int(rng.integers(0, 20)))
            na, nb = rng.integers(1, 5), rng.integers(1, 5)
            mu = FiniteAtomMeasure(
                tuple(int(v) for v in rng.choice(20, size=na, replace=False)),
                tuple(rng.uniform(0.1, 1.0, na)))
            nu = FiniteAtomMeasure(
                tuple(int(v) for v in rng.choice(20, size=nb, replace=False)),
                tuple(rng.uniform(0.1, 1.0, nb)))
            fast = prohorov(mu, nu, tree_metric(path))
            slow = prohorov_bruteforce(mu, nu, lambda p, q: path.distance(p, q))
            assert fast == pytest.approx(slow, abs=1e-8)

    def test_near_tied_distances_match_bruteforce(self, rng):
        # windows used to open at every distinct float distance, and two
        # within FLOAT_SLACK of each other broke the monotone search
        for _ in range(100):
            pts = jittered_line(rng, 10)
            na, nb = rng.integers(1, 6, size=2)
            mu, nu = (FiniteAtomMeasure.from_dict(
                {float(pts[i]): rng.uniform(0.1, 1.0)
                 for i in rng.choice(10, size=k, replace=False)})
                for k in (na, nb))
            assert prohorov(mu, nu, line_dist) == pytest.approx(
                prohorov_bruteforce(mu, nu, line_dist), abs=1e-9)
            xs = np.unique(pts)
            if len(xs) < 2:
                continue
            path = line_tree(xs, int(rng.integers(0, len(xs))))
            mu, nu = (FiniteAtomMeasure(
                tuple(int(v) for v in rng.choice(len(xs), size=k, replace=False)),
                tuple(rng.uniform(0.1, 1.0, size=k)))
                for k in (min(na, len(xs)), min(nb, len(xs))))
            want = prohorov_bruteforce(mu, nu, lambda p, q: path.distance(p, q))
            # the path sweep, then the generic flow on the same distances
            assert prohorov(mu, nu, tree_metric(path)) == pytest.approx(want, abs=1e-9)
            assert prohorov(mu, nu, lambda p, q: path.distance(p, q)) == pytest.approx(
                want, abs=1e-9)

    def test_bisection_oracle_matches_bruteforce(self, rng):
        for _ in range(20):
            pts = jittered_line(rng, 10)
            mu, nu = (FiniteAtomMeasure.from_dict(
                {float(pts[i]): rng.uniform(0.1, 1.0)
                 for i in rng.choice(10, size=4, replace=False)})
                for _ in range(2))
            assert prohorov_by_bisection(mu, nu, line_dist) == pytest.approx(
                prohorov_bruteforce(mu, nu, line_dist), abs=1e-9)

    @pytest.mark.parametrize("path", [False, True])
    def test_near_tied_distances_match_bisection_on_large_supports(self, rng, path):
        # edge lengths on a lattice make h[x] + h[y] - 2 h[lca] tie up to
        # rounding; 20 to 40 atoms a side is beyond the brute force
        for _ in range(6):
            n = 60
            if path:
                xs = np.cumsum(0.1 * rng.integers(1, 4, size=n))
                t = line_tree(xs, int(rng.integers(0, n)))
            else:
                t = build_tree({v: int(rng.integers(0, v)) for v in range(1, n)},
                               {v: 0.1 * float(rng.integers(1, 4))
                                for v in range(1, n)}, root=0)
            mu, nu = (FiniteAtomMeasure(
                tuple(int(v) for v in rng.choice(n, size=k, replace=False)),
                tuple(rng.uniform(0.1, 1.0, size=k)))
                for k in rng.integers(20, 41, size=2))
            want = prohorov_by_bisection(mu, nu, lambda p, q: t.distance(p, q))
            assert prohorov(mu, nu, tree_metric(t)) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("parents, is_path", [
        ({1: 0, 2: 1, 3: 2}, True),            # rooted at an end
        ({1: 0, 2: 1, 3: 0, 4: 3}, True),      # rooted inside
        ({1: 0, 2: 0, 3: 0}, False),           # root with three children
        ({1: 0, 2: 1, 3: 1}, False),           # inner vertex with two children
    ])
    def test_sweep_runs_exactly_on_paths(self, monkeypatch, parents, is_path):
        t = build_tree(parents, {v: 0.5 + 0.25 * v for v in parents}, root=0)
        n = len(parents) + 1
        mu = FiniteAtomMeasure(tuple(range(n)), (1.0 / n,) * n)
        nu = FiniteAtomMeasure((n - 1, 0), (0.7, 0.3))
        want = prohorov_bruteforce(mu, nu, lambda p, q: t.distance(p, q))

        def refuse(*args):
            raise AssertionError("wrong feasibility solver")

        monkeypatch.setattr(measures, "_dinic_flow" if is_path else
                            "_interval_flow", refuse)
        assert prohorov(mu, nu, tree_metric(t)) == pytest.approx(want, abs=1e-8)


class TestBruteForceProhorov:
    """prohorov_bruteforce reads subset tables; prohorov_loop is the
    per-subset twin."""

    def random_pair(self, rng, pts, max_atoms):
        mu, nu = (FiniteAtomMeasure(
            tuple(pts[i] for i in sorted(rng.choice(len(pts), size=k,
                                                    replace=False))),
            tuple(float(w) for w in rng.uniform(0.1, 1.0, size=k)))
            for k in rng.integers(0, max_atoms + 1, size=2))
        return mu, nu

    def test_bit_equal_to_loop_on_lines(self, rng):
        for _ in range(150):
            pts = [float(x) for x in rng.uniform(0.0, 3.0, size=8)]
            mu, nu = self.random_pair(rng, pts, 5)
            assert prohorov_bruteforce(mu, nu, line_dist) == prohorov_loop(
                mu, nu, line_dist)

    def test_bit_equal_to_loop_on_a_grid_with_ties(self, rng):
        # gaps on a 0.25 grid tie exactly, and weights on a grid tie too
        for _ in range(150):
            pts = [0.25 * float(x) for x in range(12)]
            mu, nu = self.random_pair(rng, pts, 5)
            if rng.random() < 0.5:
                mu = FiniteAtomMeasure(mu.points, (0.25,) * len(mu))
            assert prohorov_bruteforce(mu, nu, line_dist) == prohorov_loop(
                mu, nu, line_dist)

    def test_bit_equal_to_loop_on_trees(self, rng):
        for _ in range(30):
            t = random_tree(rng, 12)
            dist = lambda p, q: t.distance(p, q)
            mu, nu = self.random_pair(rng, list(range(12)), 5)
            assert prohorov_bruteforce(mu, nu, dist) == prohorov_loop(mu, nu, dist)
            assert prohorov_bruteforce(mu, nu, tree_metric(t)) == prohorov_loop(
                mu, nu, dist)

    def test_bit_equal_at_ten_atoms(self, rng):
        pts = [float(x) for x in rng.uniform(0.0, 3.0, size=20)]
        mu = FiniteAtomMeasure(tuple(pts[:10]), tuple(rng.uniform(0.1, 1.0, 10)))
        nu = FiniteAtomMeasure(tuple(pts[10:13]), tuple(rng.uniform(0.1, 1.0, 3)))
        assert prohorov_bruteforce(mu, nu, line_dist) == prohorov_loop(
            mu, nu, line_dist)

    def test_empty_sides(self, rng):
        empty = FiniteAtomMeasure((), ())
        assert prohorov_bruteforce(empty, empty, line_dist) == 0.0
        for _ in range(5):
            k = int(rng.integers(1, 6))
            m = FiniteAtomMeasure(tuple(float(x) for x in range(k)),
                                  tuple(rng.uniform(0.1, 1.0, k)))
            for mu, nu in ((m, empty), (empty, m)):
                assert prohorov_bruteforce(mu, nu, line_dist) == prohorov_loop(
                    mu, nu, line_dist)

    def test_limits(self):
        eleven = FiniteAtomMeasure(tuple(float(p) for p in range(11)), (1.0,) * 11)
        for mu, nu in ((eleven, dirac(0.0)), (dirac(0.0), eleven)):
            with pytest.raises(MeasureError, match="10 atoms per side"):
                prohorov_bruteforce(mu, nu, line_dist)


class TestBadDistances:
    """A distance that is NaN, infinite or negative is named where it enters."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0],
                             ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("distance", [prohorov, prohorov_bruteforce,
                                          kr_distance, kr_bruteforce])
    def test_rejected_naming_the_pair(self, distance, bad):
        def dist(p, q):
            return bad if {p, q} == {1.0, 2.0} else abs(p - q)

        mu = FiniteAtomMeasure((0.0, 1.0), (0.5, 0.5))
        nu = FiniteAtomMeasure((2.0,), (1.0,))
        with pytest.raises(MeasureError,
                           match=rf"between 1.0 and 2.0 is {bad!r}"):
            distance(mu, nu, dist)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0],
                             ids=["nan", "inf", "negative"])
    def test_precomputed_dists_rejected(self, bad):
        mu = FiniteAtomMeasure((0.0, 1.0), (0.5, 0.5))
        nu = FiniteAtomMeasure((2.0, 3.0), (0.5, 0.5))
        dists = np.array([[2.0, 3.0], [1.0, bad]])
        with pytest.raises(MeasureError, match=rf"between 1.0 and 3.0 is {bad!r}"):
            prohorov(mu, nu, line_dist, dists=dists)


class TestDualDistance:
    def test_diracs(self):
        for d in (0.3, 1.5, 2.0, 7.0):
            got = kr_distance(dirac(0.0), dirac(d), line_dist)
            assert got == pytest.approx(min(d, 2.0), abs=1e-9)

    def test_total_mass_gap(self):
        got = kr_distance(dirac(0.0, 1.0), dirac(0.0, 0.25), line_dist)
        assert got == pytest.approx(0.75, abs=1e-10)

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(25):
            pts = [float(x) for x in rng.choice(12, size=4, replace=False)]
            mu = FiniteAtomMeasure(tuple(pts[:2]), tuple(rng.uniform(0.1, 1.0, 2)))
            nu = FiniteAtomMeasure(tuple(pts[2:]), tuple(rng.uniform(0.1, 1.0, 2)))
            assert kr_distance(mu, nu, line_dist) == pytest.approx(
                kr_bruteforce(mu, nu, line_dist), abs=1e-8)

    def test_edge_program_matches_all_pairs(self, rng):
        # tree_metric constrains spanned-subtree edges; a plain callable on
        # the same tree constrains every pair
        star = build_tree({v: 0 for v in range(1, 9)},
                          {v: 0.3 * v for v in range(1, 9)}, root=0)
        trees = [random_tree(rng, 15) for _ in range(8)]
        trees += [star, path_tree(rng.uniform(0.1, 0.6, size=14))]
        for t in trees:
            for _ in range(3):
                na, nb = rng.integers(1, 7, size=2)
                mu = FiniteAtomMeasure(
                    tuple(int(v) for v in rng.choice(t.n, size=na, replace=False)),
                    tuple(rng.uniform(0.05, 1.0, size=na)))
                nu = FiniteAtomMeasure(
                    tuple(int(v) for v in rng.choice(t.n, size=nb, replace=False)),
                    tuple(rng.uniform(0.05, 1.0, size=nb)))
                edges = kr_distance(mu, nu, tree_metric(t))
                pairs = kr_distance(mu, nu, lambda p, q: t.distance(p, q))
                assert edges == pytest.approx(pairs, abs=1e-9)

    def test_edge_program_matches_bruteforce_with_branch_points(self, rng):
        checked = 0
        while checked < 15:
            t = random_tree(rng, 12)
            pts = [int(v) for v in rng.choice(np.arange(1, 12), size=4,
                                              replace=False)]
            # only supports whose closure needs a branch point off the root
            if len(branch_closure(t, pts + [t.root])) <= len(pts) + 1:
                continue
            k = int(rng.integers(1, 4))
            mu = FiniteAtomMeasure(tuple(pts[:k]), tuple(rng.uniform(0.1, 1.0, k)))
            nu = FiniteAtomMeasure(tuple(pts[k:]),
                                   tuple(rng.uniform(0.1, 1.0, 4 - k)))
            want = kr_bruteforce(mu, nu, lambda p, q: t.distance(p, q))
            assert kr_distance(mu, nu, tree_metric(t)) == pytest.approx(
                want, abs=1e-8)
            checked += 1

    def test_w1_closed_form_on_long_path(self):
        # equal masses on a path of diameter < 2: the |f| <= 1 bound is
        # inactive, so the program is W1 = sum |F_mu - F_nu| * gap
        q = 2.0 ** (-1.0 / 256)
        t = path_tree(1.9 * (1.0 - q) * q ** np.arange(1999))
        x = t.height
        a = np.exp(-((x - 0.5) / 0.1) ** 2)
        b = np.exp(-((x - 0.51) / 0.1) ** 2)
        a, b = a / a.sum(), b / b.sum()
        mu = FiniteAtomMeasure(tuple(range(t.n)), tuple(a))
        nu = FiniteAtomMeasure(tuple(range(t.n)), tuple(b))
        w1 = float(np.sum(np.abs(np.cumsum(a - b)[:-1]) * np.diff(x)))
        assert kr_distance(mu, nu, tree_metric(t)) == pytest.approx(w1, rel=1e-9)

    def test_bounded_by_prohorov_relation(self, rng):
        # dual gap <= (1 + total) * prohorov is a standard comparison; use
        # it loosely as a sanity guard between the two implementations
        for _ in range(10):
            pts = [float(x) for x in rng.choice(10, size=4, replace=False)]
            mu = FiniteAtomMeasure(tuple(pts[:2]), (0.5, 0.5))
            nu = FiniteAtomMeasure(tuple(pts[2:]), (0.5, 0.5))
            kr = kr_distance(mu, nu, line_dist)
            pr = prohorov(mu, nu, line_dist)
            assert kr <= (2.0 + mu.total + nu.total) * pr + 1e-9


class TestBruteForceDual:
    """kr_bruteforce enumerates in chunks; kr_loop is the per-subset twin."""

    def test_bit_equal_to_loop_on_lines(self, rng):
        # on the grid the gaps are equal multiples of 0.1: many subsets are
        # singular, and since 0.1 rounds in binary, some optimal vertices pass
        # the feasibility test only within its 1e-9 slack
        for size in [1, 4, 5] + [2, 3] * 20:
            for grid in (False, True):
                if grid:
                    pts = 0.1 * rng.choice(7, size=size, replace=False)
                else:
                    pts = rng.uniform(0.0, 3.0, size=size)
                mu, nu = split_support(rng, [float(p) for p in pts])
                assert kr_bruteforce(mu, nu, line_dist) == kr_loop(mu, nu, line_dist)

    def test_bit_equal_to_loop_on_trees(self, rng):
        star = build_tree({v: 0 for v in range(1, 6)}, {v: 0.1 for v in range(1, 6)},
                          root=0)
        cases = [(t, size) for t in (random_tree(rng, 9),
                                     random_tree(rng, 9, low=0.1, high=0.1))
                 for size in (2, 3, 4)] + [(star, 5)]
        for t, size in cases:
            dist = tree_metric(t)
            pts = [int(v) for v in rng.choice(t.n, size=size, replace=False)]
            mu, nu = split_support(rng, pts)
            assert kr_bruteforce(mu, nu, dist) == kr_loop(mu, nu, dist)

    def test_chunk_of_singular_subsets(self, monkeypatch, rng):
        # rows 0 and 1 are +-e_0, so the first C(18, 2) four-subsets of the
        # 20 rows all contain both and are singular: one whole chunk
        monkeypatch.setattr(measures, "SUBSET_BLOCK", math.comb(18, 2))
        mu, nu = split_support(rng, [0.0, 1.0, 2.0, 3.0])
        assert kr_bruteforce(mu, nu, line_dist) == kr_loop(mu, nu, line_dist)

    @pytest.mark.parametrize("block,size", [(1, 3), (1, 4), (7, 4), (7, 5),
                                            (math.comb(30, 5) + 1, 5)])
    def test_chunk_size_does_not_matter(self, monkeypatch, rng, block, size):
        cases = [split_support(rng, [float(p) for p in range(size)])]
        if size < 5:
            cases += [split_support(rng, [float(p) for p in rng.uniform(0.0, 3.0, size)])
                      for _ in range(2)]
        want = [kr_bruteforce(mu, nu, line_dist) for mu, nu in cases]
        monkeypatch.setattr(measures, "SUBSET_BLOCK", block)
        assert [kr_bruteforce(mu, nu, line_dist) for mu, nu in cases] == want

    def test_limits(self):
        six = FiniteAtomMeasure(tuple(float(p) for p in range(6)), (1.0,) * 6)
        with pytest.raises(MeasureError, match="5 support points"):
            kr_bruteforce(six, FiniteAtomMeasure((), ()), line_dist)
        with pytest.raises(MeasureError, match="5 support points"):
            kr_bruteforce(dirac(0.0), FiniteAtomMeasure(tuple(range(1, 6)),
                                                        (1.0,) * 5), line_dist)
        empty = FiniteAtomMeasure((), ())
        assert kr_bruteforce(empty, empty, line_dist) == 0.0


class TestHausdorff:
    def test_identical_and_nested(self):
        t = path_tree([1.0, 1.0, 1.0])
        assert hausdorff_distance(t, [0, 1, 2, 3], [0, 1, 2, 3]) == 0.0
        assert hausdorff_distance(t, [0, 3], [0, 1, 2, 3]) == pytest.approx(1.0)

    def test_empty(self):
        t = path_tree([1.0])
        assert hausdorff_distance(t, [], []) == 0.0
        assert hausdorff_distance(t, [0], []) == math.inf

    def test_star_leaves(self):
        t = build_tree({1: 0, 2: 0, 3: 0}, {1: 1.0, 2: 2.0, 3: 3.0}, root=0)
        assert hausdorff_distance(t, [1], [2]) == pytest.approx(3.0)
        assert hausdorff_distance(t, [0], [1, 2, 3]) == pytest.approx(3.0)


class TestFdd:
    """fdd's laws: marginals by kr_distance, and the joint law on tuples
    under the max-coordinate metric, as run_fdd compares them."""

    @staticmethod
    def max_coordinate(p, q):
        return max(line_dist(x, y) for x, y in zip(p, q))

    def test_identical_laws(self):
        law = FiniteAtomMeasure.from_dict({0.0: 0.5, 1.0: 0.5})
        assert kr_distance(law, law, line_dist) == pytest.approx(0.0, abs=1e-10)
        joint = dirac((0.0, 1.0, 0.0))
        assert kr_distance(joint, joint, self.max_coordinate) == pytest.approx(
            0.0, abs=1e-10)

    def test_joint_metric_is_max_coordinate(self):
        a = dirac((0.0, 0.0))
        b = dirac((0.5, 1.2))
        assert kr_distance(a, b, self.max_coordinate) == pytest.approx(1.2, abs=1e-9)


class TestReport:
    def test_rows(self):
        t = path_tree([1.0, 1.0, 1.0])
        limit = SpeedMeasure([0.4, 0.3, 0.2, 0.1])
        approx = SpeedMeasure([0.35, 0.35, 0.2, 0.1])
        rep = gh_vague_report(t, limit, [("8", approx), ("16", limit)],
                              radii=[1.5, 2.0], delta=0.6)
        assert len(rep) == 4
        exact = [r for r in rep if r.label == "16"]
        for r in exact:
            assert r.prohorov == pytest.approx(0.0, abs=1e-10)
            assert r.kr == pytest.approx(0.0, abs=1e-10)
            assert r.hausdorff == 0.0
        # vertex 2 sits exactly on the radius-2 sphere and carries mass
        assert all(r.flagged for r in rep if r.radius == 2.0)
        assert not any(r.flagged for r in rep if r.radius == 1.5)

    def test_m_delta_column_matches_lower_mass(self):
        t = path_tree([1.0, 1.0])
        m = SpeedMeasure([0.5, 0.25, 0.25])
        rep = gh_vague_report(t, m, [("x", m)], radii=[1.5], delta=0.5)
        want = lower_mass(t, m, 0.5, radius=1.5)
        assert rep[0].m_delta == pytest.approx(want)
