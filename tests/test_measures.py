"""Measure distances against brute-force twins and hand-computed values."""

import io
import math

import numpy as np
import pytest

from treeflow import measures
from treeflow.measures import (
    ConvergenceReport,
    FiniteAtomMeasure,
    empirical_law,
    fdd_compare,
    gh_vague_report,
    hausdorff_distance,
    kr_bruteforce,
    kr_distance,
    polynomial_lower_bound,
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
from conftest import path_tree, random_masses, random_tree


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
        assert m.mass(1) == 0.0

    def test_empirical_aggregates(self):
        m = empirical_law([3, 3, 5, 7])
        assert m.mass(3) == pytest.approx(0.5)
        assert m.total == pytest.approx(1.0)
        assert len(m) == 3


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
    def test_grid_mismatch(self):
        with pytest.raises(MeasureError):
            fdd_compare([0.1, 0.2], [dirac(0)], [dirac(0), dirac(1)], line_dist)

    def test_identical_laws(self):
        laws = [FiniteAtomMeasure.from_dict({0.0: 0.5, 1.0: 0.5})] * 3
        rep = fdd_compare([1, 2, 3], laws, laws, line_dist,
                          joint_a=dirac((0.0, 1.0, 0.0)),
                          joint_b=dirac((0.0, 1.0, 0.0)))
        assert rep.max_kr == pytest.approx(0.0, abs=1e-10)
        assert rep.joint_kr == pytest.approx(0.0, abs=1e-10)

    def test_joint_metric_is_max_coordinate(self):
        a = dirac((0.0, 0.0))
        b = dirac((0.5, 1.2))
        rep = fdd_compare([1, 2], [dirac(0.0)] * 2, [dirac(0.0)] * 2, line_dist,
                          joint_a=a, joint_b=b)
        assert rep.joint_kr == pytest.approx(1.2, abs=1e-9)

    def test_joint_skipped_above_limit(self):
        a = FiniteAtomMeasure(((0.0, 0.0), (1.0, 1.0)), (0.5, 0.5))
        rep = fdd_compare([1, 2], [dirac(0.0)] * 2, [dirac(0.0)] * 2, line_dist,
                          joint_a=a, joint_b=a, joint_limit=1)
        assert rep.joint_kr is None


class TestReport:
    def test_rows_and_csv(self, rng):
        t = path_tree([1.0, 1.0, 1.0])
        limit = SpeedMeasure([0.4, 0.3, 0.2, 0.1])
        approx = SpeedMeasure([0.35, 0.35, 0.2, 0.1])
        rep = gh_vague_report(t, limit, [("8", approx), ("16", limit)],
                              radii=[1.5, 2.0], delta=0.6)
        assert len(rep.rows) == 4
        exact = [r for r in rep.rows if r.label == "16"]
        for r in exact:
            assert r.prohorov == pytest.approx(0.0, abs=1e-10)
            assert r.kr == pytest.approx(0.0, abs=1e-10)
            assert r.hausdorff == 0.0
        # vertex 2 sits exactly on the radius-2 sphere and carries mass
        assert all(r.flagged for r in rep.rows if r.radius == 2.0)
        assert not any(r.flagged for r in rep.rows if r.radius == 1.5)
        buf = io.StringIO()
        rep.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "label,radius,hausdorff,prohorov,kr,m_delta,flagged"
        assert len(lines) == 5
        assert rep.column("prohorov", label="16") == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_m_delta_column_matches_lower_mass(self):
        t = path_tree([1.0, 1.0])
        m = SpeedMeasure([0.5, 0.25, 0.25])
        rep = gh_vague_report(t, m, [("x", m)], radii=[1.5], delta=0.5)
        want = lower_mass(t, m, 0.5, radius=1.5).value
        assert rep.rows[0].m_delta == pytest.approx(want)


class TestPolynomialBound:
    def test_uniform_path(self):
        t = path_tree([1.0, 1.0, 1.0])
        m = SpeedMeasure([1.0, 1.0, 1.0, 1.0])
        c = polynomial_lower_bound(t, m, deltas=[0.5], kappa=1.0)
        assert c == pytest.approx(2.0)   # each open half-ball holds its center

    def test_zero_when_ball_empty(self):
        t = path_tree([1.0, 1.0])
        m = SpeedMeasure([1.0, 0.0, 1.0])
        assert polynomial_lower_bound(t, m, deltas=[0.5], kappa=1.0) == 0.0

    def test_rejects_bad_delta(self):
        t = path_tree([1.0])
        with pytest.raises(MeasureError):
            polynomial_lower_bound(t, SpeedMeasure([1.0, 1.0]), [0.0], 1.0)
