import math

import numpy as np
import pytest

from treeflow.tree import (
    FLOAT_SLACK,
    _EulerTable,
    _distinct_quadruples,
    MeasureError,
    SpeedMeasure,
    TreeError,
    branch_closure,
    build_tree,
    check_four_point,
    discretize,
    epsilon_degree,
    epsilon_net,
    load_tree,
    lower_mass,
    project_psi,
    restrict,
    save_tree,
    spanned_subtree,
)

from treeflow.measures import hausdorff_distance

from conftest import floyd_warshall_distances, path_tree, random_masses, random_tree


def binary_tree_plain(depth):
    parents = {}
    lengths = {}
    n = 2 ** (depth + 1) - 1
    for v in range(1, n):
        parents[v] = (v - 1) // 2
        lengths[v] = 1.0
    return build_tree(parents, lengths, 0)


def star_tree(k, ell=1.0):
    parents = {i: 0 for i in range(1, k + 1)}
    lengths = {i: ell for i in range(1, k + 1)}
    return build_tree(parents, lengths, 0)


class TestBuild:
    def test_single_vertex(self):
        t = build_tree({}, {}, 0)
        assert t.n == 1
        assert t.distance(0, 0) == 0.0

    def test_path(self):
        t = path_tree([1.0, 1.0])
        assert t.distance(0, 2) == 2.0
        assert t.height[2] == 2.0

    def test_binary_depths(self):
        t = binary_tree_plain(3)
        for v in range(t.n):
            assert t.distance(0, v) == t.depth[v]

    def test_cycle_rejected(self):
        with pytest.raises(TreeError):
            build_tree({1: 2, 2: 1}, {1: 1.0, 2: 1.0}, 0)
        with pytest.raises(TreeError, match="cycle"):
            build_tree({1: 1}, {1: 1.0}, 0)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(TreeError):
            path_tree([1.0, 0.0])
        with pytest.raises(TreeError):
            path_tree([1.0, -2.0])

    def test_dangling_parent_rejected(self):
        with pytest.raises(TreeError):
            build_tree({1: 7}, {1: 1.0}, 0)

    def test_noncontiguous_ids_rejected(self):
        with pytest.raises(TreeError):
            build_tree({5: 0}, {5: 1.0}, 0)


def euler_oracle(tree):
    """Literal recursive depth-first walk, children by ascending id: the
    preorder, depths, heights, subtree sizes, Euler tour and each vertex's
    first and last tour position."""
    n = tree.n
    kids = [[] for _ in range(n)]
    for v in range(n):
        if v != tree.root:
            kids[int(tree.parent[v])].append(v)
    order, tour = [], []
    first, last, size = [0] * n, [0] * n, [1] * n
    depth, height = [0] * n, [0.0] * n

    def visit(v):
        order.append(v)
        first[v] = len(tour)
        tour.append(v)
        for c in kids[v]:
            depth[c] = depth[v] + 1
            height[c] = height[v] + float(tree.edge_length[c])
            visit(c)
            size[v] += size[c]
            tour.append(v)
        last[v] = len(tour) - 1

    visit(tree.root)
    return dict(order=order, depth=depth, height=height, size=size,
                tour=tour, first=first, last=last)


def relabelled_random_tree(rng, n):
    """Random recursive tree under a uniform relabelling, so the root and
    the order of ids among siblings are arbitrary."""
    label = rng.permutation(n)
    parents = {int(label[v]): int(label[rng.integers(0, v)]) for v in range(1, n)}
    lengths = {v: float(rng.uniform(0.2, 1.5)) for v in parents}
    return build_tree(parents, lengths, int(label[0]))


def preorder_cases(rng):
    k = 9
    middle = {v: v + 1 for v in range(4)} | {v: v - 1 for v in range(5, k)}
    star_at_leaf = {0: 3} | {v: 0 for v in range(1, 7) if v != 3}
    # spine 0, 3, 6, ... with two legs each; legs carry the other ids
    caterpillar = {}
    for s in range(0, 15, 3):
        if s:
            caterpillar[s] = s - 3
        caterpillar[s + 1] = caterpillar[s + 2] = s
    return ([build_tree({}, {}, 0),
             path_tree([0.5] * 12),
             build_tree(middle, {v: 0.25 * (v + 1) for v in middle}, 4),
             star_tree(7),
             build_tree(star_at_leaf, {v: 1.0 for v in star_at_leaf}, 3),
             build_tree(caterpillar, {v: 1.0 + 0.1 * v for v in caterpillar}, 0)]
            + [relabelled_random_tree(rng, n) for n in (2, 3, 10, 40, 200)]
            + [random_tree(rng, 60)])


class TestPreorder:
    """The one depth-first pass and the Euler table read off it, against a
    literal recursive walk."""

    def test_pass_matches_recursive_walk(self, rng):
        for t in preorder_cases(rng):
            want = euler_oracle(t)
            assert t.order.tolist() == want["order"]
            assert t.depth.tolist() == want["depth"]
            assert t.height.tolist() == want["height"]
            assert t.size.tolist() == want["size"]

    def test_order_is_preorder_with_ascending_children(self, rng):
        for t in preorder_cases(rng):
            pre = np.empty(t.n, dtype=np.int64)
            pre[t.order] = np.arange(t.n)
            assert t.order[0] == t.root
            for v in range(t.n):
                kids = t.children(v)
                assert np.all(np.diff(kids) > 0)
                assert np.all(np.diff(pre[kids]) > 0)
                assert np.all(pre[kids] > pre[v])
                # v's subtree is the preorder window [pre, pre + size)
                window = t.order[pre[v]:pre[v] + t.size[v]]
                below = [u for u in range(t.n) if v in t.ancestors(u)]
                assert sorted(window.tolist()) == below

    def test_tour_matches_recursive_walk(self, rng):
        for t in preorder_cases(rng):
            want = euler_oracle(t)
            tab = _EulerTable(t)
            assert (tab.keys[:tab.width] & tab.mask).tolist() == want["tour"]
            assert tab.first.tolist() == want["first"]
            assert tab.last.tolist() == want["last"]
            assert tab.first_list == want["first"]


class TestDistance:
    def test_identity_and_symmetry(self, rng):
        t = random_tree(rng, 14)
        for v in range(t.n):
            assert t.distance(v, v) == 0.0
        for _ in range(40):
            a, b = rng.integers(0, t.n, size=2)
            assert t.distance(int(a), int(b)) == pytest.approx(t.distance(int(b), int(a)), abs=0)

    def test_siblings(self):
        t = binary_tree_plain(2)
        assert t.distance(1, 2) == 2.0

    def test_against_floyd_warshall(self, rng):
        for _ in range(6):
            t = random_tree(rng, 10)
            d = floyd_warshall_distances(t)
            for x in range(t.n):
                for y in range(t.n):
                    assert t.distance(x, y) == pytest.approx(d[x, y], abs=1e-10)

    def test_deep_path_lca_lift(self):
        t = path_tree([0.5] * 200)
        assert t.distance(0, 200) == pytest.approx(100.0, abs=1e-9)
        assert t.distance(40, 160) == pytest.approx(60.0, abs=1e-9)
        assert t.diameter() == pytest.approx(100.0, abs=1e-9)


class TestBatchedKernel:
    """The batched queries against scalar and independent oracles."""

    @staticmethod
    def trees(rng):
        return [random_tree(rng, n) for n in (1, 2, 7, 15, 40)] + [path_tree([0.5] * 200)]

    def test_batched_lca_matches_scalar(self, rng):
        for t in self.trees(rng):
            xs = rng.integers(0, t.n, size=300)
            ys = rng.integers(0, t.n, size=300)
            got = t.lca(xs, ys)
            assert got.dtype == np.int64
            assert got.tolist() == [t.lca(int(x), int(y)) for x, y in zip(xs, ys)]

    def test_batched_distance_is_bit_equal_to_rows(self, rng):
        for t in self.trees(rng):
            everyone = np.arange(t.n)
            block = t.distance_block(everyone, everyone)
            for x in range(t.n):
                assert np.array_equal(t.distance(x, everyone), t.distances_from(x))
                assert np.array_equal(block[x], t.distances_from(x))
            xs = rng.integers(0, t.n, size=200)
            ys = rng.integers(0, t.n, size=200)
            assert t.distance(xs, ys).tolist() == [
                t.distance(int(x), int(y)) for x, y in zip(xs, ys)]

    def test_batched_distance_against_floyd_warshall(self, rng):
        for t in self.trees(rng):
            d = floyd_warshall_distances(t)
            everyone = np.arange(t.n)
            got = t.distance(everyone[:, None], everyone[None, :])
            assert np.max(np.abs(got - d)) <= 1e-10

    def test_bad_vertices_rejected(self, rng):
        t = random_tree(rng, 6)
        with pytest.raises(TreeError, match="vertex 6"):
            t.lca(0, 6)
        with pytest.raises(TreeError, match="vertex -1"):
            t.distance(np.array([0, -1]), np.array([1, 2]))
        with pytest.raises(TreeError, match="integers"):
            t.distance(np.array([0.5]), np.array([1]))

    def test_hausdorff_matches_double_loop(self, rng):
        for _ in range(5):
            t = random_tree(rng, 25)
            a = [int(v) for v in rng.choice(t.n, size=int(rng.integers(1, 9)), replace=False)]
            b = [int(v) for v in rng.choice(t.n, size=int(rng.integers(1, 9)), replace=False)]
            worst = 0.0
            for u in a:
                worst = max(worst, min(t.distance(u, v) for v in b))
            for v in b:
                worst = max(worst, min(t.distance(u, v) for u in a))
            assert hausdorff_distance(t, a, b) == worst

    def test_lower_mass_matches_per_center_loop(self, rng):
        for _ in range(4):
            t = random_tree(rng, 30)
            m = random_masses(rng, t.n)
            for delta, radius in ((0.4, None), (1.1, 2.0), (0.0, 1.5)):
                best = math.inf
                for x in range(t.n):
                    if radius is not None and not t.height[x] < radius - FLOAT_SLACK:
                        continue
                    ball = float(m.masses[t.distances_from(x) <= delta + FLOAT_SLACK].sum())
                    assert m.ball_mass(t, x, delta) == ball
                    best = min(best, ball)
                assert lower_mass(t, m, delta, radius=radius) == best

    def test_branch_closure_matches_pairwise_meets(self, rng):
        for _ in range(8):
            t = random_tree(rng, 30)
            base = sorted({0} | {int(v) for v in rng.integers(0, t.n, size=int(rng.integers(1, 12)))})
            direct = set(base)
            for i, a in enumerate(base):
                for b in base[i + 1:]:
                    direct.add(t.lca(a, b))
            got = branch_closure(t, base)
            assert got.tolist() == sorted(direct)

    def test_sampled_quadruples_are_distinct_and_uniform(self):
        quads = _distinct_quadruples(np.random.default_rng(11), 6, 36_000)
        assert quads.min() >= 0 and quads.max() < 6
        assert all(len(set(q)) == 4 for q in quads.tolist())
        # 360 ordered 4-tuples from 6 ids, 100 expected draws each
        _, counts = np.unique(quads, axis=0, return_counts=True)
        assert len(counts) == 360
        chi2 = float(((counts - 100.0) ** 2 / 100.0).sum())
        assert chi2 < 359 + 6 * math.sqrt(2 * 359)

    def test_sampled_four_point_witness_is_first_in_draw_order(self, rng):
        t = random_tree(rng, 40)
        d = t.distance_block(np.arange(t.n), np.arange(t.n))
        d[1, 4] += 0.5
        d[4, 1] += 0.5
        rep = check_four_point(d, exhaustive_limit=10, samples=2000, seed=5)
        assert not rep.ok and not rep.exhaustive
        assert len(set(rep.quadruple)) == 4
        assert {1, 4} <= set(rep.quadruple)
        i, j, k, l = rep.quadruple
        sums = sorted((d[i, j] + d[k, l], d[i, k] + d[j, l], d[i, l] + d[j, k]))
        assert list(rep.sums) == sums and sums[2] - sums[1] > 1e-9
        assert 1 < rep.checked <= 2000
        # the draws are a prefix-stable stream: stopping at the witness
        # finds it again, stopping one draw earlier finds nothing
        again = check_four_point(d, exhaustive_limit=10, samples=rep.checked, seed=5)
        assert (again.quadruple, again.checked) == (rep.quadruple, rep.checked)
        before = check_four_point(d, exhaustive_limit=10, samples=rep.checked - 1, seed=5)
        assert before.ok and before.checked == rep.checked - 1


class TestBranchPoint:
    def test_degenerate(self, rng):
        t = random_tree(rng, 9)
        for _ in range(20):
            x, y = (int(a) for a in rng.integers(0, t.n, size=2))
            assert t.branch_point(x, x, y) == x

    def test_path_median(self):
        t = path_tree([1.0, 1.0, 1.0, 1.0])
        assert t.branch_point(0, 4, 2) == 2

    def test_arrays_broadcast_like_scalars(self, rng):
        t = random_tree(rng, 11)
        x = int(rng.integers(0, t.n))
        ys = rng.integers(0, t.n, size=6)
        zs = rng.integers(0, t.n, size=(4, 1))
        got = t.branch_point(x, ys, zs)
        assert got.shape == (4, 6)
        assert got.tolist() == [[t.branch_point(x, int(y), int(z[0])) for y in ys]
                                for z in zs]
        assert type(t.branch_point(x, int(ys[0]), int(zs[0, 0]))) is int

    def test_bruteforce_median(self, rng):
        # the branch point is the unique vertex on all three pairwise segments
        for _ in range(5):
            t = random_tree(rng, 11)
            for _ in range(25):
                x, y, z = (int(a) for a in rng.integers(0, t.n, size=3))
                c = t.branch_point(x, y, z)
                found = [
                    v
                    for v in range(t.n)
                    if t.on_segment(v, x, y) and t.on_segment(v, y, z) and t.on_segment(v, x, z)
                ]
                assert found == [c]


class TestFourPoint:
    def test_trees_pass_exhaustively(self, rng):
        for _ in range(4):
            t = random_tree(rng, 12)
            rep = check_four_point(t)
            assert rep.ok and rep.exhaustive

    def test_perturbed_matrix_fails_with_witness(self, rng):
        t = random_tree(rng, 10)
        d = t.distance_block(np.arange(t.n), np.arange(t.n))
        d[1, 4] += 0.5
        d[4, 1] += 0.5
        rep = check_four_point(d)
        assert not rep.ok
        assert rep.quadruple is not None
        i, j, k, l = rep.quadruple
        sums = sorted(
            (d[i, j] + d[k, l], d[i, k] + d[j, l], d[i, l] + d[j, k])
        )
        assert sums[2] - sums[1] > 1e-9

    def test_sampled_mode(self, rng):
        t = random_tree(rng, 40)
        rep = check_four_point(t, samples=2000, seed=3)
        assert rep.ok and not rep.exhaustive and rep.checked == 2000


def literal_epsilon_degree(t, x, eps):
    """epsilon_degree's definition as a direct triple loop over v, u and w."""
    count = 0
    for v in range(t.n):
        if t.distance(x, v) < eps - FLOAT_SLACK:
            continue
        ok = False
        for u in range(t.n):
            if t.distance(x, u) >= eps - FLOAT_SLACK:
                continue
            if not any(int(a) == u for a in t.neighbors(v)):
                continue
            for w in range(t.n):
                if t.distance(x, w) < 2 * eps - FLOAT_SLACK:
                    continue
                if abs(t.distance(u, v) + t.distance(v, w) - t.distance(u, w)) <= 1e-9:
                    ok = True
                    break
            if ok:
                break
        if ok:
            count += 1
    return count


class TestEpsilonDegree:
    def test_single_vertex(self):
        t = build_tree({}, {}, 0)
        assert epsilon_degree(t, 0, 0.5) == 0

    def test_star(self):
        t = star_tree(5)
        assert epsilon_degree(t, 0, 0.4) == 5

    def test_path_interior(self):
        t = path_tree([1.0] * 10)
        assert epsilon_degree(t, 5, 1.5) == 2

    def test_literal_definition(self, rng):
        for _ in range(4):
            t = random_tree(rng, 10)
            eps = float(rng.uniform(0.3, 2.0))
            x = int(rng.integers(0, t.n))
            assert epsilon_degree(t, x, eps) == literal_epsilon_degree(t, x, eps)

    def test_matches_definition_on_larger_trees(self, rng):
        for _ in range(4):
            t = random_tree(rng, int(rng.integers(30, 81)))
            for x in rng.integers(0, t.n, size=3):
                eps = float(rng.uniform(0.3, 2.0))
                assert epsilon_degree(t, int(x), eps) == literal_epsilon_degree(
                    t, int(x), eps)

    def test_unit_edges_hit_eps_and_two_eps_exactly(self, rng):
        # integer distances land on the sphere of radius eps and of 2 eps;
        # on the path 0-1-2-3 the vertex above the ball counts only when the
        # root lies 2 eps away: from 3 it does, from 2 it does not
        t = path_tree([1.0] * 3)
        assert [epsilon_degree(t, x, 1.5) for x in (2, 3)] == [0, 1]
        assert [literal_epsilon_degree(t, x, 1.5) for x in (2, 3)] == [0, 1]
        for _ in range(3):
            t = random_tree(rng, int(rng.integers(30, 81)), low=1.0, high=1.0)
            for x in rng.integers(0, t.n, size=2):
                for eps in (0.5, 1.0, 1.5, 2.0):
                    assert epsilon_degree(t, int(x), eps) == literal_epsilon_degree(
                        t, int(x), eps)


class TestLowerMass:
    def test_uniform_floor(self, rng):
        t = random_tree(rng, 10)
        m = SpeedMeasure(np.ones(t.n))
        assert lower_mass(t, m, 0.25) >= 1.0

    def test_binary_exponential(self):
        t = binary_tree_plain(3)
        m = SpeedMeasure(np.exp(-t.height))
        # deepest admissible centers sit at height 2; their half-ball is just themselves
        assert lower_mass(t, m, 0.5, radius=3.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_two_point(self):
        n = 8
        t = path_tree([1.0])
        m = SpeedMeasure([1.0, 1.0 / n])
        assert lower_mass(t, m, 0.5) == pytest.approx(1.0 / n, rel=1e-12)

    def test_monotone_in_delta(self, rng):
        t = random_tree(rng, 12)
        m = random_masses(rng, t.n)
        vals = [lower_mass(t, m, d) for d in (0.1, 0.4, 0.8, 1.6)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_empty_center_range(self, rng):
        t = path_tree([1.0])
        m = SpeedMeasure([1.0, 1.0])
        assert lower_mass(t, m, 0.5, radius=0.0) == math.inf

    @staticmethod
    def dense_floor(t, m, delta, radius):
        best = math.inf
        for x in range(t.n):
            if radius is None or t.height[x] < radius - FLOAT_SLACK:
                ball = m.masses[t.distances_from(x) <= delta + FLOAT_SLACK]
                best = min(best, float(ball.sum()))
        return best

    @pytest.mark.parametrize("lattice", [False, True])
    @pytest.mark.parametrize("middle", [False, True])
    def test_path_bracket_equals_dense_minimum(self, rng, lattice, middle):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            lengths = (np.full(n - 1, 0.25) if lattice
                       else rng.uniform(0.05, 1.0, n - 1))
            root = int(rng.integers(0, n)) if middle else 0
            # the path 0-1-...-(n-1), rooted at ``root``
            parents = {v: v + 1 if v < root else v - 1
                       for v in range(n) if v != root}
            ells = {v: float(lengths[min(v, parents[v])]) for v in parents}
            t = build_tree(parents, ells, root)
            assert t._path_positions is not None
            m = (SpeedMeasure(rng.choice([0.25, 0.5, 1.0], size=n)) if lattice
                 else random_masses(rng, n))
            # radii exactly on vertex distances, and on the lattice within
            # GEOM_TOL of them, where the windows and the dense rows differ
            pairs = rng.integers(0, n, size=(12, 2))
            deltas = ((0.0, 0.25, 0.25 - 5e-10, 0.25 + 5e-10, 0.5, 0.75)
                      if lattice else
                      [0.0, 0.3] + [float(t.distance(int(u), int(v)))
                                    for u, v in pairs])
            for delta in deltas:
                for radius in (None, 1.25, float(rng.uniform(0.0, 4.0))):
                    assert lower_mass(t, m, delta, radius=radius) == \
                        self.dense_floor(t, m, delta, radius)

    def test_branching_tree_takes_the_dense_route(self, rng, monkeypatch):
        t = random_tree(rng, 30)
        while t._path_positions is not None:
            t = random_tree(rng, 30)
        m = random_masses(rng, t.n)
        seen = []
        dense = SpeedMeasure.ball_masses

        def spy(self, tree, centers, *args, **kwargs):
            seen.append(len(centers))
            return dense(self, tree, centers, *args, **kwargs)

        monkeypatch.setattr(SpeedMeasure, "ball_masses", spy)
        assert lower_mass(t, m, 0.4) == self.dense_floor(t, m, 0.4, None)
        assert seen == [t.n]

    def test_path_positions_are_cached_per_tree(self):
        t = path_tree([1.0, 0.5, 2.0])
        pos = t._path_positions
        assert pos is t._path_positions and not pos.flags.writeable
        assert np.array_equal(pos, t.distances_from(3))
        star = build_tree({1: 0, 2: 0, 3: 0}, {1: 1.0, 2: 1.0, 3: 1.0}, 0)
        assert star._path_positions is None


class TestRestrict:
    def test_identity_when_radius_large(self, rng):
        t = random_tree(rng, 9)
        m = random_masses(rng, t.n)
        sub, sm, ids = restrict(t, m, 1e9)
        assert sub.n == t.n
        assert sm.total == pytest.approx(m.total, rel=1e-13)
        assert list(ids) == list(range(t.n))

    def test_binary_ball(self):
        t = binary_tree_plain(3)
        m = SpeedMeasure(np.ones(t.n))
        sub, sm, ids = restrict(t, m, 2.0)
        assert sub.n == 7
        assert sm.total == 7.0

    def test_measure_total_matches_ball(self, rng):
        t = random_tree(rng, 14)
        m = random_masses(rng, t.n)
        r = 1.7
        sub, sm, ids = restrict(t, m, r)
        direct = m.masses[t.height <= r + 1e-12].sum()
        assert sm.total == pytest.approx(float(direct), rel=1e-13)
        # distances survive restriction
        for i in range(sub.n):
            for j in range(sub.n):
                assert sub.distance(i, j) == pytest.approx(
                    t.distance(int(ids[i]), int(ids[j])), abs=1e-10
                )


class TestClosureNetsProjection:
    def test_closure_of_everything(self, rng):
        t = random_tree(rng, 10)
        s = branch_closure(t, range(t.n))
        assert list(s) == list(range(t.n))

    def test_y_tree_adds_center(self):
        # root-0 stem to 1, arms to 2 and 3
        t = build_tree({1: 0, 2: 1, 3: 1}, {1: 1.0, 2: 1.0, 3: 1.0}, 0)
        s = branch_closure(t, [0, 2, 3])
        assert list(s) == [0, 1, 2, 3]

    def test_idempotent(self, rng):
        for _ in range(5):
            t = random_tree(rng, 13)
            base = sorted({0} | {int(v) for v in rng.integers(0, t.n, size=4)})
            s = branch_closure(t, base)
            again = branch_closure(t, s)
            assert list(s) == list(again)

    def test_closure_matches_triple_definition(self, rng):
        for _ in range(5):
            t = random_tree(rng, 11)
            base = sorted({0} | {int(v) for v in rng.integers(0, t.n, size=4)})
            s = set(int(v) for v in branch_closure(t, base))
            from itertools import combinations

            direct = set(base)
            changed = True
            while changed:
                changed = False
                for a, b, c in combinations(sorted(direct), 3):
                    m = t.branch_point(a, b, c)
                    if m not in direct:
                        direct.add(m)
                        changed = True
            assert s == direct

    def test_requires_root(self, rng):
        t = random_tree(rng, 6)
        with pytest.raises(TreeError):
            branch_closure(t, [1, 2])

    def test_spanned_subtree_metric(self, rng):
        for _ in range(4):
            t = random_tree(rng, 12)
            s = branch_closure(t, sorted({0} | {int(v) for v in rng.integers(0, t.n, size=5)}))
            sub, ids = spanned_subtree(t, s)
            for i in range(sub.n):
                for j in range(sub.n):
                    assert sub.distance(i, j) == pytest.approx(
                        t.distance(int(ids[i]), int(ids[j])), abs=1e-10
                    )

    def test_net_trivial_when_eps_huge(self, rng):
        t = random_tree(rng, 9)
        net = epsilon_net(t, 1e9)
        assert list(net) == [t.root]

    def test_net_is_dense(self, rng):
        for _ in range(4):
            t = random_tree(rng, 16)
            eps = 0.8
            net = epsilon_net(t, eps)
            for v in range(t.n):
                assert min(t.distance(v, int(s)) for s in net) <= eps + 1e-9

    def test_project_identity(self, rng):
        t = random_tree(rng, 8)
        m = random_masses(rng, t.n)
        proj = project_psi(t, m, range(t.n))
        assert list(proj.psi) == list(range(t.n))
        assert proj.max_displacement == 0.0

    def test_project_path_example(self):
        t = path_tree([1.0, 1.0])
        m = SpeedMeasure([1.0, 1.0, 1.0])
        proj = project_psi(t, m, [0, 2])
        assert proj.psi[1] == 0
        assert proj.pushforward[0] == 2.0
        assert proj.pushforward[2] == 1.0

    def test_projection_tower(self, rng):
        # projecting through a finer subset first changes nothing
        for _ in range(4):
            t = random_tree(rng, 14)
            m = random_masses(rng, t.n)
            big = set(int(v) for v in branch_closure(t, sorted({0} | {int(v) for v in rng.integers(0, t.n, size=6)})))
            small = set(int(v) for v in branch_closure(t, sorted({0} | set(list(big)[:3]))))
            small &= big
            small |= {0}
            p_small = project_psi(t, m, sorted(small))
            p_big = project_psi(t, m, sorted(big))
            composed = [int(p_small.psi[int(p_big.psi[v])]) for v in range(t.n)]
            assert composed == [int(x) for x in p_small.psi]

    def test_discretize_displacement_bound(self, rng):
        for _ in range(6):
            t = random_tree(rng, 20)
            m = random_masses(rng, t.n)
            eps = 0.6
            disc = discretize(t, m, eps)
            assert disc.max_displacement <= eps + 1e-9
            assert disc.pushforward.total == pytest.approx(m.total, rel=1e-12)


class TestInterchange:
    def test_roundtrip_exact(self, tmp_path, rng):
        t = random_tree(rng, 12)
        m = random_masses(rng, t.n)
        p = tmp_path / "t.tree"
        save_tree(p, t, m)
        t2, m2 = load_tree(p)
        assert t2.n == t.n and t2.root == t.root
        assert np.array_equal(t2.parent, t.parent)
        assert np.array_equal(t2.edge_length, t.edge_length)
        assert np.array_equal(m2.masses, m.masses)

    def test_no_measure(self, tmp_path):
        t = path_tree([0.125])
        p = tmp_path / "t.tree"
        save_tree(p, t)
        t2, m2 = load_tree(p)
        assert m2 is None
        assert t2.edge_length[1] == 0.125

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.tree"
        p.write_text("garbage here\n")
        with pytest.raises(TreeError):
            load_tree(p)

    def test_missing_edge_line(self, tmp_path):
        p = tmp_path / "short.tree"
        p.write_text("tree v1 3 0\n1 0 1.0\n")
        with pytest.raises(TreeError):
            load_tree(p)

    @pytest.mark.parametrize("line, message", [
        ("mass -1 2.0", "line 5: vertex -1 outside vertex range 0..2"),
        ("mass 3 2.0", "line 5: vertex 3 outside vertex range 0..2"),
        ("mass 1 2.0", "line 6: second mass line for vertex 1"),
        ("2 0 1.0", "line 5: second edge line for vertex 2"),
        ("3 0 1.0", "line 5: vertex 3 outside vertex range 0..2"),
        ("mass 2 heavy", "line 5: mass 'heavy' is not a number"),
        ("mass x 1.0", "line 5: vertex 'x' is not an integer"),
    ])
    def test_bad_line_named(self, tmp_path, line, message):
        # the blank third line still counts toward the line numbers
        p = tmp_path / "bad.tree"
        p.write_text(f"tree v1 3 0\n1 0 1.0\n\n2 1 0.5\n{line}\nmass 1 1.0\n")
        with pytest.raises(TreeError, match=message):
            load_tree(p)

    @pytest.mark.parametrize("text, message", [
        ("tree v1 three 0\n", "line 1: n 'three' is not an integer"),
        ("tree v1 2 2\n1 0 1.0\n", "line 1: root 2 outside vertex range 0..1"),
        ("tree v1 2 0\n1 zero 1.0\n", "line 2: parent 'zero' is not an integer"),
        ("tree v1 2 0\n1 0 long\n", "line 2: length 'long' is not a number"),
        ("tree v1 2 0\n1 2 1.0\n", "line 2: parent 2 outside vertex range 0..1"),
    ])
    def test_bad_field_named(self, tmp_path, text, message):
        p = tmp_path / "bad.tree"
        p.write_text(text)
        with pytest.raises(TreeError, match=message):
            load_tree(p)


class TestSpeedMeasure:
    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_from_dict_rejects_ids_out_of_range(self, vertex):
        with pytest.raises(MeasureError, match=f"vertex {vertex} outside"):
            SpeedMeasure.from_dict(3, {0: 1.0, vertex: 2.0})

    def test_negative_rejected(self):
        with pytest.raises(MeasureError):
            SpeedMeasure([1.0, -0.5])

    def test_nonfinite_rejected(self):
        with pytest.raises(MeasureError):
            SpeedMeasure([1.0, math.inf])

    def test_ball_mass_open_closed(self):
        t = path_tree([1.0, 1.0])
        m = SpeedMeasure([1.0, 2.0, 4.0])
        assert m.ball_mass(t, 0, 1.0, closed=True) == 3.0
        assert m.ball_mass(t, 0, 1.0, closed=False) == 1.0
