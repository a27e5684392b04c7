"""Tests for the tree family generators."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from treeflow.families import (
    CoalescentSpec,
    Excursion,
    FamilyError,
    OffspringLaw,
    _merge_weights,
    binary_tree,
    coalescent_speed_measure,
    coalescent_tree,
    degree_measure,
    excursion_distance,
    glue_excursion,
    gw_conditioned,
    kesten_excursion,
    lattice_excursion,
    merge_rate,
    offspring_geometric,
    offspring_poisson,
    reflect_path,
)
from treeflow.tree import check_four_point
from treeflow.walk import build_chain


def assert_glued_matches_definition(exc, glued=None):
    # every glued distance equals the pseudo-distance of the definition
    glued = glue_excursion(exc) if glued is None else glued
    assert check_four_point(glued.tree)
    for i in range(exc.n):
        for j in range(exc.n):
            want = excursion_distance(exc, i, j)
            got = glued.tree.distance(
                int(glued.class_of[i]), int(glued.class_of[j]))
            assert got == pytest.approx(want, abs=1e-10)
    return glued


class TestGlue:
    def test_tent(self):
        exc = Excursion(np.array([0.0, 0.5, 0.0]), step=0.5)
        glued = glue_excursion(exc)
        tree, measure = glued
        assert tree.n == 2
        assert tree.root == 0
        assert tree.distance(0, 1) == pytest.approx(0.5, abs=1e-12)
        assert measure.masses[0] == pytest.approx(1.0, abs=1e-12)
        assert measure.masses[1] == pytest.approx(0.5, abs=1e-12)

    def test_flat_collapses_to_point(self):
        exc = Excursion(np.zeros(3), step=0.25)
        glued = glue_excursion(exc)
        assert glued.tree.n == 1
        assert glued.measure.masses[0] == pytest.approx(0.75, abs=1e-12)
        assert list(glued.class_of) == [0, 0, 0]

    def test_one_sided_matches_definition(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            assert_glued_matches_definition(
                Excursion(lattice_excursion(int(rng.integers(2, 9)), rng),
                          step=0.5))
        # samples that drop past open levels: uniform heights, small
        # integers with ties and jumps, and the smallest such case
        for _ in range(25):
            s = rng.uniform(0.0, 1.0, size=int(rng.integers(3, 16)))
            s[0] = s[-1] = 0.0
            assert_glued_matches_definition(Excursion(s, step=0.5))
            s = rng.integers(0, 4, size=int(rng.integers(3, 16))).astype(float)
            s[0] = s[-1] = 0.0
            assert_glued_matches_definition(Excursion(s, step=0.5))
        glued = assert_glued_matches_definition(
            Excursion(np.array([0.0, 3.0, 1.0, 0.0]), step=1.0))
        assert glued.tree.distance(
            int(glued.class_of[1]), int(glued.class_of[2])) == pytest.approx(2.0)

    def test_two_sided_matches_definition(self):
        for n in (1, 3, 9, 27, 64):
            sample = kesten_excursion(n, seed=2024)
            assert_glued_matches_definition(sample.excursion, sample.glued)
        rng = np.random.default_rng(43)
        for _ in range(25):
            size = int(rng.integers(3, 16))
            origin = int(rng.integers(1, size))
            s = rng.uniform(0.0, 1.0, size=size)
            s[origin] = 0.0
            assert_glued_matches_definition(Excursion(s, 0.5, origin=origin))
            s = rng.integers(0, 4, size=size).astype(float)
            s[origin] = 0.0
            assert_glued_matches_definition(Excursion(s, 0.5, origin=origin))
        exc = Excursion(np.array([3.0, 1.0, 2.0, 0.0, 2.0, 0.0, 3.0, 1.0]),
                        step=0.5, origin=3)
        glued = assert_glued_matches_definition(exc)
        assert glued.class_of[exc.origin] == glued.tree.root

    def test_mass_is_step_per_knot(self):
        rng = np.random.default_rng(3)
        exc = Excursion(lattice_excursion(int(rng.integers(2, 9)), rng),
                        step=0.125)
        glued = glue_excursion(exc)
        assert glued.measure.masses.sum() == pytest.approx(
            0.125 * exc.n, abs=1e-12)
        counts = np.bincount(glued.class_of, minlength=glued.tree.n)
        np.testing.assert_allclose(glued.measure.masses, 0.125 * counts)

    def test_root_is_origin_class(self):
        sample = kesten_excursion(9, seed=5)
        exc, glued = sample.excursion, sample.glued
        assert glued.class_of[exc.origin] == glued.tree.root

    def test_validation(self):
        with pytest.raises(FamilyError):
            Excursion(np.array([0.0, -0.1, 0.0]), step=1.0)
        with pytest.raises(FamilyError):
            Excursion(np.array([0.0, 1.0]), step=1.0)          # end not 0
        with pytest.raises(FamilyError):
            Excursion(np.array([1.0, 0.0, 1.0]), step=1.0)     # origin not 0
        with pytest.raises(FamilyError):
            Excursion(np.array([0.0, 1.0, 0.0]), step=0.0)
        with pytest.raises(FamilyError):
            Excursion(np.array([0.0, 1.0, 0.0]), step=1.0, origin=5)
        with pytest.raises(FamilyError):
            Excursion(np.array([]), step=1.0)
        # a two-sided excursion only needs height 0 at the origin
        Excursion(np.array([2.0, 0.0, 1.0]), step=1.0, origin=1)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_step_must_be_finite(self, step):
        with pytest.raises(FamilyError, match="step"):
            Excursion(np.array([0.0, 1.0, 0.0]), step=step)

    def test_cross_side_distance_uses_complement(self):
        # heights 2,0,1 around origin 1: outer infima are the endpoints
        exc = Excursion(np.array([2.0, 0.0, 1.0]), step=1.0, origin=1)
        assert excursion_distance(exc, 0, 2) == pytest.approx(3.0 - 2.0)
        glued = glue_excursion(exc)
        d = glued.tree.distance(int(glued.class_of[0]), int(glued.class_of[2]))
        assert d == pytest.approx(1.0, abs=1e-12)


class TestKesten:
    def test_reflection(self):
        np.testing.assert_allclose(reflect_path([0.0, -1.0]), [0.0, 1.0])
        np.testing.assert_allclose(
            reflect_path([0.0, -1.0, -2.0, -1.0]), [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            reflect_path([0.0, 1.0, 0.0, -1.0]), [0.0, 1.0, 0.0, 1.0])
        with pytest.raises(FamilyError):
            reflect_path([1.0, 2.0])

    def test_scaling(self):
        n = 64
        sample = kesten_excursion(n, seed=77)
        exc = sample.excursion
        wing = math.ceil(n ** (2.0 / 3.0))
        assert exc.origin == wing
        assert exc.n == 2 * wing + 1
        assert exc.step == pytest.approx(n ** (-2.0 / 3.0))
        # heights live on the n^(-1/3) lattice
        lattice = exc.samples * n ** (1.0 / 3.0)
        np.testing.assert_allclose(lattice, np.round(lattice), atol=1e-9)

    def test_degree_measure_scale(self):
        n = 27
        sample = kesten_excursion(n, seed=8)
        base = degree_measure(sample.glued.tree, scale=1.0)
        np.testing.assert_allclose(
            sample.degree.masses, base.masses * n ** (-2.0 / 3.0))

    def test_deterministic_in_seed(self):
        a = kesten_excursion(30, seed=99)
        b = kesten_excursion(30, seed=99)
        np.testing.assert_array_equal(a.excursion.samples, b.excursion.samples)
        assert a.glued.tree.n == b.glued.tree.n

    def test_single_step(self):
        sample = kesten_excursion(1, seed=0)
        np.testing.assert_allclose(sample.excursion.samples, [1.0, 0.0, 1.0])
        assert sample.glued.tree.n == 2
        assert sample.glued.measure.masses[sample.glued.tree.root] == 1.0

    def test_bad_args(self):
        with pytest.raises(FamilyError):
            kesten_excursion(0, seed=1)
        with pytest.raises(FamilyError):
            kesten_excursion(5, seed=1, horizon=0.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_horizon_must_be_finite(self, horizon):
        with pytest.raises(FamilyError, match="horizon"):
            kesten_excursion(5, seed=1, horizon=horizon)

    def test_n_must_be_an_integer(self):
        with pytest.raises(FamilyError, match="n must be an integer"):
            kesten_excursion(2.5, seed=1)


class TestGWConditioned:
    def test_smallest_tree(self):
        sample = gw_conditioned(offspring_geometric(), 2, seed=1)
        tree = sample.tree
        assert tree.n == 2
        assert tree.edge_length[1] == pytest.approx(math.sqrt(2.0) / math.sqrt(2.0))
        np.testing.assert_allclose(sample.degree.masses, [0.25, 0.25])
        np.testing.assert_allclose(sample.skeleton.masses, [0.0, 1.0])

    def test_handshake_and_totals(self):
        for law in (offspring_geometric(), offspring_poisson()):
            for n in (2, 5, 12, 30):
                sample = gw_conditioned(law, n, seed=100 + n)
                tree = sample.tree
                deg = [len(tree.children(v)) + (0 if v == tree.root else 1)
                       for v in range(n)]
                assert sum(deg) == 2 * (n - 1)
                assert sample.degree.masses.sum() == pytest.approx(
                    (n - 1) / n, abs=1e-15)
                assert sample.skeleton.masses.sum() == pytest.approx(1.0)
                assert all(tree.edge_length[v] == pytest.approx(
                    law.sigma / math.sqrt(n)) for v in range(1, n))

    def test_exit_rates_are_constant(self):
        # conductance 1/edge and mass deg/(2n) force exit rate n^(3/2)/sigma
        for law in (offspring_geometric(), offspring_poisson()):
            sample = gw_conditioned(law, 15, seed=7)
            chain = build_chain(sample.tree, sample.degree)
            want = 15 ** 1.5 / law.sigma
            for u in range(chain.n_states):
                assert chain.exit_rate[u] == pytest.approx(want, rel=1e-12)

    def test_bad_size(self):
        with pytest.raises(FamilyError):
            gw_conditioned(offspring_geometric(), 1, seed=0)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(FamilyError, match="n must be an integer"):
            gw_conditioned(offspring_geometric(), n, seed=0)

    @pytest.mark.parametrize("law", [offspring_geometric(), offspring_poisson()],
                             ids=lambda law: law.name)
    def test_plane_tree_law_at_five_vertices(self, law):
        # the 14 plane trees on 5 vertices, as preorder child counts, with
        # the conditioned law prod_i P(k_i): uniform for the geometric law,
        # proportional to prod_i 1/k_i! for the Poisson law
        trees = [c for c in itertools.product(range(5), repeat=5)
                 if sum(c) == 4 and min(np.cumsum(np.array(c) - 1)[:-1]) >= 0]
        assert len(trees) == 14
        weight = np.array([1.0 if law.name == "geometric" else
                           1.0 / math.prod(math.factorial(k) for k in c)
                           for c in trees])
        draws = 4000
        rng = np.random.default_rng(2024)
        seen = {c: 0 for c in trees}
        for _ in range(draws):
            tree = gw_conditioned(law, 5, rng).tree
            assert all(tree.parent[v] < v for v in range(1, 5))    # preorder
            seen[tuple(len(tree.children(v)) for v in range(5))] += 1
        stat, _ = stats.chisquare(list(seen.values()),
                                  draws * weight / weight.sum())
        assert stat <= stats.chi2.ppf(0.999, df=13), stat

    def test_large_size(self):
        # about one unconditioned tree in 10^8 has this size
        sample = gw_conditioned(offspring_geometric(), 100_000, seed=4)
        assert sample.tree.n == 100_000
        assert sample.degree.masses.sum() == pytest.approx(0.99999, rel=1e-12)

    def test_unknown_law_is_rejected(self):
        with pytest.raises(FamilyError, match="unknown offspring law 'custom'"):
            OffspringLaw("custom", 0.5)

    def test_deterministic_in_seed(self):
        a = gw_conditioned(offspring_poisson(), 9, seed=55)
        b = gw_conditioned(offspring_poisson(), 9, seed=55)
        assert list(a.tree.parent) == list(b.tree.parent)


class TestLatticeExcursion:
    @pytest.mark.parametrize("k, paths", [(3, 5), (4, 14)])
    def test_uniform_over_dyck_paths(self, k, paths):
        draws = 4000
        rng = np.random.default_rng(11)
        seen = {}
        for _ in range(draws):
            w = lattice_excursion(k, rng)
            seen[tuple(w)] = seen.get(tuple(w), 0) + 1
        assert len(seen) == paths
        stat, _ = stats.chisquare(list(seen.values()))
        assert stat <= stats.chi2.ppf(0.999, df=paths - 1), stat

    def test_long_path_is_an_excursion(self):
        w = lattice_excursion(8192, seed=3)
        assert w.size == 2 * 8192 + 1
        assert w[0] == 0.0 and w[-1] == 0.0 and w.min() >= 0.0
        np.testing.assert_array_equal(np.abs(np.diff(w)), 1.0)

    @pytest.mark.parametrize("half_steps, message", [
        (2.5, "half_steps must be an integer"),
        (True, "half_steps must be an integer"),
        (0, "half_steps must be at least 1"),
        (-3, "half_steps must be at least 1"),
    ])
    def test_half_steps_validated(self, half_steps, message):
        with pytest.raises(FamilyError, match=message):
            lattice_excursion(half_steps, seed=1)


class TestFixedFamilies:
    def test_binary_small(self):
        tree, measure = binary_tree(1)
        assert tree.n == 3
        np.testing.assert_allclose(
            measure.masses, [1.0, math.exp(-1.0), math.exp(-1.0)])

    def test_binary_levels(self):
        tree, measure = binary_tree(4)
        assert tree.n == 2 ** 5 - 1
        levels = np.bincount(tree.depth.astype(int))
        np.testing.assert_array_equal(levels, [2 ** k for k in range(5)])
        for v in range(tree.n):
            assert measure.masses[v] == pytest.approx(math.exp(-tree.depth[v]))

    def test_binary_depth_cap(self):
        with pytest.raises(FamilyError):
            binary_tree(0)
        with pytest.raises(FamilyError):
            binary_tree(21)


class TestCoalescent:
    def test_spec_validation(self):
        with pytest.raises(FamilyError):
            CoalescentSpec.kingman(1)
        with pytest.raises(FamilyError):
            CoalescentSpec.beta(4, 0.0, 1.0)
        with pytest.raises(FamilyError):
            CoalescentSpec.point_masses(4, [(1.5, 1.0)])
        with pytest.raises(FamilyError):
            CoalescentSpec.point_masses(4, [])
        with pytest.raises(FamilyError):
            CoalescentSpec("weird", 4)

    def test_merge_rate_kingman(self):
        spec = CoalescentSpec.kingman(6)
        assert merge_rate(spec, 2, 6) == 1.0
        for k in range(3, 7):
            assert merge_rate(spec, k, 6) == 0.0
        with pytest.raises(FamilyError):
            merge_rate(spec, 1, 6)
        with pytest.raises(FamilyError):
            merge_rate(spec, 7, 6)

    def test_merge_rate_beta_matches_quadrature(self):
        spec = CoalescentSpec.beta(8, 1.7, 0.6)
        dens = stats.beta(1.7, 0.6).pdf
        for b in (3, 5, 8):
            for k in range(2, b + 1):
                want, _ = integrate.quad(
                    lambda x: dens(x) * x ** (k - 2) * (1 - x) ** (b - k), 0, 1)
                assert merge_rate(spec, k, b) == pytest.approx(want, rel=1e-7)

    def test_merge_rate_uniform_closed_form(self):
        spec = CoalescentSpec.beta(5, 1.0, 1.0)
        for b in (2, 4, 7):
            for k in range(2, b + 1):
                want = (math.factorial(k - 2) * math.factorial(b - k)
                        / math.factorial(b - 1))
                assert merge_rate(spec, k, b) == pytest.approx(want, rel=1e-12)

    def test_merge_rate_atoms(self):
        spec = CoalescentSpec.point_masses(5, [(0.5, 2.0), (1.0, 0.5)])
        # at x=1 only the full merger survives (0^0 = 1 at k=b)
        assert merge_rate(spec, 2, 2) == pytest.approx(2.0 + 0.5)
        assert merge_rate(spec, 2, 3) == pytest.approx(2.0 * 0.5)
        assert merge_rate(spec, 3, 3) == pytest.approx(2.0 * 0.5 + 0.5)

    @pytest.mark.parametrize("spec", [
        CoalescentSpec.beta(5, 1.0, 1.0),
        CoalescentSpec.beta(5, 1.7, 0.6),
        CoalescentSpec.point_masses(5, [(0.6, 2.0)]),
        CoalescentSpec.point_masses(5, [(0.3, 1.0), (0.8, 2.0), (1.0, 0.5)])])
    def test_log_space_weights_match_the_exact_products(self, spec):
        # comb(b, k) * merge_rate overflows from b = 1,030; below that it is
        # finite.  A rate that underflows to a subnormal keeps only a few
        # bits, so the comparison takes the rates that are normal floats.
        for b in [*range(2, 40), *range(40, 1030, 71), 1029]:
            got = _merge_weights(spec, b)
            want = np.array([math.comb(b, k) * merge_rate(spec, k, b)
                             for k in range(2, b + 1)])
            rates = np.array([merge_rate(spec, k, b) for k in range(2, b + 1)])
            ok = rates >= np.finfo(float).tiny
            assert ok.sum() >= min(b - 1, 30)
            assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * want[ok]), b

    def test_weights_with_one_nonzero_rate_are_exact(self):
        for b in (2, 3, 10, 1029):
            for spec in (CoalescentSpec.kingman(b),
                         CoalescentSpec.point_masses(b, [(1.0, 3.0)])):
                want = [float(math.comb(b, k) * merge_rate(spec, k, b))
                        for k in range(2, b + 1)]
                assert _merge_weights(spec, b).tolist() == want

    @pytest.mark.parametrize("spec", [
        CoalescentSpec.kingman(1030),
        CoalescentSpec.beta(1030, 1.0, 1.0),
        CoalescentSpec.point_masses(1030, [(0.5, 1.0)])])
    def test_genealogy_at_1030_leaves(self, spec):
        ct = coalescent_tree(spec, seed=3)
        depth = ct.tree.height[:1030]
        assert ct.tree.n > 1030 and np.ptp(depth) <= 1e-9 * depth[0]
        assert depth[0] == pytest.approx(ct.events[-1][0] / 2.0, rel=1e-12)

    def test_cherry(self):
        ct = coalescent_tree(CoalescentSpec.kingman(2), seed=4)
        tree = ct.tree
        assert tree.n == 3
        assert tree.root == 2
        t = ct.events[0][0]
        assert tree.distance(0, 1) == pytest.approx(t, abs=1e-12)
        assert tree.height[0] == pytest.approx(t / 2.0)

    def test_leaves_at_common_depth(self):
        for spec in (CoalescentSpec.kingman(8),
                     CoalescentSpec.beta(8, 1.5, 1.0),
                     CoalescentSpec.point_masses(8, [(0.4, 1.0)])):
            ct = coalescent_tree(spec, seed=10)
            tree = ct.tree
            half = tree.height[0]
            for leaf in ct.leaves:
                assert tree.height[leaf] == pytest.approx(half, abs=1e-9)
            d2 = ct.events[-1][0] / 2.0
            assert half == pytest.approx(d2, abs=1e-9)

    def test_distance_is_first_common_block_time(self):
        ct = coalescent_tree(CoalescentSpec.beta(10, 1.2, 0.8), seed=21)
        members = {v: {v} for v in ct.leaves}
        joined = {}
        for t, merged, new in ct.events:
            group = set().union(*(members.pop(v) for v in merged))
            for i in group:
                for j in group:
                    if i < j and (i, j) not in joined:
                        joined[(i, j)] = t
            members[new] = group
        for (i, j), t in joined.items():
            assert ct.tree.distance(i, j) == pytest.approx(t, abs=1e-9)

    def test_ultrametric_triples(self):
        ct = coalescent_tree(CoalescentSpec.kingman(7), seed=30)
        tree = ct.tree
        import itertools
        for i, j, k in itertools.combinations(range(7), 3):
            d = sorted([tree.distance(i, j), tree.distance(i, k),
                        tree.distance(j, k)])
            assert d[1] == pytest.approx(d[2], abs=1e-9)

    def test_events_merge_everything(self):
        ct = coalescent_tree(CoalescentSpec.point_masses(6, [(1.0, 3.0)]),
                             seed=2)
        # full mergers only: a single event swallows all six leaves
        assert len(ct.events) == 1
        assert len(ct.events[0][1]) == 6
        assert ct.tree.n == 7

    def test_speed_measure_cherry(self):
        ct = coalescent_tree(CoalescentSpec.kingman(2), seed=4)
        atom = coalescent_speed_measure(ct, "branch-atomic")
        np.testing.assert_allclose(atom.masses, [0.0, 0.0, 1.0])
        dens = coalescent_speed_measure(ct, "skeleton-density")
        half = ct.tree.height[0]
        np.testing.assert_allclose(dens.masses, [half / 2, half / 2, 0.0])

    def test_speed_measure_consistency(self):
        ct = coalescent_tree(CoalescentSpec.kingman(9), seed=17)
        tree = ct.tree
        dens = coalescent_speed_measure(ct, "skeleton-density")
        atom = coalescent_speed_measure(ct, "branch-atomic")
        # leaf fractions by hand
        below = np.zeros(tree.n)
        for leaf in ct.leaves:
            for v in tree.ancestors(leaf):
                below[v] += 1.0
        frac = below / 9
        for v in range(tree.n):
            if v == tree.root:
                assert dens.masses[v] == 0.0
                assert atom.masses[v] == 1.0
            else:
                want = frac[v] * tree.edge_length[v]
                assert dens.masses[v] == pytest.approx(want, rel=1e-12)
                if v >= 9:
                    assert atom.masses[v] == pytest.approx(want, rel=1e-12)
                else:
                    assert atom.masses[v] == 0.0
        # density never exceeds 1, so totals are below total edge length + atom
        total_len = sum(tree.edge_length[v] for v in range(tree.n)
                        if v != tree.root)
        assert dens.masses.sum() <= total_len + 1e-12
        assert atom.masses.sum() <= total_len + 1.0 + 1e-12
        with pytest.raises(FamilyError):
            coalescent_speed_measure(ct, "nope")
        with pytest.raises(FamilyError):
            coalescent_speed_measure(ct.tree, "branch-atomic")

    @pytest.mark.parametrize("spec", [CoalescentSpec.kingman(30),
                                      CoalescentSpec.beta(25, 1.2, 0.8),
                                      CoalescentSpec.point_masses(20, [(0.6, 2.0)])])
    def test_speed_measure_bits_from_leaf_counts(self, spec):
        ct = coalescent_tree(spec, seed=5)
        tree, n = ct.tree, ct.n_leaves
        below = np.zeros(tree.n)
        for leaf in ct.leaves:
            below[tree.ancestors(leaf)] += 1.0
        want = below / n * tree.edge_length
        dens = coalescent_speed_measure(ct, "skeleton-density")
        atom = coalescent_speed_measure(ct, "branch-atomic")
        assert dens.masses.tolist() == want.tolist()
        want[:n] = 0.0
        want[tree.root] = 1.0
        assert atom.masses.tolist() == want.tolist()

    def test_leaf_fraction_monotone_to_root(self):
        ct = coalescent_tree(CoalescentSpec.beta(12, 2.0, 2.0), seed=8)
        tree = ct.tree
        dens = coalescent_speed_measure(ct, "skeleton-density")
        frac = np.array([dens.masses[v] / tree.edge_length[v]
                         if v != tree.root else 1.0 for v in range(tree.n)])
        for v in range(tree.n):
            if v != tree.root:
                assert frac[v] <= frac[tree.parent[v]] + 1e-12

    def test_kingman_first_holding_time(self):
        # with 6 blocks the first merger happens at rate C(6,2) = 15
        spec = CoalescentSpec.kingman(6)
        times = [coalescent_tree(spec, seed=(5000 + r)).events[0][0]
                 for r in range(4000)]
        mean = float(np.mean(times))
        se = float(np.std(times, ddof=1)) / math.sqrt(len(times))
        assert abs(mean - 1.0 / 15.0) < 4.0 * se

    def test_deterministic_in_seed(self):
        a = coalescent_tree(CoalescentSpec.beta(7, 1.1, 0.9), seed=33)
        b = coalescent_tree(CoalescentSpec.beta(7, 1.1, 0.9), seed=33)
        assert a.events == b.events
        assert list(a.tree.parent) == list(b.tree.parent)
