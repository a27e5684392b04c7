"""Tests for the tree family generators."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from treeflow.families import (
    CoalescentSpec,
    Excursion,
    FamilyError,
    OffspringLaw,
    binary_tree,
    coalescent_speed_measure,
    coalescent_tree,
    degree_measure,
    excursion_distance,
    glue_excursion,
    gw_conditioned,
    kesten_excursion,
    merge_rate,
    offspring_geometric,
    offspring_poisson,
    reflect_path,
)
from treeflow.tree import check_four_point
from treeflow.walk import build_chain


def lattice_excursion(rng, max_half=8):
    # rejection-sample a nonnegative +-1 bridge
    while True:
        length = 2 * int(rng.integers(2, max_half + 1))
        inc = rng.integers(0, 2, size=length) * 2 - 1
        w = np.concatenate([[0], np.cumsum(inc)]).astype(float)
        if w[-1] == 0 and np.all(w >= 0):
            return w


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
                Excursion(lattice_excursion(rng), step=0.5))
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
        exc = Excursion(lattice_excursion(rng), step=0.125)
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

    def test_attempt_cap_raises(self):
        # one attempt at this seed does not reach 40 vertices exactly
        with pytest.raises(FamilyError, match="no tree of size 40 in 1 attempts"):
            gw_conditioned(offspring_geometric(), 40, seed=2, max_attempts=1)

    def test_bad_size(self):
        with pytest.raises(FamilyError):
            gw_conditioned(offspring_geometric(), 1, seed=0)

    def test_unknown_law_is_rejected(self):
        with pytest.raises(FamilyError, match="unknown offspring law 'custom'"):
            OffspringLaw("custom", 0.5)

    def test_deterministic_in_seed(self):
        a = gw_conditioned(offspring_poisson(), 9, seed=55)
        b = gw_conditioned(offspring_poisson(), 9, seed=55)
        assert list(a.tree.parent) == list(b.tree.parent)
        assert a.attempts == b.attempts


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
