"""Closed forms against independent linear-algebra and matrix-exponential oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

from treeflow.exact import (
    AtomLaw,
    OracleError,
    atom_law,
    capacity,
    capacity_variational,
    expected_hitting,
    green_kernel,
    harmonic_extension,
    heat_kernel,
    hit_bound,
    hitting_prob,
    occupation_functional,
    occupation_solve,
    speed_bound,
    tree_energy,
)
from treeflow.harness import stone_level
from treeflow.tree import SpeedMeasure, build_tree
from treeflow.walk import StopRule, batch_simulate, build_chain
from conftest import path_tree, random_masses, random_tree


def dense_generator(chain):
    n = chain.n_states
    q = np.zeros((n, n))
    for i in range(n):
        for j, r in zip(chain.nbr[i], chain.rates[i]):
            q[i, int(j)] = r
        q[i, i] = -chain.exit_rate[i]
    return q


class TestOccupation:
    def test_path_kernel_values(self):
        t = path_tree([1.0, 1.0])
        # from 2, killed at 0: time density doubles the distance to the median
        assert green_kernel(t, 2, 0, 2) == pytest.approx(4.0)
        assert green_kernel(t, 2, 0, 1) == pytest.approx(2.0)
        assert green_kernel(t, 1, 0, 2) == pytest.approx(2.0)

    def test_kernel_symmetric_in_endpoints(self, rng):
        t = random_tree(rng, 14)
        for _ in range(40):
            x, y, z = rng.integers(0, 14, size=3)
            if y in (x, z):
                continue
            assert green_kernel(t, int(x), int(y), int(z)) == pytest.approx(
                green_kernel(t, int(z), int(y), int(x)), abs=1e-12)

    def test_closed_form_matches_linear_system(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 12))
            t = random_tree(rng, n)
            m = random_masses(rng, n)
            chain = build_chain(t, m)
            f = rng.uniform(0.0, 2.0, size=n)
            x, y = rng.choice(n, size=2, replace=False)
            want = occupation_functional(t, m, int(x), int(y), f)
            got = occupation_solve(chain, int(x), int(y), f)
            assert got == pytest.approx(want, rel=1e-9)

    def test_expected_hitting_is_unit_occupation(self, rng):
        t = random_tree(rng, 9)
        m = random_masses(rng, 9)
        chain = build_chain(t, m)
        assert expected_hitting(chain, 3, 0) == pytest.approx(
            occupation_functional(t, m, 3, 0), rel=1e-10)

    def test_commute_style_bound(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 10))
            t = random_tree(rng, n)
            m = random_masses(rng, n)
            x, y = rng.choice(n, size=2, replace=False)
            e = occupation_functional(t, m, int(x), int(y))
            assert e <= 2.0 * m.total * t.distance(int(x), int(y)) + 1e-9

    def test_occupation_at_target_is_zero(self):
        t = path_tree([1.0, 1.0])
        m = SpeedMeasure([1.0, 1.0, 1.0])
        chain = build_chain(t, m)
        assert occupation_solve(chain, 0, 0) == 0.0
        assert green_kernel(t, 2, 0, 0) == 0.0


class TestScaleAndCapacity:
    def test_path_midpoint(self):
        t = path_tree([1.0, 1.0])
        assert hitting_prob(t, 1, 0, 2) == pytest.approx(0.5)
        assert hitting_prob(t, 0, 0, 2) == pytest.approx(1.0)
        assert hitting_prob(t, 2, 0, 2) == pytest.approx(0.0)

    def test_requires_segment(self):
        t = build_tree({1: 0, 2: 0, 3: 0}, {1: 1.0, 2: 1.0, 3: 1.0}, root=0)
        with pytest.raises(OracleError):
            hitting_prob(t, 3, 1, 2)
        with pytest.raises(OracleError):
            hitting_prob(t, 1, 2, 2)

    def test_scale_against_simulation(self):
        t = path_tree([0.5, 1.5, 1.0])
        m = SpeedMeasure([1.0, 0.4, 2.0, 1.0])
        chain = build_chain(t, m)
        p = hitting_prob(t, 1, 0, 3)
        s = batch_simulate(chain, 1, StopRule(hitting=frozenset({0, 3})),
                           replicates=4000, master_seed=2718)
        freq = np.mean([e == 0 for e in s.endpoints])
        se = math.sqrt(p * (1 - p) / 4000)
        assert abs(freq - p) <= 3.5 * se

    def test_capacity_closed_form(self):
        t = path_tree([1.0, 1.0, 1.0])
        assert capacity(t, 0, 3) == pytest.approx(1.0 / 6.0)
        with pytest.raises(OracleError):
            capacity(t, 1, 1)

    def test_capacity_equals_minimal_energy(self, rng):
        for _ in range(15):
            n = int(rng.integers(3, 12))
            t = random_tree(rng, n)
            y, z = rng.choice(n, size=2, replace=False)
            assert capacity_variational(t, int(y), int(z)) == pytest.approx(
                capacity(t, int(y), int(z)), rel=1e-10)

    def test_harmonic_extension_is_scale_linear(self):
        t = path_tree([2.0, 1.0, 1.0])
        h = harmonic_extension(t, {0: 0.0, 3: 1.0})
        assert h[1] == pytest.approx(2.0 / 4.0)
        assert h[2] == pytest.approx(3.0 / 4.0)

    def test_harmonic_extension_below_any_competitor(self, rng):
        t = random_tree(rng, 10)
        h = harmonic_extension(t, {2: 1.0, 7: 0.0})
        base = tree_energy(t, h)
        for _ in range(10):
            g = rng.normal(size=10)
            g[2], g[7] = 1.0, 0.0
            assert base <= tree_energy(t, g) + 1e-12

    def test_unit_edge_energy(self):
        t = path_tree([1.0])
        assert tree_energy(t, [0.0, 1.0]) == pytest.approx(0.5)


class TestAtomLaw:
    def test_cdf_shape(self):
        law = AtomLaw(zero_weight=0.25, exp_mean=2.0)
        assert law.cdf(-1.0) == 0.0
        assert law.cdf(0.0) == pytest.approx(0.25)
        assert law.cdf(1e9) == pytest.approx(1.0)
        assert law.mean == pytest.approx(0.75 * 2.0)

    def test_matches_occupation_mean(self, rng):
        # mean of the law is the exact expected passage time when the
        # measure really is a single atom plus the absorbing endpoint
        for lengths in ([1.0, 1.0], [0.3, 2.2], [1.7, 0.4]):
            t = path_tree(lengths)   # u=0, w=1, v=2
            mu = float(rng.uniform(0.5, 2.0))
            m = SpeedMeasure([mu, 0.0, 1.0])
            law = atom_law(t, m, w=1, u=0, v=2)
            assert law.zero_weight == pytest.approx(lengths[0] / sum(lengths))
            assert law.exp_mean == pytest.approx(2.0 * sum(lengths) * mu)
            want = occupation_functional(t, m, 1, 2)
            assert law.mean == pytest.approx(want, rel=1e-12)

    def test_sampler_respects_weight(self, rng):
        law = AtomLaw(zero_weight=0.4, exp_mean=1.5)
        s = law.sample(rng, 20000)
        assert abs((s == 0.0).mean() - 0.4) <= 4 * math.sqrt(0.4 * 0.6 / 20000)
        pos = s[s > 0]
        se = pos.std(ddof=1) / math.sqrt(len(pos))
        assert abs(pos.mean() - 1.5) <= 4 * se

    def test_preconditions(self):
        t = path_tree([1.0, 1.0])
        with pytest.raises(OracleError):
            atom_law(t, SpeedMeasure([0.0, 1.0, 1.0]), w=1, u=0, v=2)
        y = build_tree({1: 0, 2: 0, 3: 0}, {1: 1.0, 2: 1.0, 3: 1.0}, root=0)
        with pytest.raises(OracleError):
            atom_law(y, SpeedMeasure([1.0] * 4), w=3, u=1, v=2)


class TestBounds:
    def test_hit_bound_dominates_simulation(self):
        t = path_tree([1.0, 1.0, 1.0, 1.0])
        m = SpeedMeasure([1.0, 0.8, 1.2, 1.0, 1.0])
        chain = build_chain(t, m)
        horizon, delta = 0.4, 0.9
        bound = hit_bound(t, m, 0, 4, horizon, delta)
        s = batch_simulate(chain, 0, StopRule(horizon=horizon, hitting=frozenset({4})),
                           replicates=3000, master_seed=424242)
        freq = np.mean([r == "hit" for r in s.stop_reasons])
        se = math.sqrt(max(freq * (1 - freq), 1e-6) / 3000)
        assert freq <= bound + 3 * se

    def test_hit_bound_monotone_in_time(self):
        t = path_tree([1.0, 1.0])
        m = SpeedMeasure([1.0, 1.0, 1.0])
        vals = [hit_bound(t, m, 0, 2, s, 0.5) for s in (0.1, 0.5, 2.0, 10.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 2.0 for v in vals)

    def test_hit_bound_preconditions(self):
        t = path_tree([1.0, 1.0])
        m = SpeedMeasure([1.0, 1.0, 1.0])
        with pytest.raises(OracleError):
            hit_bound(t, m, 0, 2, 1.0, delta=0.0)
        with pytest.raises(OracleError):
            hit_bound(t, m, 0, 1, 1.0, delta=1.5)

    def test_speed_bound_window(self):
        t = path_tree([1.0, 1.0])
        m = SpeedMeasure([1.0, 1.0, 1.0])
        assert speed_bound(t, m, 0, 0.1, eps=1.5, delta=1.5) == math.inf
        assert speed_bound(t, m, 0, 10.0, eps=1.5, delta=0.5) == math.inf
        val = speed_bound(t, m, 0, 0.05, eps=1.5, delta=0.5)
        assert 0.0 <= val < math.inf

    def test_speed_bound_dominates_simulation(self):
        t = path_tree([0.5, 0.5, 0.5, 0.5])
        m = SpeedMeasure([1.0, 1.0, 1.0, 1.0, 1.0])
        chain = build_chain(t, m)
        eps, delta, horizon = 1.2, 0.6, 0.2
        bound = speed_bound(t, m, 0, horizon, eps, delta)
        assert bound < math.inf
        s = batch_simulate(chain, 0, StopRule(horizon=horizon, radius=eps),
                           replicates=3000, master_seed=31415)
        freq = np.mean([r == "boundary" for r in s.stop_reasons])
        se = math.sqrt(max(freq * (1 - freq), 1e-6) / 3000)
        assert freq <= bound + 3 * se


class TestHeatKernel:
    def test_two_state_closed_form(self):
        t = path_tree([1.0])
        chain = build_chain(t, SpeedMeasure([1.0, 1.0]))
        times = [0.0, 0.3, 1.0, 4.0]
        hk = heat_kernel(chain, 0, times)
        for s in times:
            assert hk.prob(s, 0) == pytest.approx((1 + math.exp(-s)) / 2, abs=1e-12)

    def test_matches_matrix_exponential(self, rng):
        for _ in range(8):
            n = int(rng.integers(3, 8))
            t = random_tree(rng, n)
            m = random_masses(rng, n)
            chain = build_chain(t, m)
            q = dense_generator(chain)
            for s in (0.2, 1.0, 3.7):
                hk = heat_kernel(chain, int(chain.states[0]), [s])
                want = scipy.linalg.expm(q * s)[0]
                assert np.allclose(hk.law(s), want, atol=1e-9)

    def test_chapman_kolmogorov(self, rng):
        t = random_tree(rng, 6)
        m = random_masses(rng, 6)
        chain = build_chain(t, m)
        a, b = 0.7, 1.3
        rows_a = np.array([heat_kernel(chain, v, [a]).laws[0] for v in range(6)])
        rows_b = np.array([heat_kernel(chain, v, [b]).laws[0] for v in range(6)])
        rows_ab = np.array([heat_kernel(chain, v, [a + b]).laws[0] for v in range(6)])
        assert np.allclose(rows_a @ rows_b, rows_ab, atol=1e-10)

    def test_reversibility_symmetry(self, rng):
        t = random_tree(rng, 7)
        m = random_masses(rng, 7)
        chain = build_chain(t, m)
        s = 0.9
        for x in range(7):
            hk = heat_kernel(chain, x, [s])
            for y in range(7):
                other = heat_kernel(chain, y, [s])
                assert hk.kernel(s, y) == pytest.approx(other.kernel(s, x), rel=1e-8)

    def test_mass_and_long_time_limit(self, rng):
        t = random_tree(rng, 8)
        m = random_masses(rng, 8)
        chain = build_chain(t, m)
        hk = heat_kernel(chain, 0, [500.0])
        assert hk.mass_defect() <= 1e-10
        stat = chain.mass / chain.total_mass
        assert np.allclose(hk.law(500.0), stat, atol=1e-8)

    def test_large_rate_no_underflow(self):
        # exit rates around 1e4 and t = 30 push the series past 3e5 terms
        t = path_tree([1e-3, 1e-3, 1e-3])
        m = SpeedMeasure([0.1, 0.1, 0.1, 0.1])
        chain = build_chain(t, m)
        hk = heat_kernel(chain, 0, [30.0])
        stat = chain.mass / chain.total_mass
        assert np.allclose(hk.law(30.0), stat, atol=1e-6)
        assert hk.mass_defect() <= 1e-10

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_non_finite_time_rejected(self, bad):
        chain = build_chain(path_tree([1.0]), SpeedMeasure([1.0, 1.0]))
        with pytest.raises(OracleError, match=repr(bad)):
            heat_kernel(chain, 0, [0.5, bad])

    def test_stalled_series_terminates(self):
        # at L t ~ 8598 the Poisson sum stalls just below 1 - 1e-12 in
        # floating point while the weights underflow to zero
        tree, measure, _ = stone_level(16)
        chain = build_chain(tree, measure)
        hk = heat_kernel(chain, tree.root, (0.25, 1.0))
        a = hk.uniformization_rate * 1.0
        assert hk.terms <= a + 39.0 * math.sqrt(a) + 499.0
        assert np.allclose(hk.laws.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_l2_norm_below_ceiling(self, rng):
        for _ in range(6):
            n = int(rng.integers(3, 9))
            t = random_tree(rng, n)
            m = random_masses(rng, n)
            chain = build_chain(t, m)
            hk = heat_kernel(chain, int(chain.states[0]), [0.05, 0.3, 1.0, 5.0, 50.0])
            for s in hk.times:
                assert hk.l2_norm_sq(s) <= hk.l2_bound(s) + 1e-9

    def test_set_prob_bound_dominates(self, rng):
        t = random_tree(rng, 8)
        m = random_masses(rng, 8)
        chain = build_chain(t, m)
        hk = heat_kernel(chain, 2, [0.5, 2.0])
        subset = [0, 3, 5]
        for s in hk.times:
            p = sum(hk.prob(s, v) for v in subset)
            assert p <= hk.set_prob_bound(s, subset) + 1e-12

    def test_bad_inputs(self):
        t = path_tree([1.0])
        chain = build_chain(t, SpeedMeasure([1.0, 1.0]))
        with pytest.raises(OracleError):
            heat_kernel(chain, 5, [1.0])
        with pytest.raises(OracleError):
            heat_kernel(chain, 0, [])
        with pytest.raises(OracleError):
            heat_kernel(chain, 0, [-1.0])
        hk = heat_kernel(chain, 0, [1.0])
        with pytest.raises(OracleError):
            hk.law(2.0)
