"""Closed forms against independent linear-algebra and matrix-exponential oracles."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from treeflow import exact
from treeflow.exact import (
    OracleError,
    atom_law,
    capacity,
    expected_hitting,
    green_kernel,
    harmonic_extension,
    heat_kernel,
    hit_bound,
    hitting_prob,
    occupation_functional,
    occupation_solve,
    speed_bound,
    transition_laws,
    tree_energy,
)
from treeflow.harness import stone_level
from treeflow.tree import FLOAT_SLACK, SpeedMeasure, build_tree
from treeflow.walk import build_chain, lockstep_ensemble
from conftest import path_tree, random_masses, random_tree


def dense_generator(chain):
    q = chain.conductance.toarray() / (2.0 * chain.mass[:, None])
    np.fill_diagonal(q, -chain.exit_rate)
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

    def test_vertex_function_inputs(self):
        # mapping, scalar and array give the same function; a short array is
        # an OracleError that names the length the tree needs
        t = path_tree([1.0, 1.0])
        m = SpeedMeasure([1.0, 1.0, 1.0])
        chain = build_chain(t, m)
        want = occupation_functional(t, m, 2, 0, [2.0, 2.0, 2.0])
        assert occupation_functional(t, m, 2, 0, 2.0) == want
        assert occupation_functional(t, m, 2, 0, {0: 2.0, 1: 2.0, 2: 2.0}) == want
        assert occupation_solve(chain, 2, 0, 2.0) == pytest.approx(want, rel=1e-12)
        for call in (lambda: occupation_functional(t, m, 2, 0, [1.0, 1.0]),
                     lambda: occupation_solve(chain, 2, 0, [1.0, 1.0]),
                     lambda: tree_energy(t, np.ones(4))):
            with pytest.raises(OracleError, match="expected length 3"):
                call()
        with pytest.raises(OracleError, match="vertex 3"):
            tree_energy(t, {3: 1.0})

    def test_vertex_that_is_not_a_state_is_named(self):
        # vertex 2 carries no mass, so it is folded away
        chain = build_chain(path_tree([1.0, 1.0]), SpeedMeasure([1.0, 1.0, 0.0]))
        with pytest.raises(OracleError, match="x vertex 2 is not a chain state"):
            occupation_solve(chain, 2, 0)
        with pytest.raises(OracleError, match="y vertex 2 is not a chain state"):
            occupation_solve(chain, 0, 2)

    def test_sparse_solve_on_a_large_chain(self, rng):
        # 1,500-3,000 states: the size range where the solve used to switch
        # from a dense to a sparse factorisation
        n = 2400
        t = random_tree(rng, n)
        m = random_masses(rng, n)
        chain = build_chain(t, m)
        assert 1500 <= chain.n_states <= 3000
        f = rng.uniform(0.0, 2.0, size=n)
        for _ in range(4):
            x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
            want = occupation_functional(t, m, x, y, f)
            assert occupation_solve(chain, x, y, f) == pytest.approx(want, rel=1e-9)


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
        ends = lockstep_ensemble(chain, 1, (0, 3), 2718, 4000).endpoints
        freq = np.mean(ends == 0)
        se = math.sqrt(p * (1 - p) / 4000)
        assert abs(freq - p) <= 3.5 * se

    def test_capacity_closed_form(self):
        t = path_tree([1.0, 1.0, 1.0])
        assert capacity(t, 0, 3) == pytest.approx(1.0 / 6.0)
        with pytest.raises(OracleError):
            capacity(t, 1, 1)

    def test_capacity_equals_minimal_energy(self, rng):
        # the energy of the harmonic potential is the capacity
        for _ in range(15):
            n = int(rng.integers(3, 12))
            t = random_tree(rng, n)
            y, z = (int(v) for v in rng.choice(n, size=2, replace=False))
            energy = tree_energy(t, harmonic_extension(t, {y: 1.0, z: 0.0}))
            assert energy == pytest.approx(capacity(t, y, z), rel=1e-10)

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
        hit = lockstep_ensemble(chain, 0, (4,), 424242, 3000, horizon=horizon).stopped
        freq = np.mean(hit)
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
        # the walk stops on reaching distance eps from the root
        beyond = [v for v in chain.states if t.height[v] >= eps - FLOAT_SLACK]
        left = lockstep_ensemble(chain, 0, beyond, 31415, 3000, horizon=horizon).stopped
        freq = np.mean(left)
        se = math.sqrt(max(freq * (1 - freq), 1e-6) / 3000)
        assert freq <= bound + 3 * se


class TestHeatKernel:
    def test_two_state_closed_form(self):
        t = path_tree([1.0])
        chain = build_chain(t, SpeedMeasure([1.0, 1.0]))
        times = [0.0, 0.3, 1.0, 4.0]
        hk = heat_kernel(chain, [0], times)
        for i, s in enumerate(times):
            assert hk.laws[i, 0, chain.index[0]] == pytest.approx(
                (1 + math.exp(-s)) / 2, abs=1e-12)

    def test_matches_matrix_exponential(self, rng):
        for _ in range(8):
            n = int(rng.integers(3, 8))
            t = random_tree(rng, n)
            m = random_masses(rng, n)
            chain = build_chain(t, m)
            q = dense_generator(chain)
            hk = heat_kernel(chain, chain.states, (0.2, 1.0, 3.7))
            for s, laws in zip(hk.times, hk.laws):
                assert np.allclose(laws, scipy.linalg.expm(q * s), atol=1e-9)

    def test_chapman_kolmogorov(self, rng):
        t = random_tree(rng, 6)
        m = random_masses(rng, 6)
        chain = build_chain(t, m)
        a, b = 0.7, 1.3
        rows_a, rows_b, rows_ab = heat_kernel(chain, range(6), [a, b, a + b]).laws
        assert np.allclose(rows_a @ rows_b, rows_ab, atol=1e-10)

    def test_reversibility_symmetry(self, rng):
        t = random_tree(rng, 7)
        m = random_masses(rng, 7)
        chain = build_chain(t, m)
        # density p_t(x, y) = P_t(x, y) / mass(y)
        density = heat_kernel(chain, chain.states, [0.9]).laws[0] / chain.mass
        assert np.allclose(density, density.T, rtol=1e-8, atol=0.0)

    def test_mass_and_long_time_limit(self, rng):
        t = random_tree(rng, 8)
        m = random_masses(rng, 8)
        chain = build_chain(t, m)
        hk = heat_kernel(chain, chain.states, [500.0])
        assert np.abs(hk.laws.sum(axis=2) - 1.0).max() <= 1e-10
        stat = chain.mass / chain.total_mass
        assert np.allclose(hk.laws[0], stat, atol=1e-8)

    def test_large_rate_no_underflow(self):
        # exit rates around 1e4 and t = 30 push the series past 3e5 terms
        t = path_tree([1e-3, 1e-3, 1e-3])
        m = SpeedMeasure([0.1, 0.1, 0.1, 0.1])
        chain = build_chain(t, m)
        hk = heat_kernel(chain, [0], [30.0])
        stat = chain.mass / chain.total_mass
        assert np.allclose(hk.laws[0, 0], stat, atol=1e-6)
        assert np.abs(hk.laws.sum(axis=2) - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_non_finite_time_rejected(self, bad):
        chain = build_chain(path_tree([1.0]), SpeedMeasure([1.0, 1.0]))
        with pytest.raises(OracleError, match=repr(bad)):
            heat_kernel(chain, [0], [0.5, bad])

    def test_stalled_series_terminates(self):
        # at L t ~ 8598 the Poisson sum stalls just below 1 - 1e-12 in
        # floating point while the weights underflow to zero
        tree, measure, _ = stone_level(16)
        chain = build_chain(tree, measure)
        hk = heat_kernel(chain, [tree.root], (0.25, 1.0))
        a = hk.uniformization_rate * 1.0
        assert hk.terms <= a + 39.0 * math.sqrt(a) + 499.0
        assert np.allclose(hk.laws.sum(axis=2), 1.0, rtol=0.0, atol=1e-12)

    def test_l2_norm_below_ceiling(self, rng):
        for _ in range(6):
            n = int(rng.integers(3, 9))
            t = random_tree(rng, n)
            m = random_masses(rng, n)
            chain = build_chain(t, m)
            hk = heat_kernel(chain, chain.states, [0.05, 0.3, 1.0, 5.0, 50.0])
            for s, laws in zip(hk.times, hk.laws):
                norms = np.sum(laws * laws / chain.mass, axis=1)
                assert norms.max() <= exact.l2_bound(chain, s) + 1e-9

    def test_set_prob_bound_dominates(self, rng):
        t = random_tree(rng, 8)
        m = random_masses(rng, 8)
        chain = build_chain(t, m)
        hk = heat_kernel(chain, [2], [0.5, 2.0])
        subset = [0, 3, 5]
        for s, row in zip(hk.times, hk.laws[:, 0]):
            p = sum(row[chain.index[v]] for v in subset)
            assert p <= exact.set_prob_bound(chain, s, subset) + 1e-12

    def test_set_prob_bound_rejects_an_id_outside_the_tree(self):
        chain = build_chain(path_tree([1.0, 1.0]), SpeedMeasure([1.0, 1.0, 1.0]))
        with pytest.raises(OracleError, match="vertex 99 is outside 0..2"):
            exact.set_prob_bound(chain, 1.0, [0, 99])

    def test_set_prob_bound_counts_a_folded_vertex_as_zero(self):
        chain = build_chain(path_tree([1.0, 1.0]), SpeedMeasure([1.0, 0.0, 1.0]))
        assert 1 not in chain.index
        assert exact.set_prob_bound(chain, 1.0, [1]) == 0.0
        assert (exact.set_prob_bound(chain, 1.0, [0, 1])
                == exact.set_prob_bound(chain, 1.0, [0]))

    def test_bad_inputs(self):
        t = path_tree([1.0])
        chain = build_chain(t, SpeedMeasure([1.0, 1.0]))
        with pytest.raises(OracleError):
            heat_kernel(chain, [0, 5], [1.0])
        with pytest.raises(OracleError):
            heat_kernel(chain, [0], [])
        with pytest.raises(OracleError):
            heat_kernel(chain, [0], [-1.0])


def series_laws(chain, times):
    """Series laws from every start, shaped like transition_laws."""
    return heat_kernel(chain, chain.states, times).laws


def series_one_start(chain, start, times):
    """Reference for heat_kernel: the series from one start, one vector
    times the dense step matrix per term.  Returns (laws, terms), laws
    shaped (times, states)."""
    lam = 1.1 * float(chain.exit_rate.max())
    n = chain.n_states
    b = (sp.identity(n, format="csr") + chain.generator / lam).toarray()
    out = np.zeros((len(times), n))
    cum = np.zeros(len(times))
    psi = np.zeros(n)
    psi[chain.index[start]] = 1.0
    finished = [False] * len(times)
    k = 0
    while True:
        for i, t in enumerate(times):
            a = lam * t
            if finished[i]:
                continue
            if a == 0.0:
                w = 1.0 if k == 0 else 0.0
            else:
                w = math.exp(k * math.log(a) - a - math.lgamma(k + 1))
            if w > 0.0:
                out[i] += w * psi
                cum[i] += w
            finished[i] = cum[i] >= 1.0 - exact.POISSON_TAIL or (k > a and w == 0.0)
        if all(finished):
            break
        psi = psi @ b
        k += 1
    return out / out.sum(axis=1, keepdims=True), k


class TestSeriesFromEveryStart:
    """heat_kernel moves every start at once; each start's laws keep the
    bits of the one-start series."""

    TIMES = (0.0, 0.2, 1.0, 3.7)

    def assert_bit_equal(self, chain, starts, times=TIMES):
        got = heat_kernel(chain, starts, times)
        assert got.laws.shape == (len(times), len(starts), chain.n_states)
        assert got.starts == [int(s) for s in starts]
        for k, s in enumerate(starts):
            want, terms = series_one_start(chain, int(s), times)
            assert got.terms == terms
            assert np.array_equal(got.laws[:, k], want)

    def test_random_trees_with_folded_vertices(self, rng):
        for n in range(3, 17):
            chain = random_chain(rng, n, zero_frac=0.3)
            self.assert_bit_equal(chain, chain.states)

    def test_paths(self, rng):
        for n in (2, 5, 9, 14):
            chain = build_chain(path_tree(rng.uniform(0.2, 1.5, size=n - 1)),
                                random_masses(rng, n))
            self.assert_bit_equal(chain, chain.states)

    def test_time_zero_is_the_start(self, rng):
        chain = random_chain(rng, 8, zero_frac=0.3)
        hk = heat_kernel(chain, chain.states, (0.0,))
        assert hk.terms == 0
        assert np.array_equal(hk.laws[0], np.eye(chain.n_states))

    def test_repeated_and_reordered_starts(self, rng):
        chain = random_chain(rng, 10, zero_frac=0.3)
        s = [int(v) for v in chain.states]
        starts = [s[2], s[0], s[2], s[-1], s[0]]
        self.assert_bit_equal(chain, starts)
        laws = heat_kernel(chain, starts, self.TIMES).laws
        assert np.array_equal(laws[:, 0], laws[:, 2])
        assert np.array_equal(laws[:, 1], laws[:, 4])

    def test_one_start_row_matches_the_full_block(self, rng):
        chain = random_chain(rng, 11, zero_frac=0.3)
        full = heat_kernel(chain, chain.states, self.TIMES).laws
        for k, s in enumerate(chain.states):
            assert np.array_equal(heat_kernel(chain, [s], self.TIMES).laws[:, 0],
                                  full[:, k])


def random_chain(rng, n, zero_frac=0.0):
    """Random tree chain; zero masses fold vertices into cliques."""
    t = random_tree(rng, n)
    masses = random_masses(rng, n).masses.copy()
    masses[1:][rng.random(n - 1) < zero_frac] = 0.0
    return build_chain(t, SpeedMeasure(masses))


def relabelled_path(lengths, masses, perm):
    """Path whose i-th vertex along the line carries the id perm[i]."""
    parents = {int(perm[i + 1]): int(perm[i]) for i in range(len(lengths))}
    ells = {int(perm[i + 1]): float(l) for i, l in enumerate(lengths)}
    tree = build_tree(parents, ells, int(perm[0]))
    mass = np.empty(len(masses))
    mass[perm] = masses
    return build_chain(tree, SpeedMeasure(mass))


def two_point_chain(n):
    """The fdd chain: unit edge, far mass 1/n."""
    return build_chain(build_tree({1: 0}, {1: 1.0}, root=0),
                       SpeedMeasure([1.0, 1.0 / n]))


def star_chain(leaves, center_mass):
    tree = build_tree({v: 0 for v in range(1, leaves + 1)},
                      {v: 0.5 + 0.25 * v for v in range(1, leaves + 1)}, root=0)
    return build_chain(tree, SpeedMeasure([center_mass] + [1.0] * leaves))


def _refuse(*args, **kwargs):
    raise AssertionError("wrong eigen solver")


class TestTransitionLaws:
    TIMES = (0.0, 0.2, 1.0, 3.7)

    def test_generator_is_built_once_from_the_rates(self, rng):
        chain = random_chain(rng, 9, zero_frac=0.3)
        q = chain.generator
        assert q is chain.generator
        assert np.array_equal(q.toarray(), dense_generator(chain))

    def test_matches_series_on_random_trees(self, rng):
        for _ in range(10):
            chain = random_chain(rng, int(rng.integers(3, 13)), zero_frac=0.3)
            got = transition_laws(chain, chain.states, self.TIMES)
            assert got.shape == (4, chain.n_states, chain.n_states)
            assert np.abs(got - series_laws(chain, self.TIMES)).max() <= 1e-9

    def test_matches_series_on_paths(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 15))
            chain = build_chain(path_tree(rng.uniform(0.2, 1.5, size=n - 1)),
                                random_masses(rng, n))
            got = transition_laws(chain, chain.states, self.TIMES)
            assert np.abs(got - series_laws(chain, self.TIMES)).max() <= 1e-9

    def test_chapman_kolmogorov(self, rng):
        a, b = 0.7, 1.3
        path = build_chain(path_tree(rng.uniform(0.2, 1.5, size=7)),
                           random_masses(rng, 8))
        for chain in (random_chain(rng, 10, zero_frac=0.3), path):
            p_a, p_b, p_ab = transition_laws(chain, chain.states, (a, b, a + b))
            assert np.allclose(p_a @ p_b, p_ab, rtol=0.0, atol=1e-12)

    def test_only_requested_starts(self, rng):
        chain = random_chain(rng, 9)
        full = transition_laws(chain, chain.states, (0.4, 2.0))
        starts = [int(chain.states[3]), int(chain.states[0])]
        got = transition_laws(chain, starts, (0.4, 2.0))
        assert got.shape == (2, 2, chain.n_states)
        assert np.array_equal(got, full[:, [3, 0]])

    def test_paths_take_the_tridiagonal_solver(self, monkeypatch):
        monkeypatch.setattr(exact, "eigh", _refuse)
        tree, measure, _ = stone_level(2)
        for chain in (build_chain(tree, measure), two_point_chain(8)):
            laws = transition_laws(chain, chain.states, (0.25, 1.0))
            assert np.allclose(laws.sum(axis=2), 1.0, rtol=0.0, atol=1e-12)

    def test_other_chains_take_dense_eigh(self, monkeypatch):
        monkeypatch.setattr(exact, "eigh_tridiagonal", _refuse)
        # a star, and a massless center folded into a 3-cycle (every state
        # has two neighbours, but the chain is not a path)
        for chain in (star_chain(4, 1.0), star_chain(3, 0.0)):
            laws = transition_laws(chain, chain.states, (0.25, 1.0))
            assert np.abs(laws - series_laws(chain, (0.25, 1.0))).max() <= 1e-9

    def test_relabelled_path_gives_the_same_laws(self, rng):
        n = 9
        lengths = rng.uniform(0.2, 1.5, size=n - 1)
        masses = rng.uniform(0.3, 2.0, size=n)
        base = relabelled_path(lengths, masses, np.arange(n))
        want = transition_laws(base, range(n), self.TIMES)
        for _ in range(4):
            perm = rng.permutation(n)
            chain = relabelled_path(lengths, masses, perm)
            got = transition_laws(chain, perm, self.TIMES)
            cols = [chain.index[int(v)] for v in perm]
            assert np.allclose(got[:, :, cols], want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("starts, times, named", [
        ([1], [1.0], "start vertex 1 is not a chain state"),
        ([0], [], r"got \[\]"),
        ([0], [0.5, -1.0], "-1.0"),
        ([0], [0.5, math.inf], "inf"),
        ([0], [0.5, math.nan], "nan"),
    ], ids=["eliminated-start", "empty", "negative", "inf", "nan"])
    def test_bad_inputs_named(self, starts, times, named):
        # the middle vertex carries no mass, so it is folded away
        chain = build_chain(path_tree([1.0, 1.0]), SpeedMeasure([1.0, 0.0, 1.0]))
        with pytest.raises(OracleError, match=named):
            transition_laws(chain, starts, times)
