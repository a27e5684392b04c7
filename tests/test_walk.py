"""Chain construction, exact rates, and the event-driven sampler."""

import io
import math

import numpy as np
import pytest

from treeflow.tree import SpeedMeasure, build_tree, restrict
from treeflow import walk
from treeflow.walk import (
    BOUNDARY,
    ChainError,
    JumpCapExceeded,
    StopRule,
    batch_simulate,
    build_chain,
    derive_seed,
    dirichlet_energy,
    export_paths_csv,
    generator_apply,
    lockstep_ensemble,
    max_displacement,
    occupation_times,
    simulate,
)
from conftest import path_tree, random_masses, random_tree


def y_tree(a=1.0, b=1.0, c=1.0):
    # center 0, leaves 1..3
    return build_tree({1: 0, 2: 0, 3: 0}, {1: a, 2: b, 3: c}, root=0)


class TestBuildChain:
    def test_rates_match_conductance_over_mass(self, rng):
        for _ in range(20):
            t = random_tree(rng, 12)
            m = random_masses(rng, 12)
            chain = build_chain(t, m)
            for v, p, ell in t.edges():
                want_vp = (1.0 / ell) / (2.0 * m[v])
                want_pv = (1.0 / ell) / (2.0 * m[p])
                assert chain.rate(v, p) == pytest.approx(want_vp, rel=1e-12)
                assert chain.rate(p, v) == pytest.approx(want_pv, rel=1e-12)

    def test_detailed_balance(self, rng):
        t = random_tree(rng, 15)
        m = random_masses(rng, 15)
        chain = build_chain(t, m)
        for (u, v), c in chain.pair_conductance.items():
            lhs = m[u] * chain.rate(u, v)
            rhs = m[v] * chain.rate(v, u)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert lhs == pytest.approx(c / 2.0, rel=1e-12)

    def test_two_state_unit_chain(self):
        t = build_tree({1: 0}, {1: 1.0}, root=0)
        chain = build_chain(t, SpeedMeasure([1.0, 1.0]))
        assert chain.exit_rate[0] == pytest.approx(0.5)
        assert chain.exit_rate[1] == pytest.approx(0.5)

    def test_star_mesh_on_zero_mass_center(self):
        t = y_tree()
        m = SpeedMeasure([0.0, 1.0, 1.0, 1.0])
        chain = build_chain(t, m)
        assert list(chain.states) == [1, 2, 3]
        # three unit conductances at the removed hub: each new pair gets 1/3
        for pair in [(1, 2), (1, 3), (2, 3)]:
            assert chain.pair_conductance[pair] == pytest.approx(1.0 / 3.0)

    def test_zero_mass_pendant_is_dropped(self):
        t = build_tree({1: 0, 2: 1}, {1: 1.0, 2: 1.0}, root=0)
        m = SpeedMeasure([1.0, 1.0, 0.0])
        chain = build_chain(t, m)
        assert list(chain.states) == [0, 1]
        assert set(chain.pair_conductance) == {(0, 1)}

    def test_elimination_preserves_harmonic_absorption(self):
        # Absorption probabilities depend only on conductances, so the
        # reduced chain must give the same answers as a tiny positive mass.
        t = y_tree(0.7, 1.3, 2.1)

        def absorb_prob(measure):
            chain = build_chain(t, measure)
            # P_x(hit 1 before 3) solves the harmonic equation
            idx = chain.index
            free = [s for s in chain.states if s not in (1, 3)]
            a = np.zeros((len(free), len(free)))
            rhs = np.zeros(len(free))
            fpos = {s: i for i, s in enumerate(free)}
            for s in free:
                rates = chain.jump_rates(s)
                tot = sum(rates.values())
                a[fpos[s], fpos[s]] = tot
                for v, r in rates.items():
                    if v == 1:
                        rhs[fpos[s]] += r
                    elif v == 3:
                        pass
                    else:
                        a[fpos[s], fpos[v]] -= r
            sol = np.linalg.solve(a, rhs)
            return {s: sol[fpos[s]] for s in free}

        full = absorb_prob(SpeedMeasure([1e-8, 1.0, 1.0, 1.0]))
        reduced = absorb_prob(SpeedMeasure([0.0, 1.0, 1.0, 1.0]))
        assert reduced[2] == pytest.approx(full[2], abs=1e-9)

    def test_rejects_bad_measures(self):
        t = y_tree()
        with pytest.raises(ChainError):
            build_chain(t, SpeedMeasure([1.0, 1.0]))
        with pytest.raises(ChainError):
            build_chain(t, SpeedMeasure([0.0, 1.0, 0.0, 0.0]))


class TestSimulate:
    def test_start_must_be_state(self):
        t = y_tree()
        chain = build_chain(t, SpeedMeasure([0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ChainError):
            simulate(chain, 0, StopRule(horizon=1.0), seed=1)

    def test_immediate_stops(self):
        t = y_tree()
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        p = simulate(chain, 1, StopRule(hitting=frozenset({1})), seed=5)
        assert p.stop_reason == "hit" and p.end_time == 0.0 and p.states == [1]
        p = simulate(chain, 1, StopRule(radius=0.5), seed=5)
        assert p.stop_reason == "boundary"
        assert p.absorbed_at == (0.0, BOUNDARY)
        p = simulate(chain, 0, StopRule(horizon=0.0), seed=5)
        assert p.stop_reason == "horizon" and p.states == [0]

    def test_stop_rule_validation(self):
        with pytest.raises(ChainError):
            StopRule()
        with pytest.raises(ChainError):
            StopRule(horizon=-1.0)
        with pytest.raises(ChainError):
            StopRule(radius=0.0)

    def test_holding_time_mean(self):
        t = y_tree(0.5, 1.0, 2.0)
        m = SpeedMeasure([0.8, 1.0, 1.0, 1.0])
        chain = build_chain(t, m)
        lam = chain.exit_rate[chain.index[0]]
        stop = StopRule(hitting=frozenset({1, 2, 3}))
        s = batch_simulate(chain, 0, stop, replicates=4000, master_seed=90210)
        arr = np.array(s.end_times)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        assert abs(arr.mean() - 1.0 / lam) <= 3.5 * se

    def test_jump_distribution_follows_conductances(self):
        t = y_tree(0.5, 1.0, 2.0)
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        cond = {v: 1.0 / ell for v, _, ell in t.edges()}
        tot = sum(cond.values())
        stop = StopRule(hitting=frozenset({1, 2, 3}))
        s = batch_simulate(chain, 0, stop, replicates=4000, master_seed=777)
        ends = np.array(s.endpoints)
        for leaf in (1, 2, 3):
            p = cond[leaf] / tot
            freq = (ends == leaf).mean()
            se = math.sqrt(p * (1 - p) / len(ends))
            assert abs(freq - p) <= 4 * se

    def test_long_run_occupation_matches_mass(self, rng):
        t = random_tree(rng, 6)
        m = random_masses(rng, 6)
        chain = build_chain(t, m)
        horizon = 20000.0
        path = simulate(chain, 0, StopRule(horizon=horizon), seed=4242)
        occ = occupation_times(path)
        tot = m.total
        for v in range(6):
            assert occ[v] / horizon == pytest.approx(m[v] / tot, abs=0.015)

    def test_occupation_sums_to_end_time(self):
        t = y_tree()
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        path = simulate(chain, 0, StopRule(horizon=37.5), seed=3)
        occ = occupation_times(path)
        assert sum(occ.values()) == pytest.approx(path.end_time, abs=1e-9)
        half = occupation_times(path, until=10.0)
        assert sum(half.values()) == pytest.approx(10.0, abs=1e-9)

    def test_state_at_and_displacement(self):
        t = build_tree({1: 0, 2: 1}, {1: 1.0, 2: 1.0}, root=0)
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0]))
        path = simulate(chain, 0, StopRule(horizon=50.0), seed=8)
        assert path.state_at(0.0) == 0
        for k, tk in enumerate(path.jump_times):
            assert path.state_at(tk) == path.states[k + 1]
        d = max_displacement(path, t, 0)
        assert d in (0.0, 1.0, 2.0)
        assert d == max(t.distance(0, s) for s in path.states)

    def test_jump_cap(self):
        t = build_tree({1: 0}, {1: 1.0}, root=0)
        chain = build_chain(t, SpeedMeasure([1.0, 1.0]))
        with pytest.raises(JumpCapExceeded):
            simulate(chain, 0, StopRule(horizon=1e9), seed=11, jump_cap=50)

    def test_radius_stop_absorbs_at_boundary(self):
        t = build_tree({1: 0, 2: 1, 3: 2}, {1: 1.0, 2: 1.0, 3: 1.0}, root=0)
        chain = build_chain(t, SpeedMeasure([1.0] * 4))
        path = simulate(chain, 0, StopRule(radius=2.0), seed=21)
        assert path.stop_reason == "boundary"
        assert path.endpoint == 2
        assert path.absorbed_at == (path.end_time, BOUNDARY)
        # no state before the end may sit at distance >= 2
        for s in path.states[:-1]:
            assert t.height[s] < 2.0


class TestRestrictionEquivalence:
    def test_same_seed_paths_agree_up_to_relabeling(self, rng):
        # stopping at radius R only ever reads rates inside the closed
        # R + max-edge ball, so the restricted chain replays the same path
        for trial in range(10):
            t = random_tree(rng, 40)
            m = random_masses(rng, 40)
            radius = 0.6 * max(t.height)
            longest = max(ell for _, _, ell in t.edges())
            sub, subm, old_ids = restrict(t, m, radius + longest)
            chain = build_chain(t, m)
            subchain = build_chain(sub, subm)
            stop = StopRule(radius=radius, horizon=200.0)
            seed = 1000 + trial
            p_full = simulate(chain, 0, stop, seed=seed)
            p_sub = simulate(subchain, 0, stop, seed=seed)
            mapped = [int(old_ids[s]) for s in p_sub.states]
            assert mapped == p_full.states
            assert p_sub.jump_times == p_full.jump_times
            assert p_sub.stop_reason == p_full.stop_reason


class TestBatch:
    def test_replicate_seed_is_positional(self):
        t = y_tree()
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        stop = StopRule(horizon=3.0)
        s = batch_simulate(chain, 0, stop, replicates=8, master_seed=31337, keep_paths=True)
        solo = simulate(chain, 0, stop, seed=derive_seed(31337, 5))
        assert s.paths[5].states == solo.states
        assert s.paths[5].jump_times == solo.jump_times

    def test_summary_accessors_and_json(self):
        t = y_tree()
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        s = batch_simulate(chain, 0, StopRule(hitting=frozenset({2})),
                           replicates=16, master_seed=9)
        mean, se, count = s.mean_hitting_time()
        assert count == 16 and mean is not None and se is not None
        blob = s.to_json()
        assert '"master_seed": 9' in blob
        mat = s.occupation_matrix([0, 1, 2, 3])
        assert mat.shape == (16, 4)
        assert np.allclose(mat.sum(axis=1), s.end_times, atol=1e-9)

    def test_paths_csv(self):
        t = y_tree()
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        s = batch_simulate(chain, 0, StopRule(horizon=2.0), replicates=3,
                           master_seed=12, keep_paths=True)
        buf = io.StringIO()
        export_paths_csv(s.paths, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "replicate,jump_index,time,state"
        assert len(lines) == 1 + sum(1 + len(p.jump_times) for p in s.paths)
        assert lines[1].startswith("0,0,0.0,")


def no_sampling(seed):
    raise AssertionError("a generator was built before the input was checked")


class TestBadVertices:
    """Vertices that are not chain states are rejected before any sampling."""

    def chain_with_eliminated_middle(self):
        # vertex 1 has zero mass and is folded away; states are {0, 2}
        return build_chain(path_tree([1.0, 1.0]), SpeedMeasure([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [1, 7, -1])
    def test_simulate_rejects_hitting_vertex(self, monkeypatch, bad):
        chain = self.chain_with_eliminated_middle()
        monkeypatch.setattr(walk, "rng_from", no_sampling)
        stop = StopRule(hitting=frozenset({2, bad}))
        with pytest.raises(ChainError, match=f"vertex {bad} "):
            simulate(chain, 0, stop, seed=1)
        with pytest.raises(ChainError, match=f"vertex {bad} "):
            batch_simulate(chain, 0, stop, replicates=4, master_seed=1)

    @pytest.mark.parametrize("kwargs, role", [
        ({"start": 1}, "start"),
        ({"start": 9}, "start"),
        ({"stop_states": (2, 1)}, "stop"),
        ({"stop_states": (5,)}, "stop"),
        ({"occupy": 1}, "occupy"),
        ({"occupy": -3}, "occupy"),
    ])
    def test_lockstep_rejects_vertex(self, monkeypatch, kwargs, role):
        chain = self.chain_with_eliminated_middle()
        monkeypatch.setattr(walk, "rng_from", no_sampling)
        args = {"start": 0, "stop_states": (2,), "seed": 1, "replicates": 8}
        args.update(kwargs)
        with pytest.raises(ChainError, match=f"{role} vertex "):
            lockstep_ensemble(chain, **args)

    def test_lockstep_needs_a_way_to_stop(self, monkeypatch):
        chain = self.chain_with_eliminated_middle()
        monkeypatch.setattr(walk, "rng_from", no_sampling)
        with pytest.raises(ChainError, match="stop state or a horizon"):
            lockstep_ensemble(chain, 0, (), 1, 8)
        with pytest.raises(ChainError, match="horizon"):
            lockstep_ensemble(chain, 0, (2,), 1, 8, horizon=-1.0)
        with pytest.raises(ChainError, match="replicates"):
            lockstep_ensemble(chain, 0, (2,), 1, 0)


def masked_reference(chain, start, stop_states, seed, reps, horizon=None, occupy=None):
    """Lockstep ensemble without compaction: walks that ended stay masked."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    nbr, cum = chain.jump_table
    limit = np.inf if horizon is None else horizon
    stop = np.isin(chain.states, list(stop_states))
    state = np.full(reps, chain.index[start])
    t = np.zeros(reps)
    occ = np.zeros(reps)
    alive = ~stop[state]
    while alive.any():
        cur, t_old = state[alive], t[alive]
        dt = rng.exponential(size=cur.size) / chain.exit_rate[cur]
        u = rng.random(cur.size)
        nxt = nbr[cur, (u[:, None] >= cum[cur]).sum(axis=1)]
        late = t_old + dt > limit
        if occupy is not None:
            held = np.where(late, limit - t_old, dt)
            occ[alive] += np.where(cur == chain.index[occupy], held, 0.0)
        t[alive] = np.where(late, limit, t_old + dt)
        state[alive] = np.where(late, cur, nxt)
        ended = late | stop[nxt]
        alive[np.flatnonzero(alive)[ended]] = False
    return t, chain.states[state], stop[state], occ


class TestLockstep:
    def test_matches_masked_reference(self, rng):
        # compaction must not change the draws any replicate sees
        for trial in range(6):
            t = random_tree(rng, 9)
            chain = build_chain(t, random_masses(rng, 9))
            horizon = (None, 1.5)[trial % 2]
            args = (chain, 0, (8,), 40 + trial, 300)
            ens = lockstep_ensemble(*args, horizon=horizon, occupy=3)
            want = masked_reference(*args, horizon=horizon, occupy=3)
            got = (ens.end_times, ens.endpoints, ens.stopped, ens.occupation)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_sweep_cap_raises(self, monkeypatch):
        # the target is 9 edges away, so every walk needs at least 9 sweeps
        chain = build_chain(path_tree([1.0] * 9), SpeedMeasure([1.0] * 10))
        monkeypatch.setattr(walk, "SWEEP_CAP", 3)
        with pytest.raises(JumpCapExceeded, match="3 sweeps"):
            lockstep_ensemble(chain, 0, (9,), 5, 20)

    def test_horizon_and_stop_outcomes(self):
        chain = build_chain(path_tree([1.0, 1.0]), SpeedMeasure([1.0, 1.0, 1.0]))
        ens = lockstep_ensemble(chain, 0, (2,), 17, 400, horizon=1.5, occupy=0)
        late = ~ens.stopped
        assert late.any() and ens.stopped.any()
        assert np.all(ens.end_times[late] == 1.5)
        assert np.all(ens.end_times[ens.stopped] <= 1.5)
        assert set(ens.endpoints[ens.stopped]) == {2}
        assert set(ens.endpoints[late]) <= {0, 1}
        assert np.all(ens.occupation <= ens.end_times)
        assert np.all(ens.occupation > 0.0)

    def test_start_in_stop_set_is_instant(self):
        chain = build_chain(path_tree([1.0, 2.0]), SpeedMeasure([0.5, 1.0, 0.7]))
        ens = lockstep_ensemble(chain, 1, (1, 2), 3, 10, occupy=1)
        assert ens.stopped.all() and not ens.end_times.any()
        assert set(ens.endpoints) == {1} and not ens.occupation.any()


class TestGeneratorAndEnergy:
    def test_generator_energy_pairing(self, rng):
        # E(f, g) = -(Lf, g) with the state masses as weights
        for _ in range(10):
            t = random_tree(rng, 9)
            m = random_masses(rng, 9)
            chain = build_chain(t, m)
            f = rng.normal(size=9)
            g = rng.normal(size=9)
            lf = generator_apply(chain, f)
            pairing = -sum(chain.mass[i] * lf[i] * g[int(chain.states[i])]
                           for i in range(chain.n_states))
            assert dirichlet_energy(chain, f, g) == pytest.approx(pairing, abs=1e-9)

    def test_unit_edge_energy(self):
        t = build_tree({1: 0}, {1: 1.0}, root=0)
        chain = build_chain(t, SpeedMeasure([1.0, 1.0]))
        assert dirichlet_energy(chain, [0.0, 1.0]) == pytest.approx(0.5)

    def test_constant_functions_are_harmonic(self, rng):
        t = random_tree(rng, 8)
        chain = build_chain(t, random_masses(rng, 8))
        lf = generator_apply(chain, np.ones(8) * 4.2)
        assert np.allclose(lf, 0.0, atol=1e-12)
        assert dirichlet_energy(chain, np.ones(8)) == pytest.approx(0.0, abs=1e-15)

    def test_mapping_input(self):
        t = y_tree()
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        e1 = dirichlet_energy(chain, {1: 1.0})
        e2 = dirichlet_energy(chain, [0.0, 1.0, 0.0, 0.0])
        assert e1 == pytest.approx(e2)
        with pytest.raises(ChainError):
            generator_apply(chain, [1.0, 2.0])

    def test_scalar_is_a_constant_function(self):
        chain = build_chain(y_tree(), SpeedMeasure([1.0, 2.0, 1.0, 3.0]))
        assert np.array_equal(generator_apply(chain, 2.5),
                              generator_apply(chain, np.full(4, 2.5)))
        assert dirichlet_energy(chain, 2.5) == 0.0

    def test_wrong_length_names_the_expected_length(self):
        chain = build_chain(y_tree(), SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ChainError, match="expected length 4"):
            dirichlet_energy(chain, np.ones(5))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_mapping_key_outside_the_tree(self, bad):
        chain = build_chain(y_tree(), SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ChainError, match=f"vertex {bad}, outside 0..3"):
            generator_apply(chain, {bad: 1.0})
