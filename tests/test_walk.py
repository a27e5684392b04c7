"""Chain construction, exact rates, and the lockstep sampler."""

import io
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from treeflow.tree import FLOAT_SLACK, SpeedMeasure, build_tree, restrict
from treeflow import walk
from treeflow.walk import (
    ChainError,
    JumpCapExceeded,
    build_chain,
    dirichlet_energy,
    export_paths_csv,
    lockstep_ensemble,
    vertex_function,
)
from treeflow.families import binary_tree
from conftest import path_tree, random_masses, random_tree


def y_tree(a=1.0, b=1.0, c=1.0):
    # center 0, leaves 1..3
    return build_tree({1: 0, 2: 0, 3: 0}, {1: a, 2: b, 3: c}, root=0)


def conductance_pairs(chain):
    """{(u, v): c} over vertex pairs u < v that share a conductance."""
    c = sp.triu(chain.conductance).tocoo()
    return {(int(chain.states[i]), int(chain.states[j])): float(cij)
            for i, j, cij in zip(c.row, c.col, c.data)}


def pair_dict_reference(chain):
    """exit_rate, jump_table and generator built state by state from the
    {(u, v): c} pair dict, the way chains were built before they held one
    conductance matrix."""
    n = chain.n_states
    nbr = [[] for _ in range(n)]
    cond = [[] for _ in range(n)]
    for (u, v), c in sorted(conductance_pairs(chain).items()):
        iu, iv = chain.index[u], chain.index[v]
        nbr[iu].append(iv)
        cond[iu].append(c)
        nbr[iv].append(iu)
        cond[iv].append(c)
    rates = [np.array(cond[i]) / (2.0 * chain.mass[i]) for i in range(n)]
    exit_rate = np.array([r.sum() for r in rates])
    table = np.zeros((n, max(map(len, nbr))), dtype=np.int64)
    cum = np.ones(table.shape)
    for i in range(n):
        k = len(nbr[i])
        table[i, :k] = nbr[i]
        cum[i, :k] = np.cumsum(rates[i]) / exit_rate[i]
        cum[i, k - 1] = 1.0
    rows = np.repeat(np.arange(n), [len(a) for a in nbr])
    jumps = sp.csr_matrix((np.concatenate(rates), (rows, np.concatenate(nbr))),
                          shape=(n, n))
    return exit_rate, (table, cum), jumps - sp.diags(exit_rate, format="csr")


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
        for (u, v), c in conductance_pairs(chain).items():
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
            assert conductance_pairs(chain)[pair] == pytest.approx(1.0 / 3.0)

    def test_zero_mass_pendant_is_dropped(self):
        t = build_tree({1: 0, 2: 1}, {1: 1.0, 2: 1.0}, root=0)
        m = SpeedMeasure([1.0, 1.0, 0.0])
        chain = build_chain(t, m)
        assert list(chain.states) == [0, 1]
        assert set(conductance_pairs(chain)) == {(0, 1)}

    def test_bad_vertex_ids_are_named(self):
        # vertex 2 is folded away, 7 and 9 are not vertices at all
        t = build_tree({1: 0, 2: 1}, {1: 1.0, 2: 1.0}, root=0)
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 0.0]))
        with pytest.raises(ChainError, match="from vertex 7 is not a chain state"):
            chain.rate(7, 9)
        with pytest.raises(ChainError, match="to vertex 2 is not a chain state"):
            chain.rate(0, 2)
        with pytest.raises(ChainError, match="from vertex 2 is not a chain state"):
            chain.jump_rates(2)

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

    def test_matches_the_pair_dict_construction_bit_for_bit(self, rng):
        chains = []
        for _ in range(30):
            n = int(rng.integers(4, 25))
            masses = random_masses(rng, n).masses.copy()
            masses[1:][rng.random(n - 1) < 0.4] = 0.0
            if np.count_nonzero(masses) >= 2:
                chains.append(build_chain(random_tree(rng, n), SpeedMeasure(masses)))
        # a zero-mass hub with 12 arms folds into rows of 11 entries, past
        # the 8 below which numpy's pairwise sum is a plain running sum
        arms = range(1, 13)
        star = build_tree({v: 0 for v in arms},
                          {v: float(rng.uniform(0.2, 1.5)) for v in arms}, root=0)
        chains.append(build_chain(star, SpeedMeasure(
            np.r_[0.0, rng.uniform(0.3, 2.0, size=12)])))
        assert np.diff(chains[-1].conductance.indptr).min() == 11
        for chain in chains:
            c = chain.conductance
            assert c.has_sorted_indices and not c.diagonal().any()
            assert (c != c.T).nnz == 0
            exit_rate, (table, cum), q = pair_dict_reference(chain)
            assert np.array_equal(chain.exit_rate, exit_rate)
            assert np.array_equal(chain.jump_table[0], table)
            assert np.array_equal(chain.jump_table[1], cum)
            got = chain.generator
            assert np.array_equal(got.indptr, q.indptr)
            assert np.array_equal(got.indices, q.indices)
            assert np.array_equal(got.data, q.data)


class TestFarthestState:
    def test_lowest_id_among_ties_and_never_the_vertex_itself(self):
        # y_tree(2, 1, 2): leaves 1 and 3 tie at distance 2 from the root
        chain = build_chain(y_tree(2.0, 1.0, 2.0), SpeedMeasure([1.0] * 4))
        assert chain.farthest_state(0) == 1
        assert chain.farthest_state(3) == 1
        assert chain.farthest_state(1) == 3

    def test_ties_within_float_slack(self):
        chain = build_chain(y_tree(1.0 + FLOAT_SLACK / 4, 0.5, 1.0),
                            SpeedMeasure([1.0] * 4))
        assert chain.farthest_state(0) == 1
        chain = build_chain(y_tree(1.0, 0.5, 1.0 + 4 * FLOAT_SLACK),
                            SpeedMeasure([1.0] * 4))
        assert chain.farthest_state(0) == 3

    def test_only_states_count(self):
        # leaf 3 is farthest but has no mass, so it is folded away
        chain = build_chain(y_tree(1.0, 0.5, 2.0), SpeedMeasure([1.0, 1.0, 1.0, 0.0]))
        assert chain.farthest_state(0) == 1


class TestSimulate:
    """Laws of walks sampled by `lockstep_ensemble`."""

    def test_start_must_be_state(self):
        t = y_tree()
        chain = build_chain(t, SpeedMeasure([0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ChainError, match="start vertex 0 "):
            lockstep_ensemble(chain, 0, (), 1, 1, horizon=1.0)

    def test_immediate_stops(self):
        # a start in the stop set, or horizon 0, ends every walk at its start
        t = y_tree()
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        for stop_states, horizon in (((1,), None), ((), 0.0), ((2,), 0.0)):
            ens = lockstep_ensemble(chain, 1, stop_states, 5, 10, horizon=horizon,
                                    occupy=1, keep_paths=True)
            assert not ens.end_times.any() and set(ens.endpoints) == {1}
            assert not ens.occupation.any()
            assert np.all(ens.stopped == (1 in stop_states))
            rep, time, vertex = ens.paths
            assert np.array_equal(rep, np.arange(10))
            assert not time.any() and set(vertex) == {1}

    def test_holding_time_mean(self):
        t = y_tree(0.5, 1.0, 2.0)
        m = SpeedMeasure([0.8, 1.0, 1.0, 1.0])
        chain = build_chain(t, m)
        lam = chain.exit_rate[chain.index[0]]
        arr = lockstep_ensemble(chain, 0, (1, 2, 3), 90210, 4000).end_times
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        assert abs(arr.mean() - 1.0 / lam) <= 3.5 * se

    def test_jump_distribution_follows_conductances(self):
        t = y_tree(0.5, 1.0, 2.0)
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        cond = {v: 1.0 / ell for v, _, ell in t.edges()}
        tot = sum(cond.values())
        ends = lockstep_ensemble(chain, 0, (1, 2, 3), 777, 4000).endpoints
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
        ens = lockstep_ensemble(chain, 0, (), 4242, 1, horizon=horizon, keep_paths=True)
        _, time, vertex = ens.paths
        # the holding times read off the one logged path
        held = np.diff(np.append(time, ens.end_times[0]))
        occ = np.bincount(vertex, weights=held, minlength=6)
        tot = m.total
        for v in range(6):
            assert occ[v] / horizon == pytest.approx(m[v] / tot, abs=0.015)

    def test_occupation_sums_to_end_time(self):
        t = y_tree()
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        for stop_states, horizon in (((), 37.5), ((3,), None), ((3,), 2.0)):
            runs = [lockstep_ensemble(chain, 0, stop_states, 3, 50, horizon=horizon,
                                      occupy=v) for v in range(4)]
            total = sum(r.occupation for r in runs)
            assert np.allclose(total, runs[0].end_times, rtol=0.0, atol=1e-9)

    def test_jump_cap(self, monkeypatch):
        # a far horizon on a two-state chain: only the sweep cap ends the run
        t = build_tree({1: 0}, {1: 1.0}, root=0)
        chain = build_chain(t, SpeedMeasure([1.0, 1.0]))
        monkeypatch.setattr(walk, "SWEEP_CAP", 50)
        with pytest.raises(JumpCapExceeded, match="50 sweeps"):
            lockstep_ensemble(chain, 0, (), 11, 1, horizon=1e9)

    def test_radius_stop_absorbs_at_boundary(self):
        t = build_tree({1: 0, 2: 1, 3: 2}, {1: 1.0, 2: 1.0, 3: 1.0}, root=0)
        chain = build_chain(t, SpeedMeasure([1.0] * 4))
        ens = lockstep_ensemble(chain, 0, stop_beyond(t, chain, 2.0), 21, 20,
                                keep_paths=True)
        assert ens.stopped.all() and set(ens.endpoints) == {2}
        # no state before the end may sit at distance >= 2
        for _, vertices in per_replicate(ens.paths):
            assert vertices[-1] == 2 and np.all(t.height[vertices[:-1]] < 2.0)


def stop_beyond(tree, chain, radius):
    """States at height radius or more: the walk stops on reaching them."""
    return [int(v) for v in chain.states if tree.height[v] >= radius - FLOAT_SLACK]


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
            seed = 1000 + trial
            full = lockstep_ensemble(chain, 0, stop_beyond(t, chain, radius), seed, 1,
                                     horizon=200.0, keep_paths=True)
            part = lockstep_ensemble(subchain, 0, stop_beyond(sub, subchain, radius),
                                     seed, 1, horizon=200.0, keep_paths=True)
            assert np.array_equal(part.end_times, full.end_times)
            assert np.array_equal(old_ids[part.endpoints], full.endpoints)
            assert np.array_equal(part.stopped, full.stopped)
            assert np.array_equal(part.paths[0], full.paths[0])
            assert np.array_equal(part.paths[1], full.paths[1])
            assert np.array_equal(old_ids[part.paths[2]], full.paths[2])


class TestBatch:
    def test_paths_csv(self):
        t = y_tree()
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        ens = lockstep_ensemble(chain, 0, (), 12, 3, horizon=2.0, keep_paths=True)
        rep, time, vertex = ens.paths
        buf = io.StringIO()
        export_paths_csv(ens.paths, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "replicate,jump_index,time,state"
        assert len(lines) == 1 + rep.size
        assert lines[1].startswith("0,0,0.0,")
        for line, r, tk, v in zip(lines[1:], rep, time, vertex):
            cols = line.split(",")
            assert (int(cols[0]), float(cols[2]), int(cols[3])) == (r, tk, v)
            assert cols[2] == repr(float(tk))
        index = [int(line.split(",")[1]) for line in lines[1:]]
        starts = [i for i, k in enumerate(index) if k == 0]
        assert starts == [int(np.searchsorted(rep, r)) for r in range(3)]
        assert all(b == a + 1 for a, b in zip(index, index[1:]) if b)


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
        with pytest.raises(ChainError, match=f"stop vertex {bad} "):
            lockstep_ensemble(chain, 0, (2, bad), 1, 4)

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

    def test_lockstep_rejects_nan_horizon(self, monkeypatch):
        chain = self.chain_with_eliminated_middle()
        monkeypatch.setattr(walk, "rng_from", no_sampling)
        for stop_states in ((), (2,)):
            with pytest.raises(ChainError, match="horizon must be nonnegative, got nan"):
                lockstep_ensemble(chain, 0, stop_states, 1, 8, horizon=math.nan)

    def test_lockstep_rejects_infinite_horizon_without_stop_states(self, monkeypatch):
        chain = self.chain_with_eliminated_middle()
        monkeypatch.setattr(walk, "rng_from", no_sampling)
        with pytest.raises(ChainError, match="got horizon inf and no stop state"):
            lockstep_ensemble(chain, 0, (), 1, 8, horizon=math.inf)

    @pytest.mark.parametrize("replicates", [2.5, True, "8", np.int64(8)])
    def test_lockstep_rejects_replicates_that_are_not_an_int(self, monkeypatch,
                                                             replicates):
        chain = self.chain_with_eliminated_middle()
        monkeypatch.setattr(walk, "rng_from", no_sampling)
        with pytest.raises(ChainError, match=re.escape(f"got {replicates!r}")):
            lockstep_ensemble(chain, 0, (2,), 1, replicates)


def masked_reference(chain, start, stop_states, seed, reps, horizon=None, occupy=None):
    """Lockstep ensemble without compaction: walks that ended stay masked.

    Also returns the path log, kept as one Python list per replicate.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    nbr, cum = chain.jump_table
    limit = np.inf if horizon is None else horizon
    stop = np.isin(chain.states, list(stop_states))
    state = np.full(reps, chain.index[start])
    t = np.zeros(reps)
    occ = np.zeros(reps)
    log = [[(0.0, int(start))] for _ in range(reps)]
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
        for r, tr, v, gone in zip(np.flatnonzero(alive), t_old + dt, nxt, late):
            if not gone:
                log[r].append((tr, int(chain.states[v])))
        t[alive] = np.where(late, limit, t_old + dt)
        state[alive] = np.where(late, cur, nxt)
        ended = late | stop[nxt]
        alive[np.flatnonzero(alive)[ended]] = False
    paths = (np.repeat(np.arange(reps), [len(p) for p in log]),
             np.array([tr for p in log for tr, _ in p]),
             np.array([v for p in log for _, v in p]))
    return t, chain.states[state], stop[state], occ, paths


def per_replicate(paths):
    """Split the (replicate, time, vertex) log into one (times, vertices) each."""
    rep, time, vertex = paths
    cuts = np.flatnonzero(np.diff(rep)) + 1
    return list(zip(np.split(time, cuts), np.split(vertex, cuts)))


class TestLockstep:
    def test_matches_masked_reference(self, rng):
        # neither compaction nor the column-wise jump choice may change the
        # draws or the jumps any replicate sees
        cases = []
        for trial in range(6):
            t = random_tree(rng, 9)
            chain = build_chain(t, random_masses(rng, 9))
            cases.append(((chain, 0, (8,), 40 + trial, 300), (None, 1.5)[trial % 2], 3))
        # jump tables of width 1 (no comparison column), 3 and 39: a hub of
        # zero mass folds a 40-leaf star into the complete graph K40
        two = build_chain(build_tree({1: 0}, {1: 1.0}, root=0), SpeedMeasure([1.0, 1.0]))
        binary = build_chain(*binary_tree(6))
        leaves = range(1, 41)
        star = build_chain(build_tree(dict.fromkeys(leaves, 0), dict.fromkeys(leaves, 1.0),
                                      root=0), SpeedMeasure([0.0] + [1.0] * 40))
        for chain, width in ((two, 1), (binary, 3), (star, 39)):
            assert chain.jump_table[0].shape[1] == width
        cases += [((two, 0, (), 7, 300), 4.0, 1),
                  ((binary, 126, (0,), 8, 200), 0.5, 62),
                  ((star, 1, (40,), 9, 300), 20.0, 2)]
        for args, horizon, occupy in cases:
            ens = lockstep_ensemble(*args, horizon=horizon, occupy=occupy, keep_paths=True)
            want = masked_reference(*args, horizon=horizon, occupy=occupy)
            got = (ens.end_times, ens.endpoints, ens.stopped, ens.occupation)
            for g, w in zip(got + ens.paths, want[:4] + want[4]):
                assert np.array_equal(g, w)

    def test_keep_paths_changes_no_result(self, rng):
        t = random_tree(rng, 9)
        chain = build_chain(t, random_masses(rng, 9))
        for horizon in (None, 1.5):
            args = (chain, 0, (8,), 11, 200)
            off = lockstep_ensemble(*args, horizon=horizon, occupy=3)
            on = lockstep_ensemble(*args, horizon=horizon, occupy=3, keep_paths=True)
            assert off.paths is None
            for name in ("end_times", "endpoints", "stopped", "occupation"):
                assert np.array_equal(getattr(on, name), getattr(off, name))

    def test_path_log_is_ordered_and_ends_at_the_endpoint(self, rng):
        t = random_tree(rng, 9)
        chain = build_chain(t, random_masses(rng, 9))
        for horizon in (None, 1.5):
            ens = lockstep_ensemble(chain, 0, (8,), 23, 200, horizon=horizon,
                                    keep_paths=True)
            rep = ens.paths[0]
            assert np.array_equal(np.unique(rep), np.arange(200))
            assert np.all(np.diff(rep) >= 0)
            for r, (times, vertices) in enumerate(per_replicate(ens.paths)):
                assert times[0] == 0.0 and vertices[0] == 0
                assert np.all(np.diff(times[1:]) > 0)
                assert vertices[-1] == ens.endpoints[r]
                assert times[-1] <= ens.end_times[r]
                if ens.stopped[r]:
                    assert times[-1] == ens.end_times[r]

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
            lf = chain.generator @ f[chain.states]
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
        lf = chain.generator @ np.full(chain.n_states, 4.2)
        assert np.allclose(lf, 0.0, atol=1e-12)
        assert dirichlet_energy(chain, np.ones(8)) == pytest.approx(0.0, abs=1e-15)

    def test_mapping_input(self):
        t = y_tree()
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        e1 = dirichlet_energy(chain, {1: 1.0})
        e2 = dirichlet_energy(chain, [0.0, 1.0, 0.0, 0.0])
        assert e1 == pytest.approx(e2)
        with pytest.raises(ChainError):
            vertex_function(chain.tree, [1.0, 2.0])

    def test_scalar_is_a_constant_function(self):
        chain = build_chain(y_tree(), SpeedMeasure([1.0, 2.0, 1.0, 3.0]))
        assert np.array_equal(vertex_function(chain.tree, 2.5), np.full(4, 2.5))
        assert dirichlet_energy(chain, 2.5) == 0.0

    def test_wrong_length_names_the_expected_length(self):
        chain = build_chain(y_tree(), SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ChainError, match="expected length 4"):
            dirichlet_energy(chain, np.ones(5))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_mapping_key_outside_the_tree(self, bad):
        chain = build_chain(y_tree(), SpeedMeasure([1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ChainError, match=f"vertex {bad}, outside 0..3"):
            vertex_function(chain.tree, {bad: 1.0})
