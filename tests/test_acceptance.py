"""Acceptance matrix: criteria A1-A12, one test and one printed line each.

Every criterion runs at its stated size and tolerance with pinned seeds, so
the whole file is deterministic.  Monte Carlo bands are 3 or 4 sigma as
stated; deterministic identities use the quoted absolute or relative
tolerances.  Nothing here is scaled down; reduced-size variants of the same
checks live in test_harness.py for quick iteration.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from treeflow import exact
from treeflow.families import (
    CoalescentSpec,
    Excursion,
    coalescent_tree,
    degree_measure,
    glue_excursion,
    gw_conditioned,
    lattice_excursion,
    offspring_geometric,
    offspring_poisson,
)
from treeflow.harness import (
    ExperimentConfig,
    check_atom_law,
    check_discretization,
    check_entrance,
    check_heat_kernel,
    check_metric_oracles,
    check_natural_scale,
    check_one_sided_bounds,
    check_trace,
    run_experiment,
)
from treeflow.tree import SpeedMeasure, build_tree, check_four_point
from treeflow.walk import build_chain, lockstep_ensemble

SEED = 20240817


@contextmanager
def criterion(tag):
    try:
        yield
    except BaseException:
        print(f"{tag}: FAIL")
        raise
    print(f"{tag}: PASS")


def _assert_records(recs, expect_len=None):
    if expect_len is not None:
        assert len(recs) == expect_len
    bad = [r for r in recs if not r.passed]
    assert not bad, [(r.check_id, r.instance, r.statistic, r.bound_or_target)
                     for r in bad]


def _random_instance(rng):
    n = int(rng.integers(5, 13))
    parents = {v: int(rng.integers(0, v)) for v in range(1, n)}
    lengths = {v: float(rng.uniform(0.2, 1.5)) for v in range(1, n)}
    tree = build_tree(parents, lengths, root=0)
    return tree, SpeedMeasure(rng.uniform(0.3, 2.0, size=n))


def test_a1_exact_jump_rates():
    with criterion("A1 exact jump rates"):
        # two-point chain with masses (1, 1/n): rates are (1/2, n/2)
        tree = build_tree({1: 0}, {1: 1.0}, root=0)
        for n in (1, 4, 100):
            chain = build_chain(tree, SpeedMeasure([1.0, 1.0 / n]))
            up = chain.jump_rates(0)[1]
            down = chain.jump_rates(1)[0]
            assert abs(up - 0.5) <= 1e-12 * 0.5
            assert abs(down - n / 2.0) <= 1e-12 * (n / 2.0)
        # conditioned branching chain: every vertex jumps at n^(3/2)/sigma
        for law, n in ((offspring_geometric(), 20), (offspring_poisson(), 35)):
            sample = gw_conditioned(law, n, np.random.SeedSequence(SEED, spawn_key=(1, n)))
            chain = build_chain(sample.tree, sample.degree)
            want = n ** 1.5 / sample.sigma
            worst = max(abs(r - want) for r in chain.exit_rate)
            assert worst <= 1e-12 * want


def test_a2_occupation_formula():
    with criterion("A2 occupation formula"):
        for i in range(50):
            rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(2, i)))
            tree, measure = _random_instance(rng)
            chain = build_chain(tree, measure)
            x = int(rng.integers(0, tree.n))
            y = int(rng.integers(0, tree.n))
            while y == x:
                y = int(rng.integers(0, tree.n))
            # hitting time from the linear solve vs the summed green kernel
            solved = exact.expected_hitting(chain, x, y)
            closed = exact.occupation_functional(tree, measure, x, y, None)
            assert abs(solved - closed) <= 1e-9 * max(1.0, abs(closed))
            # per-vertex occupation from ensembles vs 2 d(y, branch) * mass
            for z in range(tree.n):
                if z == y:
                    continue
                occ = lockstep_ensemble(
                    chain, x, (y,),
                    np.random.SeedSequence(SEED, spawn_key=(2, i, z)),
                    10_000, occupy=z).occupation
                want = exact.green_kernel(tree, x, y, z) * measure.masses[z]
                err = abs(float(occ.mean()) - want)
                se = float(occ.std(ddof=1)) / 100.0
                if se == 0.0:
                    assert err == 0.0
                else:
                    assert err <= 3.0 * se, (i, z, err / se)


def test_a3_natural_scale():
    with criterion("A3 natural scale"):
        _assert_records(check_natural_scale(SEED), expect_len=100)


def test_a4_atom_law():
    with criterion("A4 atom occupation law"):
        _assert_records(check_atom_law(SEED), expect_len=20)


def test_a5_one_sided_bounds():
    with criterion("A5 one-sided bounds"):
        recs = check_one_sided_bounds(SEED)
        _assert_records(recs, expect_len=40)
        # the configurations must not collapse onto one scale-free point
        assert len({r.statistic for r in recs if r.check_id == "bounds/hit"}) > 5


def test_a6_heat_kernel():
    with criterion("A6 heat kernel"):
        _assert_records(check_heat_kernel(SEED), expect_len=250)


def test_a7_entrance_identity():
    with criterion("A7 entrance identity"):
        _assert_records(check_entrance(), expect_len=22)


def test_a8_discretization():
    with criterion("A8 discretization nets"):
        _assert_records(check_discretization(SEED), expect_len=80)


def test_a9_metric_oracles():
    with criterion("A9 metric oracles"):
        _assert_records(check_metric_oracles(SEED), expect_len=60)


def test_a10_trace_energy():
    with criterion("A10 trace energy"):
        _assert_records(check_trace(SEED), expect_len=30)


def test_a11_convergence_trends(tmp_path):
    with criterion("A11 convergence trends"):
        cfg = ExperimentConfig.default("stone").replace(
            output_dir=str(tmp_path / "stone"))
        art = run_experiment(cfg)
        _assert_records(art.records)
        kr = {(r["n"], r["time"]): r["kr"] for r in art.tables["distances"]}
        for t in cfg.times:
            seq = [kr[(n, t)] for n in cfg.n_list]
            assert all(b < a for a, b in zip(seq, seq[1:])), (t, seq)

        cfg = ExperimentConfig.default("fdd").replace(
            output_dir=str(tmp_path / "fdd"))
        art = run_experiment(cfg)
        _assert_records(art.records)
        flags = {}
        for row in art.tables["distances"]:
            n, t = row["n"], row["time"]
            # marginal mass at the far vertex, in closed form
            p = (1.0 / (n + 1.0)) * (1.0 - math.exp(-(n + 1.0) * t / 2.0))
            assert abs(row["kr"] - p) <= 1e-9
            assert row["m_delta"] == pytest.approx(1.0 / n, rel=1e-12)
            flags[n] = row["flagged"]
        # one-time distances shrink while the mass floor gives way
        assert not flags[2] and not flags[8]
        assert flags[32] and flags[128]


def test_a12_generator_laws():
    with criterion("A12 generator laws"):
        # ultrametricity, exhaustively over leaf triples, all three kinds
        specs = [CoalescentSpec.kingman(7),
                 CoalescentSpec.beta(6, 1.5, 1.0),
                 CoalescentSpec.point_masses(6, [(0.6, 0.5), (0.3, 0.5)])]
        for s in range(10):
            for spec in specs:
                ct = coalescent_tree(
                    spec, np.random.SeedSequence(SEED, spawn_key=(13, s)))
                heights = ct.tree.height[list(ct.leaves)]
                assert float(heights.max() - heights.min()) <= 1e-10
                leaves = list(ct.leaves)
                for i in range(len(leaves)):
                    for j in range(i + 1, len(leaves)):
                        for k in range(j + 1, len(leaves)):
                            d = sorted([ct.tree.distance(leaves[i], leaves[j]),
                                        ct.tree.distance(leaves[i], leaves[k]),
                                        ct.tree.distance(leaves[j], leaves[k])])
                            assert d[2] - d[1] <= 1e-10

        # pair-merge waiting times: mean at b blocks is 2 / (b (b-1))
        big_n, samples = 6, 400
        waits = np.zeros((samples, big_n - 1))
        for s in range(samples):
            ct = coalescent_tree(CoalescentSpec.kingman(big_n),
                                 np.random.SeedSequence(SEED, spawn_key=(12, s)))
            mt = np.array(ct.merge_times)
            assert len(mt) == big_n - 1
            waits[s] = np.diff(np.concatenate([[0.0], mt]))
        for j, b in enumerate(range(big_n, 1, -1)):
            want = 2.0 / (b * (b - 1))
            sigma = want / math.sqrt(samples)   # exponential: sd equals mean
            assert abs(waits[:, j].mean() - want) <= 4.0 * sigma

        # handshake identity on conditioned branching trees
        for law, n in ((offspring_geometric(), 10), (offspring_poisson(), 17),
                       (offspring_geometric(), 24)):
            sample = gw_conditioned(
                law, n, np.random.SeedSequence(SEED, spawn_key=(14, n)))
            assert 2.0 * degree_measure(sample.tree, 1.0).masses.sum() \
                == 2.0 * (n - 1)

        # glued excursions give genuine tree metrics, checked exhaustively
        rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(15,)))
        for _ in range(5):
            w = lattice_excursion(12, rng)
            glued = glue_excursion(Excursion(w / math.sqrt(len(w)),
                                             step=1.0 / len(w)))
            assert glued.tree.n <= 30
            report = check_four_point(glued.tree)
            assert report.exhaustive and report.ok
