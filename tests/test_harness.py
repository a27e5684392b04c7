"""Config parsing, record plumbing, ensemble cross-checks, and runner smoke.

Monte Carlo assertions run at pinned seeds, so they are deterministic;
tolerances are the same 3-4 sigma bands the harness itself uses.
"""

import csv
import dataclasses
import json
import math
import multiprocessing
import os
import signal
import time
import warnings

import numpy as np
import pytest
from scipy import stats

from treeflow import exact, harness
from treeflow.harness import (
    EXPERIMENTS,
    RUNNERS,
    CheckRecord,
    ConfigError,
    ExperimentConfig,
    RunArtifacts,
    _mc_record,
    _root_laws,
    _stone_ray,
    _stone_reference_ids,
    _write,
    check_atom_law,
    check_discretization,
    check_entrance,
    check_heat_kernel,
    check_metric_oracles,
    check_natural_scale,
    check_one_sided_bounds,
    check_trace,
    entrance_bound,
    run_experiment,
    stone_level,
)
from treeflow.cli import main as cli_main
from treeflow.measures import (
    FiniteAtomMeasure,
    gh_vague_report,
    kr_distance,
    tree_metric,
)
from treeflow.tree import SpeedMeasure, lower_mass
from treeflow.walk import ChainError, build_chain, lockstep_ensemble
from conftest import path_tree

SEED = 20240817


def tiny(experiment, **kw):
    return ExperimentConfig.default(experiment).replace(**kw)


class TestConfig:
    def test_defaults_exist_for_every_experiment(self):
        for name in EXPERIMENTS:
            cfg = ExperimentConfig.default(name)
            assert cfg.experiment == name
            assert cfg.output_dir.endswith(name)
        assert set(RUNNERS) == set(EXPERIMENTS)

    def test_json_roundtrip(self):
        for name in EXPERIMENTS:
            cfg = ExperimentConfig.default(name)
            assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown name"):
            ExperimentConfig.default("nonsense")
        with pytest.raises(ConfigError, match="experiment"):
            tiny("stone").replace(experiment="nonsense")

    def test_unknown_top_level_field(self):
        blob = json.loads(tiny("verify").to_json())
        blob["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            ExperimentConfig.from_json(json.dumps(blob))

    def test_missing_field_named(self):
        blob = json.loads(tiny("verify").to_json())
        del blob["replicates"]
        with pytest.raises(ConfigError, match="replicates"):
            ExperimentConfig.from_json(json.dumps(blob))

    def test_unknown_family_key(self):
        with pytest.raises(ConfigError, match="knots"):
            tiny("stone").replace(family={"knots": 4})

    def test_family_keys_scoped_per_experiment(self):
        # the same key is fine where it belongs
        tiny("crt").replace(family={"knots": 64})

    def test_n_list_validation(self):
        with pytest.raises(ConfigError, match="n_list"):
            tiny("stone").replace(n_list=())
        with pytest.raises(ConfigError, match="n_list"):
            tiny("stone").replace(n_list=(0,))
        with pytest.raises(ConfigError, match="n_list"):
            tiny("stone").replace(n_list=(2.5,))

    def test_times_validation(self):
        with pytest.raises(ConfigError, match="times"):
            tiny("stone").replace(times=(0.5, 0.5))
        with pytest.raises(ConfigError, match="times"):
            tiny("stone").replace(times=(-1.0,))

    @pytest.mark.parametrize("experiment", ["verify", "binary-entrance",
                                            "coalescent"])
    def test_times_rejected_where_no_run_reads_them(self, experiment):
        with pytest.raises(ConfigError, match=r"^times: must be empty for "
                           f"experiment '{experiment}'"):
            tiny(experiment).replace(times=(0.5,))

    @pytest.mark.parametrize("experiment", ["stone", "crt", "fdd"])
    @pytest.mark.parametrize("replicates", [2, 400])
    def test_replicates_rejected_where_laws_are_exact(self, experiment,
                                                      replicates):
        with pytest.raises(ConfigError, match=r"^replicates: must be 1 for "
                           f"experiment '{experiment}'.*got {replicates}$"):
            tiny(experiment).replace(replicates=replicates)

    def test_scalar_field_validation(self):
        with pytest.raises(ConfigError, match="replicates"):
            tiny("verify").replace(replicates=0)
        with pytest.raises(ConfigError, match="master_seed"):
            tiny("verify").replace(master_seed=-1)
        with pytest.raises(ConfigError, match="output_dir"):
            tiny("verify").replace(output_dir="")

    def test_parse_error_reports_position(self):
        with pytest.raises(ConfigError, match=r"line 2, column"):
            ExperimentConfig.from_json('{\n  "experiment": }')

    def test_lists_must_be_lists(self):
        blob = json.loads(tiny("verify").to_json())
        blob["n_list"] = 1
        with pytest.raises(ConfigError, match="n_list"):
            ExperimentConfig.from_json(json.dumps(blob))

    def test_shipped_files_match_defaults(self):
        from importlib import resources
        for name in EXPERIMENTS:
            res = resources.files("treeflow").joinpath("configs", f"{name}.json")
            cfg = ExperimentConfig.from_json(res.read_text(encoding="utf-8"))
            assert cfg == ExperimentConfig.default(name)


class TestRecords:
    def test_numpy_scalars_coerced(self):
        rec = CheckRecord("x/y", "i", "0" * 16, np.float64(1.5),
                          np.float64(2.0), np.float64(0.1), np.True_, "s")
        assert type(rec.statistic) is float and type(rec.passed) is bool
        json.dumps(dataclasses.asdict(rec))

    def test_suite_counts_and_failures(self):
        recs = [
            CheckRecord("a", "0", "h", 1.0, 2.0, 0.1, True, "s"),
            CheckRecord("a", "1", "h", 3.0, 2.0, 0.1, False, "s"),
            CheckRecord("b", "0", "h", 0.0, 1.0, 0.1, True, "s"),
        ]
        art = RunArtifacts(recs)
        assert not art.all_passed
        assert art.counts() == {"a": (1, 2), "b": (1, 1)}
        assert [r.instance for r in art.failures()] == ["1"]

    def test_suite_json_is_stable(self, tmp_path):
        art = RunArtifacts([CheckRecord("a", "0", "h", 1.0, 2.0, 0.1, True, "s")])
        texts = []
        for tag in ("a", "b"):
            cfg = tiny("verify", master_seed=7, output_dir=str(tmp_path / tag))
            _write(cfg, art)
            texts.append((tmp_path / tag / "report.json").read_text())
        assert texts[0] == texts[1]
        assert texts[0].endswith("\n")
        parsed = json.loads(texts[0])
        assert parsed["experiment"] == "verify" and parsed["master_seed"] == 7
        assert parsed["all_passed"] is True
        assert parsed["records"][0]["check_id"] == "a"


    @pytest.mark.parametrize("se, passed", [(0.0, False), (0.5, True)])
    def test_mc_record_with_zero_band_fails(self, se, passed):
        # mc equals the exact value, so only the band decides
        rec = _mc_record("x/mc", "i", "h", 1.25, 1.25, se, "s")
        assert (rec.statistic, rec.bound_or_target, rec.passed) == (0.0, 4 * se, passed)

    def test_mc_record_band_is_four_standard_errors(self):
        assert _mc_record("x/mc", "i", "h", 1.0, 3.0, 0.5, "s").passed
        assert not _mc_record("x/mc", "i", "h", 1.0, 3.0 + 1e-12, 0.5, "s").passed


def stone_points(tree):
    """Signed point of each stone_level vertex: the root at 0, then the +
    ray, then the - ray, each ray ordered by height."""
    m = (tree.n - 1) // 2
    return tree.height * np.concatenate(([1.0], np.ones(m), -np.ones(m)))


class TestStoneLumping:
    @pytest.mark.parametrize("n", [8, 32, 128, 256])
    def test_lumped_laws_match_the_unfolded_engine(self, n):
        times = (0.25, 1.0)
        tree, measure, half = stone_level(n)
        m = (tree.n - 1) // 2
        lumped = _root_laws(half, times, range(m + 1))
        unfolded = exact.transition_laws(build_chain(tree, measure), [tree.root],
                                         times)[:, 0]
        mirror = np.concatenate(([0], np.arange(m) + m + 1, np.arange(m) + 1))
        pos = stone_points(tree)
        assert np.array_equal(pos[mirror], -pos)
        for law, want in zip(lumped, unfolded):
            assert np.abs(want[mirror] - want).max() <= 1e-12
            got = dict(zip(law.points, law.weights))
            assert sorted(got) == list(range(m + 1))
            w = np.array([got[v] for v in range(m + 1)])
            folded = np.concatenate((want[:1], want[1:m + 1] + want[m + 1:]))
            assert np.abs(w - folded).max() <= 1e-12
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_ids_place_the_atoms(self):
        tree, _, half = stone_level(2)
        ids = [10 * v for v in range(half.n_states)]
        plain = _root_laws(half, (0.5,), range(half.n_states))[0]
        moved = _root_laws(half, (0.5,), ids)[0]
        assert moved.points == tuple(10 * v for v in plain.points)
        assert moved.weights == plain.weights

    @pytest.mark.parametrize("ref", [16, 32])
    def test_folded_distances_match_the_unfolded_ones(self, ref):
        times, delta = (0.25, 1.0), 0.25
        radii = [0.3 * 2.0 ** harness.STONE_SPAN, 0.6 * 2.0 ** harness.STONE_SPAN]
        ref_tree, ref_measure, ref_half = stone_level(ref)
        ray_tree = _stone_ray(ref_tree)
        assert np.array_equal(ray_tree.height, ref_tree.height[:ray_tree.n])

        def engine_laws(n, ids):
            tree, measure, _ = stone_level(n)
            rows = exact.transition_laws(build_chain(tree, measure),
                                         [tree.root], times)[:, 0]
            return [FiniteAtomMeasure.from_dict(dict(zip(ids, law.tolist())))
                    for law in rows]

        ref_laws = engine_laws(ref, range(ref_tree.n))
        ray_ref = _root_laws(ref_half, times, range(ray_tree.n))
        for n in (2, ref // 4):
            _, measure, half = stone_level(n)
            ids = _stone_reference_ids(n, ref)
            laws = engine_laws(n, ids.tolist())
            ray = _root_laws(half, times, ids[:half.n_states].tolist())
            for a, b, fa, fb in zip(laws, ref_laws, ray, ray_ref):
                assert abs(kr_distance(a, b, tree_metric(ref_tree))
                           - kr_distance(fa, fb, tree_metric(ray_tree))) <= 1e-9
            pushed = np.zeros(ref_tree.n)
            np.add.at(pushed, ids, measure.masses)
            pushed = SpeedMeasure(pushed)
            plain = gh_vague_report(ref_tree, ref_measure, [("x", pushed)],
                                    radii, delta)
            # the half chains' masses, placed at their ray ids
            on_ray = np.bincount(ids[:half.n_states], half.mass,
                                 minlength=ray_tree.n)
            folded = gh_vague_report(ray_tree, SpeedMeasure(ref_half.mass),
                                     [("x", SpeedMeasure(on_ray))], radii, delta,
                                     floor_on=(ref_tree, [pushed]))
            for p, f in zip(plain, folded):
                assert f.hausdorff == p.hausdorff and f.m_delta == p.m_delta
                assert f.flagged == p.flagged
                assert abs(f.kr - p.kr) <= 1e-9
                assert abs(f.prohorov - p.prohorov) <= 1e-9

    def test_mass_floor_sums_few_centres_at_level_1024(self, monkeypatch):
        tree, measure, _ = stone_level(1024)
        seen = []
        dense = SpeedMeasure.ball_masses

        def spy(self, tree, centers, *args, **kwargs):
            seen.append(len(centers))
            return dense(self, tree, centers, *args, **kwargs)

        monkeypatch.setattr(SpeedMeasure, "ball_masses", spy)
        for radius in (1.2, 2.4):
            lower_mass(tree, measure, 0.25, radius=radius)
        assert len(seen) == 2 and max(seen) <= 16

    def test_heights_are_powers_of_q(self):
        for n in (1, 2, 8):
            tree, _, half = stone_level(n)
            q, big_k = 2.0 ** (1.0 / n), harness.STONE_SPAN * n
            m = 2 * big_k + 1
            assert tree.n == 2 * m + 1 and tree.root == 0
            ray = np.array([q ** k for k in range(-big_k, big_k + 1)])
            assert np.allclose(tree.height, np.concatenate(([0.0], ray, ray)),
                               rtol=1e-12, atol=0.0)
            # the two outermost points, one on each ray
            assert tree.distance(m, 2 * m) == pytest.approx(2 * q ** big_k,
                                                            rel=1e-12)
            # the lumped chain is one ray at half the lengths
            assert np.array_equal(half.tree.height * 2.0, tree.height[:m + 1])


class TestTrend:
    def test_spearman_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(SEED)
        checked = 0
        for _ in range(3000):
            k = int(rng.integers(3, 8))
            # sizes and gaps, each either all distinct or drawn with ties
            x = (rng.permutation(2 ** np.arange(1, k + 1)) if rng.random() < 0.5
                 else rng.integers(1, 4, size=k))
            y = (rng.random(k) if rng.random() < 0.5
                 else rng.integers(0, 3, size=k) * 0.25)
            if len(set(x.tolist())) == 1 or len(set(y.tolist())) == 1:
                continue      # spearmanr warns and returns NaN there
            want = float(stats.spearmanr(x.tolist(), y.tolist()).statistic)
            assert harness._spearman(x.tolist(), y.tolist()) == want, (x, y)
            checked += 1
        assert checked > 2000

    def test_constant_input_is_no_trend(self):
        assert harness._spearman([2, 8, 32], [0.5, 0.5, 0.5]) == 0.0
        assert harness._spearman([4, 4, 4], [0.1, 0.2, 0.3]) == 0.0
        # one chain at every level gives the same gap at every n
        tree = path_tree([1.0, 2.0])
        chain = build_chain(tree, SpeedMeasure([0.5, 1.0, 0.7]))
        levels = [(n, chain, range(tree.n), {}) for n in (2, 8, 32)]
        rows, records = harness._law_distances(
            "x", (1.0,), [FiniteAtomMeasure((0,), (1.0,))], levels,
            tree_metric(tree), "s")
        assert len({r["kr"] for r in rows}) == 1 and rows[0]["kr"] > 0
        trend = [(r.statistic, r.passed) for r in records if r.check_id == "x/trend"]
        assert trend == [(0.0, False)]

    def test_chain_reference_matches_its_root_laws(self):
        times = (0.25, 1.0)
        _, _, ref_half = stone_level(8)
        ray_ids = range(ref_half.n_states)
        levels = []
        for n in (2, 4):
            _, _, half = stone_level(n)
            levels.append((n, half,
                           _stone_reference_ids(n, 8)[:half.n_states].tolist(),
                           {"c": n}))
        dist = tree_metric(ref_half.tree)
        by_chain = harness._law_distances("x", times, (ref_half, ray_ids),
                                          levels, dist, "s")
        by_laws = harness._law_distances("x", times,
                                         _root_laws(ref_half, times, ray_ids),
                                         levels, dist, "s")
        assert by_chain == by_laws
        assert [r["c"] for r in by_chain[0]] == [2, 2, 4, 4]


def exceedance(chain, start, eps, horizon, seed, reps):
    """Fraction of walks whose displacement from start reaches eps by horizon."""
    disp = chain.tree.distances_from(start)[chain.states]
    ens = lockstep_ensemble(chain, start, chain.states[disp >= eps - 1e-12],
                            seed, reps, horizon=horizon)
    return float(ens.stopped.mean())


class TestEnsembles:
    def test_hitting_endpoints_match_scale(self):
        # P_1(hit 0 before 2) = d(1,2)/d(0,2) = 2/3 on lengths (1, 2)
        t = path_tree([1.0, 2.0])
        chain = build_chain(t, SpeedMeasure([0.5, 1.0, 0.7]))
        reps = 8000
        ends = lockstep_ensemble(chain, 1, (0, 2), SEED, reps).endpoints
        freq = float(np.mean(ends == 0))
        p = exact.hitting_prob(t, 1, 0, 2)
        sigma = np.sqrt(p * (1 - p) / reps)
        assert abs(freq - p) <= 3.5 * sigma

    def test_hitting_time_mean_matches_solve(self):
        t = path_tree([1.0, 2.0, 0.5])
        chain = build_chain(t, SpeedMeasure([0.5, 1.0, 0.7, 0.3]))
        reps = 6000
        ens = lockstep_ensemble(chain, 0, (3,), SEED + 1, reps)
        times, ends = ens.end_times, ens.endpoints
        assert set(np.unique(ends)) == {3}
        want = exact.expected_hitting(chain, 0, 3)
        se = float(times.std(ddof=1)) / np.sqrt(reps)
        assert abs(float(times.mean()) - want) <= 4 * se

    def test_occupation_matches_green_identity(self):
        t = path_tree([1.0, 2.0, 0.5])
        m = SpeedMeasure([0.5, 1.0, 0.7, 0.3])
        chain = build_chain(t, m)
        reps = 6000
        occ = lockstep_ensemble(chain, 0, (3,), SEED + 2, reps, occupy=1).occupation
        want = exact.occupation_functional(t, m, 0, 3, {1: 1.0})
        se = float(occ.std(ddof=1)) / np.sqrt(reps)
        assert abs(float(occ.mean()) - want) <= 4 * se

    def test_start_on_target_is_instant(self):
        t = path_tree([1.0])
        chain = build_chain(t, SpeedMeasure([1.0, 1.0]))
        ens = lockstep_ensemble(chain, 0, (0,), SEED, 100)
        times, ends = ens.end_times, ens.endpoints
        assert times.max() == 0.0 and set(np.unique(ends)) == {0}

    def test_exceedance_two_state(self):
        # any jump moves the full edge, so exceedance = P(jump by horizon)
        t = path_tree([1.0])
        m = SpeedMeasure([0.8, 0.6])
        chain = build_chain(t, m)
        horizon = 1.3
        reps = 8000
        got = exceedance(chain, 0, 1.0, horizon, SEED + 3, reps)
        rate = 1.0 / (2.0 * 0.8)   # conductance 1 over twice the start mass
        p = 1.0 - np.exp(-rate * horizon)
        sigma = np.sqrt(p * (1 - p) / reps)
        assert abs(got - p) <= 3.5 * sigma

    def test_exceedance_beyond_diameter_is_zero(self):
        t = path_tree([1.0, 1.0])
        chain = build_chain(t, SpeedMeasure([1.0, 1.0, 1.0]))
        assert exceedance(chain, 0, 5.0, 2.0, SEED, 500) == 0.0


class TestVerifyChecks:
    """Reduced-size runs of each check family; full sizes run in acceptance."""

    def test_natural_scale(self):
        recs = check_natural_scale(SEED, instances=6, replicates=1500)
        assert len(recs) == 12 and all(r.passed for r in recs)

    def test_atom_law(self):
        recs = check_atom_law(SEED, configurations=3, replicates=4000)
        assert len(recs) == 6 and all(r.passed for r in recs)

    def test_one_sided_bounds(self):
        recs = check_one_sided_bounds(SEED, configurations=6, replicates=1200)
        assert len(recs) == 12 and all(r.passed for r in recs)
        stats = {r.statistic for r in recs if r.check_id == "bounds/hit"}
        assert len(stats) > 1   # instances genuinely vary

    def test_heat_kernel(self):
        recs = check_heat_kernel(SEED, chains=8)
        assert len(recs) == 40 and all(r.passed for r in recs)

    def test_entrance(self):
        recs = check_entrance(depths=range(2, 8))
        assert len(recs) == 12 and all(r.passed for r in recs)
        # partial sums of the depth series settle well below this ceiling
        assert 0.0 < entrance_bound(12) < entrance_bound(60) < 11.0

    def test_discretization(self):
        recs = check_discretization(SEED, trees=3, levels=(2, 4))
        assert len(recs) == 12 and all(r.passed for r in recs)

    def test_metric_oracles(self):
        recs = check_metric_oracles(SEED, cases=8)
        assert len(recs) == 16 and all(r.passed for r in recs)

    def test_trace(self):
        recs = check_trace(SEED, cases=8)
        assert len(recs) == 8 and all(r.passed for r in recs)

    def test_atom_law_without_positive_occupation_fails_finitely(
            self, tmp_path):
        # one replicate rarely visits u; an empty positive branch used to
        # give a NaN mean, two RuntimeWarnings and a bare NaN in report.json
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recs = check_atom_law(0, configurations=1, replicates=1)
        assert all(math.isfinite(r.statistic) and math.isfinite(
            r.bound_or_target) for r in recs)
        (mean,) = [r for r in recs if r.check_id == "atom-law/positive-mean"]
        assert not mean.passed
        _write(tiny("verify", output_dir=str(tmp_path)), RunArtifacts(recs))

        def no_constants(name):
            raise ValueError(f"report.json holds {name}")

        report = json.loads((tmp_path / "report.json").read_text(),
                            parse_constant=no_constants)
        assert report["all_passed"] is False

    def test_record_shape(self):
        recs = check_natural_scale(SEED, instances=2, replicates=500)
        for r in recs:
            assert len(r.instance_hash) == 16
            int(r.instance_hash, 16)
            assert r.seed.startswith(f"{SEED}/")


class TestRunners:
    def test_verify_reduced_writes_report(self, tmp_path):
        cfg = tiny("verify", family={"scale": 0.06}, replicates=800,
                   output_dir=str(tmp_path / "v"))
        art = run_experiment(cfg)
        assert art.all_passed
        report = json.loads((tmp_path / "v" / "report.json").read_text())
        assert report["all_passed"] is True
        assert report["experiment"] == "verify"
        assert len(report["records"]) == len(art.records)

    def test_verify_scale_validation(self, tmp_path):
        # rejected where the config is built, before any run
        with pytest.raises(ConfigError, match="scale"):
            tiny("verify", family={"scale": 2.0},
                 output_dir=str(tmp_path / "v"))

    def test_stone_small(self, tmp_path):
        cfg = tiny("stone", family={"reference_level": 8},
                   n_list=(2, 4), times=(0.3, 1.0),
                   output_dir=str(tmp_path / "s"))
        art = run_experiment(cfg)
        assert art.all_passed
        kr = {(r["n"], r["time"]): r["kr"] for r in art.tables["distances"]}
        assert kr[(4, 0.3)] < kr[(2, 0.3)]
        assert kr[(4, 1.0)] < kr[(2, 1.0)]
        assert (tmp_path / "s" / "distances.csv").exists()
        with open(tmp_path / "s" / "spaces.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["label", "radius", "hausdorff",
                                             "prohorov", "kr", "m_delta", "flagged"]
        assert all(not row["flagged"] for row in art.tables["spaces"])

    def test_stone_reference_must_divide(self, tmp_path):
        with pytest.raises(ConfigError, match="reference_level"):
            tiny("stone", family={"reference_level": 9},
                 n_list=(2,), output_dir=str(tmp_path / "s"))
        # the default level, 2 * max(n_list) = 8, is not a multiple of 3
        with pytest.raises(ConfigError, match=r"got 8 \(the default"):
            tiny("stone", family={}, n_list=(3, 4), output_dir=str(tmp_path / "s"))

    def test_stone_level_measure_is_midpoint_rule(self):
        tree, measure, half = stone_level(2)
        pos = stone_points(tree)
        order = np.argsort(pos)
        gaps = np.diff(pos[order])
        want = np.empty(tree.n)
        want[order] = 0.5 * (np.append(gaps, 0.0) + np.append(0.0, gaps))
        assert np.allclose(measure.masses, want, rtol=1e-12, atol=0.0)
        assert measure.masses.sum() == pytest.approx(pos.max() - pos.min(), rel=1e-12)
        assert measure.masses.min() > 0
        # the lumped chain carries m(0) at the root and m(x) + m(-x) on its ray
        m = (tree.n - 1) // 2
        assert np.array_equal(half.mass, np.concatenate(
            (measure.masses[:1], measure.masses[1:m + 1] + measure.masses[m + 1:])))

    @pytest.mark.parametrize("n, ref", [(2, 8), (4, 4), (8, 256)])
    def test_reference_ids_land_on_their_twins(self, n, ref):
        tree, _, _ = stone_level(n)
        ref_tree, _, _ = stone_level(ref)
        ids = _stone_reference_ids(n, ref)
        assert ids.shape == (tree.n,) and len(set(ids.tolist())) == tree.n
        assert np.allclose(stone_points(ref_tree)[ids], stone_points(tree),
                           rtol=1e-12, atol=0.0)

    def test_fdd_small(self, tmp_path):
        cfg = tiny("fdd", n_list=(2, 8, 32), output_dir=str(tmp_path / "f"))
        art = run_experiment(cfg)
        assert art.all_passed
        flags = {r["n"]: r["flagged"] for r in art.tables["distances"]
                 if r["time"] == 0.25}
        assert not flags[2] and not flags[8] and flags[32]

    def test_fdd_floor_never_reached_fails(self, tmp_path):
        # sizes too small for the mass floor: the run must say so, not pass
        cfg = tiny("fdd", n_list=(2, 4), output_dir=str(tmp_path / "f"))
        art = run_experiment(cfg)
        assert not art.all_passed
        assert [r.check_id for r in art.failures()] == ["fdd/tightness-fails"]

    def test_crt_small(self, tmp_path):
        cfg = tiny("crt", family={"knots": 128}, n_list=(4, 8),
                   output_dir=str(tmp_path / "c"))
        art = run_experiment(cfg)
        assert art.all_passed
        assert (tmp_path / "c" / "distances.csv").exists()
        for row in art.tables["distances"]:
            assert row["states"] > 0 and row["kr"] >= 0

    def test_shipped_crt_prohorov_falls_in_n(self, tmp_path):
        art = run_experiment(ExperimentConfig.default("crt").replace(
            output_dir=str(tmp_path / "c")))
        by_radius = {}
        for row in art.tables["spaces"]:
            assert not row["flagged"], row
            by_radius.setdefault(row["radius"], []).append(row["prohorov"])
        assert len(by_radius) == 2
        for vals in by_radius.values():
            assert all(b < a for a, b in zip(vals, vals[1:])), vals

    def test_crt_with_512_knots_finishes(self, tmp_path):
        # the heat-kernel series used to stall below 1 - 1e-12 at level n=8
        cfg = tiny("crt", family={"knots": 512}, output_dir=str(tmp_path / "c"))
        art = run_experiment(cfg)
        assert art.all_passed
        assert [r["n"] for r in art.tables["distances"]] == [4, 4, 8, 8, 16, 16]

    @pytest.mark.parametrize("experiment, overrides, header", [
        ("stone", {"family": {"reference_level": 4}, "n_list": (2, 4)},
         ["n", "time", "kr", "reference_level"]),
        ("crt", {"family": {"knots": 32}, "n_list": (2, 4)},
         ["n", "time", "kr", "eps", "states"]),
        ("fdd", {"n_list": (2, 32)},
         ["n", "time", "kr", "joint_kr", "m_delta", "flagged"]),
    ])
    def test_distances_csv_header(self, tmp_path, experiment, overrides, header):
        # the golden digests skip on other numpy and scipy builds; this does not
        run_experiment(tiny(experiment, output_dir=str(tmp_path), **overrides))
        with open(tmp_path / "distances.csv", newline="") as fh:
            assert next(csv.reader(fh)) == header

    def test_entrance_demo_small(self, tmp_path):
        cfg = tiny("binary-entrance", n_list=(2, 3, 4), replicates=600,
                   output_dir=str(tmp_path / "e"))
        art = run_experiment(cfg)
        assert art.all_passed
        assert (tmp_path / "e" / "entrance.csv").exists()
        for row in art.tables["entrance"]:
            assert row["exact"] <= row["bound"]

    def test_entrance_csv_cells_are_plain_floats(self, tmp_path):
        cfg = tiny("binary-entrance", n_list=(2, 3), replicates=50,
                   output_dir=str(tmp_path / "e"))
        run_experiment(cfg)
        with open(tmp_path / "e" / "entrance.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            for key in ("exact", "formula", "bound", "mc_mean", "mc_se"):
                float(row[key])

    def test_kesten_small_with_paths(self, tmp_path):
        cfg = tiny("kesten", n_list=(8,), replicates=40, times=(0.1, 0.3),
                   output_dir=str(tmp_path / "k"))
        art = run_experiment(cfg, dump_paths=True)
        assert art.all_passed
        assert (tmp_path / "k" / "trees" / "kesten-n8.tree").exists()
        prov = json.loads(
            (tmp_path / "k" / "trees" / "kesten-n8.provenance.json").read_text())
        assert prov["kind"] == "kesten" and "seed" in prov
        assert (tmp_path / "k" / "paths" / "kesten-n8.csv").exists()

    def test_coalescent_kinds(self, tmp_path):
        for family, n in ((
            {"kind": "kingman"}, (4, 6)),
            ({"kind": "beta", "a": 1.5, "b": 1.0}, (5,)),
            ({"kind": "atoms", "atoms": [[0.6, 0.5], [0.3, 0.5]]}, (5,)),
        ):
            cfg = tiny("coalescent", family=family, n_list=n, replicates=1200,
                       output_dir=str(tmp_path / family["kind"]))
            art = run_experiment(cfg)
            assert art.all_passed, family

    def test_coalescent_walks_start_away_from_the_root(self, tmp_path):
        cfg = tiny("coalescent", n_list=(4, 8), replicates=400,
                   output_dir=str(tmp_path / "c"))
        art = run_experiment(cfg)
        assert art.all_passed
        mc = [r for r in art.records if r.check_id == "coalescent/hitting-mc"]
        closed = [r for r in art.records if r.check_id == "coalescent/hitting-closed"]
        assert [r.instance for r in mc] == [r.instance for r in closed]
        assert all(r.bound_or_target > 0 and r.statistic > 0 for r in mc)
        assert all(r.statistic <= 1e-9 for r in closed)
        assert all(row["hit_exact"] > 0 and row["hit_se"] > 0
                   for row in art.tables["coalescent"])

    def test_kesten_end_height_has_an_exact_leg(self, tmp_path):
        cfg = tiny("kesten", n_list=(8, 16), replicates=200,
                   output_dir=str(tmp_path / "k"))
        art = run_experiment(cfg)
        assert art.all_passed
        recs = [r for r in art.records if r.check_id == "kesten/end-height"]
        assert [r.instance for r in recs] == ["n=8 t=0.3", "n=16 t=0.3"]
        for rec, row in zip(recs, art.tables["kesten"]):
            assert rec.bound_or_target > 0
            assert rec.statistic == abs(row["mean_end_height"] - row["exact_end_height"])
        with open(tmp_path / "k" / "kesten.csv", newline="") as fh:
            assert "exact_end_height" in next(csv.reader(fh))

    def test_coalescent_rejects_bad_input(self, tmp_path):
        with pytest.raises(ConfigError, match="kind"):
            tiny("coalescent", family={"kind": "unknown"}, n_list=(4,),
                 output_dir=str(tmp_path / "x"))
        with pytest.raises(ConfigError, match="at least 2, got 1"):
            tiny("coalescent", n_list=(4, 1), output_dir=str(tmp_path / "x"))

    def test_reports_are_bytewise_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            cfg = tiny("binary-entrance", n_list=(2, 3), replicates=300,
                       output_dir=str(tmp_path / tag))
            run_experiment(cfg)
            outs.append((tmp_path / tag / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_a_run_that_raises_writes_nothing(self, tmp_path, monkeypatch):
        calls = []

        def second_call_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("ensemble failed")
            return lockstep_ensemble(*args, **kwargs)

        monkeypatch.setattr(harness, "lockstep_ensemble", second_call_fails)
        cfg = tiny("coalescent", n_list=(4, 6), replicates=200,
                   output_dir=str(tmp_path / "out"))
        with pytest.raises(RuntimeError, match="ensemble failed"):
            run_experiment(cfg)
        assert len(calls) == 2
        assert not (tmp_path / "out").exists()

    def test_seed_changes_mc_statistics(self, tmp_path):
        rows = []
        for seed in (SEED, SEED + 1):
            cfg = tiny("coalescent", n_list=(4,), replicates=900,
                       master_seed=seed, output_dir=str(tmp_path / str(seed)))
            art = run_experiment(cfg)
            rows.append(art.tables["coalescent"][0]["hit_mc"])
        assert rows[0] != rows[1]


def _worker_pid(job):
    return os.getpid(), job


def _serial_entrance(master_seed, replicates, n_list):
    """run_entrance_demo's records and rows, built depth by depth in this
    process from the exact leg and one lockstep ensemble per depth."""
    records, rows = [], []
    for depth in n_list:
        h = harness._instance_hash({"check": "entrance-demo", "depth": depth})
        chain, solved, closed, exact_records = harness._entrance_exact(depth, h)
        times = lockstep_ensemble(chain, 2 ** depth - 1, (chain.tree.root,),
                                  harness._spawn(master_seed, 7, depth),
                                  replicates).end_times
        mc_mean = float(times.mean())
        mc_se = float(times.std(ddof=1)) / math.sqrt(replicates)
        records += exact_records + [_mc_record(
            "entrance/mc-return", f"depth={depth}", h, mc_mean, solved, mc_se,
            f"{master_seed}/7.{depth}")]
        rows.append({"depth": depth, "states": chain.n_states, "exact": solved,
                     "formula": closed, "bound": entrance_bound(depth),
                     "mc_mean": mc_mean, "mc_se": mc_se})
    return records, rows


class TestEntranceWorkers:
    """binary-entrance runs its depths in forked workers; nothing it returns
    or writes may depend on that."""

    @pytest.mark.parametrize("cores", ["all", "one"])
    def test_records_and_rows_equal_a_serial_run(self, monkeypatch, cores):
        if cores == "one":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        n_list = (4, 2, 5, 3)
        art = harness.run_entrance_demo(tiny(
            "binary-entrance", n_list=n_list, replicates=300))
        records, rows = _serial_entrance(SEED, 300, n_list)
        assert art.tables == {"entrance": rows}
        assert art.records[:-1] == records
        uniform = art.records[-1]
        assert uniform.check_id == "entrance/depth-uniform"
        assert uniform.statistic == max(row["exact"] for row in rows)

    def test_fan_out_keeps_job_order_and_uses_one_worker_per_core(
            self, monkeypatch):
        jobs = [5, 1, 4, 2, 3]
        done = harness._fan_out(_worker_pid, jobs)
        assert [job for _, job in done] == jobs
        assert os.getpid() not in {pid for pid, _ in done}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert len({pid for pid, _ in harness._fan_out(_worker_pid, jobs)}) == 1
        assert multiprocessing.active_children() == []

    def test_a_worker_crash_exits_three_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        def fails_at_depth_three(chain, *args, **kwargs):
            if chain.tree.n == 15:
                raise ChainError("no walk at depth 3")
            return lockstep_ensemble(chain, *args, **kwargs)

        # forked workers inherit the patched module global
        monkeypatch.setattr(harness, "lockstep_ensemble", fails_at_depth_three)
        path = TestCLI._config(tmp_path, "binary-entrance", n_list=[2, 3, 4],
                               replicates=300, output_dir=str(tmp_path / "out"))
        rc = cli_main(["binary-entrance", "--config", path])
        err = capsys.readouterr().err
        assert rc == 3
        assert ("treeflow: binary-entrance crashed: ChainError: "
                "no walk at depth 3") in err
        assert not (tmp_path / "out").exists()
        assert multiprocessing.active_children() == []

    def test_an_alarm_in_the_parent_ends_every_worker(self, tmp_path,
                                                      monkeypatch):
        class Alarm(BaseException):
            pass

        def hangs(*args, **kwargs):
            (tmp_path / f"{os.getpid()}.pid").write_text("")
            time.sleep(60)

        workers = min(2, len(os.sched_getaffinity(0)))

        def alarm(signum, frame):
            # raise only once every worker is inside its ensemble
            give_up = time.monotonic() + 30
            while (len(list(tmp_path.glob("*.pid"))) < workers
                   and time.monotonic() < give_up):
                time.sleep(0.01)
            raise Alarm()

        monkeypatch.setattr(harness, "lockstep_ensemble", hangs)
        previous = signal.signal(signal.SIGALRM, alarm)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        try:
            with pytest.raises(Alarm):
                harness.run_entrance_demo(tiny(
                    "binary-entrance", n_list=(2, 3), replicates=300))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        pids = [int(p.stem) for p in tmp_path.glob("*.pid")]
        assert len(pids) == workers
        assert multiprocessing.active_children() == []
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def _serial_verify(config):
    """run_verify's records, from its eight checks called in order in this
    process."""
    ms, reps = config.master_seed, config.replicates
    scale = config.family["scale"]

    def k(n):
        return max(2, int(round(n * scale)))

    return (check_natural_scale(ms, instances=k(50),
                                replicates=min(reps, 4000))
            + check_atom_law(ms, configurations=k(10), replicates=reps)
            + check_one_sided_bounds(ms, configurations=k(20),
                                     replicates=min(reps, 2500))
            + check_heat_kernel(ms, chains=k(50)) + check_entrance()
            + check_discretization(ms, trees=k(10))
            + check_metric_oracles(ms, cases=k(30))
            + check_trace(ms, cases=k(30)))


class TestVerifyWorkers:
    """verify runs its Monte Carlo checks in a forked worker while this
    process runs the exact ones; nothing it returns or writes may depend on
    that."""

    CONFIG = tiny("verify", family={"scale": 0.1})

    @pytest.fixture(scope="class")
    def serial(self):
        return _serial_verify(self.CONFIG)

    @pytest.mark.parametrize("cores", ["all", "one"])
    def test_records_equal_a_serial_run(self, monkeypatch, serial, cores):
        if cores == "one":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        art = harness.run_verify(self.CONFIG)
        assert art.records == serial
        assert multiprocessing.active_children() == []

    def test_fan_out_leaves_the_parent_a_core(self, monkeypatch):
        jobs = [5, 1, 4, 2, 3]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        done, mine = harness._fan_out(_worker_pid, jobs, meanwhile=os.getpid)
        assert [job for _, job in done] == jobs
        assert mine == os.getpid()
        assert len({pid for pid, _ in done} | {mine}) == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        done, mine = harness._fan_out(_worker_pid, jobs, meanwhile=os.getpid)
        assert mine not in {pid for pid, _ in done}
        assert multiprocessing.active_children() == []

    def test_a_worker_crash_exits_three_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def fails_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise ChainError("no walk in the worker")
            return lockstep_ensemble(*args, **kwargs)

        # forked workers inherit the patched module global
        monkeypatch.setattr(harness, "lockstep_ensemble", fails_in_a_worker)
        path = TestCLI._config(tmp_path, "verify", family={"scale": 0.1},
                               output_dir=str(tmp_path / "out"))
        rc = cli_main(["verify", "--config", path])
        err = capsys.readouterr().err
        assert rc == 3
        assert ("treeflow: verify crashed: ChainError: "
                "no walk in the worker") in err
        assert not (tmp_path / "out").exists()
        assert multiprocessing.active_children() == []

    def test_an_alarm_in_the_parent_ends_the_worker(self, tmp_path,
                                                    monkeypatch):
        class Alarm(BaseException):
            pass

        def hangs(*args, **kwargs):
            (tmp_path / f"{os.getpid()}.pid").write_text("")
            time.sleep(60)

        def alarm(signum, frame):
            # raise only once the worker is inside its ensemble
            give_up = time.monotonic() + 30
            while (not set(tmp_path.glob("*.pid"))
                   - {tmp_path / f"{os.getpid()}.pid"}
                   and time.monotonic() < give_up):
                time.sleep(0.01)
            raise Alarm()

        # the worker hangs in its first ensemble, this process in its first
        # exact check, so the alarm lands while both are busy
        monkeypatch.setattr(harness, "lockstep_ensemble", hangs)
        monkeypatch.setattr(harness, "check_heat_kernel", hangs)
        previous = signal.signal(signal.SIGALRM, alarm)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        try:
            with pytest.raises(Alarm):
                harness.run_verify(self.CONFIG)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        pids = [int(p.stem) for p in tmp_path.glob("*.pid")]
        assert os.getpid() in pids and len(pids) == 2
        assert multiprocessing.active_children() == []
        for pid in set(pids) - {os.getpid()}:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestCLI:
    def test_pass_run(self, tmp_path, capsys):
        rc = cli_main(["coalescent", "--config",
                       self._config(tmp_path, "coalescent", n_list=[4],
                                    replicates=600,
                                    output_dir=str(tmp_path / "out"))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "report:" in out
        assert "coalescent/ultrametric: 1/1 passed" in out
        assert (tmp_path / "out" / "report.json").exists()

    def test_failing_run_exits_one(self, tmp_path, capsys):
        rc = cli_main(["fdd", "--config",
                       self._config(tmp_path, "fdd", n_list=[2, 4],
                                    output_dir=str(tmp_path / "out"))])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL fdd/tightness-fails" in out

    def test_experiment_mismatch(self, tmp_path, capsys):
        path = self._config(tmp_path, "fdd", n_list=[2],
                            output_dir=str(tmp_path / "out"))
        rc = cli_main(["stone", "--config", path])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli_main(["stone", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = cli_main(["stone", "--config", str(path)])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_seed_and_out_overrides(self, tmp_path, capsys):
        path = self._config(tmp_path, "coalescent", n_list=[4], replicates=400,
                            output_dir=str(tmp_path / "ignored"))
        rc = cli_main(["coalescent", "--config", path, "--seed", "7",
                       "--out", str(tmp_path / "moved")])
        assert rc == 0
        report = json.loads((tmp_path / "moved" / "report.json").read_text())
        assert report["master_seed"] == 7
        assert not (tmp_path / "ignored").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("experiment, family, key", [
        ("crt", {"knots": "abc"}, "knots"),
        ("crt", {"knots": -4}, "knots"),
        ("kesten", {"horizon": -1}, "horizon"),
        ("coalescent", {"kind": "beta"}, "family.a"),
        ("stone", {"reference_level": 100}, "reference_level"),
        ("fdd", {"mass_floor": "x"}, "mass_floor"),
        # keys that only ever took one value, now constants of their runners
        ("stone", {"reference_level": 256, "span_exponent": 2},
         "unknown key 'span_exponent' for experiment 'stone'"),
        ("stone", {"reference_level": 256, "delta": 0.25},
         "unknown key 'delta' for experiment 'stone'"),
        ("crt", {"knots": 256, "delta": 0.1},
         "unknown key 'delta' for experiment 'crt'"),
        ("fdd", {"mass_floor": 0.05, "with_joint": True},
         "unknown key 'with_joint' for experiment 'fdd'"),
    ])
    def test_bad_family_value_exits_two(self, tmp_path, capsys, experiment,
                                        family, key):
        path = self._config(tmp_path, experiment, family=family,
                            output_dir=str(tmp_path / "out"))
        rc = cli_main([experiment, "--config", path])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, overrides, key", [
        ("coalescent", {"n_list": [4, 1]}, "n_list: coalescent sizes"),
        ("stone", {"n_list": [3, 4], "family": {}},
         "(the default, 2 * max(n_list))"),
        ("fdd", {"n_list": [10, 10, 10]}, "n_list: sizes must be distinct, got 10"),
        ("kesten", {"n_list": [8, 4, 8]}, "n_list: sizes must be distinct, got 8"),
        # the runs that take laws at config.times need at least one
        ("stone", {"times": []}, "times: must be nonempty for experiment 'stone'"),
        ("crt", {"times": []}, "times: must be nonempty for experiment 'crt'"),
        ("fdd", {"times": []}, "times: must be nonempty for experiment 'fdd'"),
        ("kesten", {"times": []}, "times: must be nonempty for experiment 'kesten'"),
        # values a run would ignore
        ("verify", {"times": [0.5]}, "times: must be empty for experiment 'verify'"),
        ("coalescent", {"times": [0.5]},
         "times: must be empty for experiment 'coalescent'"),
        ("binary-entrance", {"times": [0.5]},
         "times: must be empty for experiment 'binary-entrance'"),
        ("stone", {"replicates": 4000},
         "replicates: must be 1 for experiment 'stone'"),
        ("crt", {"replicates": 2}, "replicates: must be 1 for experiment 'crt'"),
        ("fdd", {"replicates": 10}, "replicates: must be 1 for experiment 'fdd'"),
        # the trend records of the exact runs read their gaps in n_list order
        ("stone", {"n_list": [32, 8]},
         "n_list: must hold at least two sizes in strictly increasing order"),
        ("fdd", {"n_list": [128, 32, 8, 2]},
         "n_list: must hold at least two sizes in strictly increasing order"),
        ("crt", {"n_list": [16, 8, 4]},
         "n_list: must hold at least two sizes in strictly increasing order"),
        ("crt", {"n_list": [4, 16, 8]}, "n_list: must hold at least two sizes"),
        ("stone", {"n_list": [8]}, "n_list: must hold at least two sizes"),
        ("fdd", {"n_list": [2]}, "for experiment 'fdd', got [2]"),
    ])
    def test_bad_size_exits_two_before_writing(self, tmp_path, capsys,
                                               experiment, overrides, key):
        path = self._config(tmp_path, experiment, **overrides,
                            output_dir=str(tmp_path / "out"))
        rc = cli_main([experiment, "--config", path])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, raw", [
        ("times", '["x"]'),
        ("times", "[0.25, null]"),
        ("times", "[0.25, 1e999]"),
        ("times", "[true]"),
        ("n_list", "[true]"),
        ("replicates", "true"),
        ("master_seed", "true"),
    ])
    def test_bad_top_level_value_exits_two(self, tmp_path, capsys, field, raw):
        blob = json.loads(ExperimentConfig.default("fdd").to_json())
        blob[field] = "@"
        blob["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "fdd.json"
        path.write_text(json.dumps(blob).replace('"@"', raw))
        rc = cli_main(["fdd", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config error: {field}:" in err
        assert not (tmp_path / "out").exists()

    def test_crash_exits_three(self, tmp_path, capsys, monkeypatch):
        def boom(config, dump_paths=False):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr("treeflow.cli.run_experiment", boom)
        rc = cli_main(["fdd", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "fdd crashed: RuntimeError: solver exploded" in err

    @pytest.mark.parametrize("experiment", ["stone", "crt", "fdd", "verify",
                                            "binary-entrance", "coalescent"])
    def test_dump_paths_rejected_without_paths(self, tmp_path, capsys,
                                               experiment):
        rc = cli_main([experiment, "--dump-paths", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error: --dump-paths" in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])

    @staticmethod
    def _config(tmp_path, experiment, **overrides):
        blob = json.loads(ExperimentConfig.default(experiment).to_json())
        blob.update(overrides)
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps(blob))
        return str(path)
