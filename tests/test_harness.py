"""Config parsing, record plumbing, ensemble cross-checks, and runner smoke.

Monte Carlo assertions run at pinned seeds, so they are deterministic;
tolerances are the same 3-4 sigma bands the harness itself uses.
"""

import csv
import dataclasses
import json

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
from treeflow.measures import FiniteAtomMeasure
from treeflow.tree import SpeedMeasure
from treeflow.walk import build_chain, lockstep_ensemble
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
        mu = FiniteAtomMeasure((0.0, 1.0), (0.5, 0.5))
        levels = [(n, [mu], {}) for n in (2, 8, 32)]
        _, records = harness._law_distances(
            "x", (1.0,), levels, [mu], lambda p, q: abs(p - q), "s")
        trend = [(r.statistic, r.passed) for r in records if r.check_id == "x/trend"]
        assert trend == [(0.0, False)]


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
        cfg = tiny("stone", family={"span_exponent": 2, "reference_level": 8},
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
            tiny("stone", family={"span_exponent": 2, "reference_level": 9},
                 n_list=(2,), output_dir=str(tmp_path / "s"))
        # the default level, 2 * max(n_list) = 8, is not a multiple of 3
        with pytest.raises(ConfigError, match=r"got 8 \(the default"):
            tiny("stone", family={}, n_list=(3, 4), output_dir=str(tmp_path / "s"))

    def test_stone_level_measure_is_midpoint_rule(self):
        tree, measure, pos = stone_level(2, span_exponent=2)
        order = np.argsort(pos)
        total = pos[order][-1] - pos[order][0]
        assert measure.masses.sum() == pytest.approx(total, rel=1e-12)
        assert measure.masses.min() > 0
        ids = _stone_reference_ids(2, 8, 2)
        _, _, ref_pos = stone_level(8, span_exponent=2)
        assert np.allclose(ref_pos[ids], pos, atol=1e-12)

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
