import inspect
import sys
import time

import pytest

import run
import tracer as tracer_mod
from tracer import LAYERS, Tracer


def _bindings():
    """Every module-level and class-level binding the tracer could touch."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "treeflow" or name.startswith("treeflow.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if type(value) is dict:
                for k, v in value.items():
                    out[(name, key, k)] = v
            if inspect.isclass(value):
                for k, v in vars(value).items():
                    out[(name, key, "class", k)] = v
    return out


def _assert_unchanged(before):
    after = _bindings()
    changed = [k for k in before if after.get(k, None) is not before[k]]
    assert changed == []


def test_patches_every_namespace_and_restores():
    from treeflow import cli, harness, tree, walk

    before = _bindings()
    with Tracer():
        # harness's ``from .walk import build_chain`` name and the defining
        # module share one wrapper
        assert harness.build_chain is walk.build_chain
        assert harness.build_chain is not before[("treeflow.walk", "build_chain")]
        assert harness.RUNNERS["verify"] is harness.run_verify
        assert harness.RUNNERS["verify"] is not before[("treeflow.harness", "run_verify")]
        assert (tree.RootedMetricTree.distance
                is not before[("treeflow.tree", "RootedMetricTree", "class", "distance")])
        assert cli.main is not before[("treeflow.cli", "main")]
    _assert_unchanged(before)


def test_restores_when_the_block_raises():
    before = _bindings()
    with pytest.raises(KeyError):
        with Tracer():
            raise KeyError("boom")
    _assert_unchanged(before)


def test_a_public_function_added_later_is_traced(monkeypatch):
    from treeflow import harness, walk

    def engine(x):
        return x + 1

    engine.__module__ = "treeflow.walk"
    monkeypatch.setattr(walk, "engine", engine, raising=False)
    monkeypatch.setattr(harness, "engine", engine, raising=False)
    with Tracer() as t:
        assert harness.engine is walk.engine is not engine
        assert harness.engine(1) == 2
    assert t.calls("walk.engine") == 1
    assert harness.engine is engine


def test_every_layer_is_enumerated():
    layers = {name.split(".", 1)[0] for name, *_ in tracer_mod.traced_functions()}
    assert layers == set(LAYERS)


def test_self_times_add_up_to_the_traced_wall(small_configs, tmp_path):
    deadline = time.perf_counter() + 120
    with Tracer() as t:
        result = run.run_pass(small_configs + [("fdd", [])], 20240817,
                              tmp_path / "out", deadline, tracer=t)
    assert all(e.status == "ok" for e in result.experiments)
    layers = t.layer_self()
    assert all(v >= 0 for v in layers.values())
    # every traced second sits in exactly one layer; what is left is the
    # benchmark's own bookkeeping around each CLI call
    gap = result.wall_s - sum(layers.values())
    assert 0 <= gap <= 0.01 * result.wall_s + 0.01
    for e in result.experiments:
        assert abs(sum(e.layer_self_s.values()) - e.seconds) <= 0.01 * e.seconds + 0.01


def test_work_counts_repeat_exactly(small_configs, tmp_path):
    counts = []
    digests = []
    for i in range(2):
        with Tracer() as t:
            result = run.run_pass(small_configs, 20240817, tmp_path / f"o{i}",
                                  time.perf_counter() + 120, tracer=t)
        metrics = run.layer_metrics(t, result, result.wall_s)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
        digests.append([e.digest for e in result.experiments])
    for key in ("exact.heat_kernel.terms", "tree.check_four_point.quadruples",
                "measures.kr_distance.lp_rows"):
        assert counts[0][key] > 0
    assert counts[0] == counts[1]
    assert digests[0] == digests[1]
