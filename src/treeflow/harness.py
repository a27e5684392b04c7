"""Batch experiment harness.

Experiments are driven by strict JSON configs: a verification suite that
replays the library's closed forms and bounds against simulation and linear
algebra on seeded instances, and convergence runs that compare walk laws
across discretization levels of a common ambient space.  Each runner is a
pure function of its config and returns one RunArtifacts; run_experiment
then writes every file of the run in one place, so a run that raises writes
nothing.  Everything downstream of (config, master_seed) is deterministic,
so the files are byte-stable.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import exact
from .families import (
    CoalescentSpec,
    binary_tree,
    coalescent_speed_measure,
    coalescent_tree,
    kesten_excursion,
)
from .measures import (
    FiniteAtomMeasure,
    gh_vague_report,
    hausdorff_distance,
    kr_bruteforce,
    kr_distance,
    prohorov,
    prohorov_bruteforce,
    tree_metric,
)
from .tree import (
    RootedMetricTree,
    SpeedMeasure,
    branch_closure,
    build_tree,
    check_four_point,
    discretize,
    lower_mass,
    save_tree,
    spanned_subtree,
)
from .walk import (
    WalkChain,
    build_chain,
    export_paths_csv,
    lockstep_ensemble,
    rng_from,
)

EXPERIMENTS = ("verify", "stone", "crt", "binary-entrance", "kesten",
               "coalescent", "fdd")


def _is_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _integer_from(low: int):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, int) or v < low:
            return f"must be an integer >= {low}"
    return check


def _positive(v):
    if not (_is_number(v) and v > 0):
        return "must be a positive number"


def _unit_interval(v):
    if not (_is_number(v) and 0 < v <= 1):
        return "must be a number in (0, 1]"


def _coalescent_kind(v):
    if v not in ("kingman", "beta", "atoms"):
        return "must be one of 'kingman', 'beta', 'atoms'"


def _atom_list(v):
    if not (isinstance(v, list) and v and all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))
            and 0 < p[0] <= 1 and p[1] > 0 for p in v)):
        return "must be a nonempty list of [x, w] pairs with 0 < x <= 1 and w > 0"


# allowed family keys per experiment and the check on each value; a check
# returns a description of the problem, or None when the value is fine
_FAMILY_SCHEMA = {
    "verify": {"scale": _unit_interval},
    "stone": {"reference_level": _integer_from(1)},
    "crt": {"knots": _integer_from(2)},
    "binary-entrance": {},
    "kesten": {"horizon": _positive},
    "coalescent": {"kind": _coalescent_kind, "a": _positive, "b": _positive,
                   "atoms": _atom_list},
    "fdd": {"mass_floor": _positive},
}
# experiments whose laws are taken at config.times; the others read none
_TIMED = ("stone", "crt", "kesten", "fdd")
# experiments whose laws are all exact, so they draw no replicates
_EXACT = ("stone", "crt", "fdd")


class ConfigError(ValueError):
    """Malformed experiment configuration; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    family: dict
    n_list: tuple
    times: tuple
    replicates: int
    master_seed: int
    output_dir: str

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: unknown name {self.experiment!r}")
        if not isinstance(self.family, dict):
            raise ConfigError("family: must be an object")
        extra = set(self.family) - set(_FAMILY_SCHEMA[self.experiment])
        if extra:
            raise ConfigError(
                f"family: unknown key {sorted(extra)[0]!r} for "
                f"experiment {self.experiment!r}")
        if not self.n_list:
            raise ConfigError("n_list: must be nonempty")
        # a repeated size would write a NaN trend statistic and overwrite
        # its own per-size files
        seen = set()
        for n in self.n_list:
            if _integer_from(1)(n):
                raise ConfigError(f"n_list: sizes must be positive integers, got {n!r}")
            if n in seen:
                raise ConfigError(f"n_list: sizes must be distinct, got {n!r} twice")
            seen.add(n)
        for t in self.times:
            if _positive(t):
                raise ConfigError(f"times: entries must be positive finite numbers, got {t!r}")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("times: must be strictly increasing")
        if not self.times and self.experiment in _TIMED:
            raise ConfigError(f"times: must be nonempty for experiment "
                              f"{self.experiment!r}")
        if self.times and self.experiment not in _TIMED:
            raise ConfigError(f"times: must be empty for experiment "
                              f"{self.experiment!r}, which reads no times")
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if _integer_from(1)(self.replicates):
            raise ConfigError("replicates: must be a positive integer")
        if self.replicates != 1 and self.experiment in _EXACT:
            raise ConfigError(f"replicates: must be 1 for experiment "
                              f"{self.experiment!r}, whose laws are exact, "
                              f"got {self.replicates!r}")
        if _integer_from(0)(self.master_seed) or self.master_seed >= 2 ** 64:
            raise ConfigError("master_seed: must be an integer in [0, 2^64)")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir: must be a nonempty path")
        self._check_family_values()

    def _check_family_values(self):
        family = self.family
        for key, check in _FAMILY_SCHEMA[self.experiment].items():
            problem = check(family[key]) if key in family else None
            if problem:
                raise ConfigError(f"family.{key}: {problem}, got {family[key]!r}")
        if self.experiment == "stone":
            ref = family.get("reference_level", 2 * max(self.n_list))
            if any(ref % n for n in self.n_list):
                origin = ("" if "reference_level" in family
                          else " (the default, 2 * max(n_list))")
                raise ConfigError(
                    f"family.reference_level: must be a multiple of every n in "
                    f"n_list, got {ref!r}{origin}")
        if self.experiment == "coalescent":
            if min(self.n_list) < 2:
                raise ConfigError(f"n_list: coalescent sizes must be at least 2, "
                                  f"got {min(self.n_list)!r}")
            kind = family.get("kind", "kingman")
            for key in {"beta": ("a", "b"), "atoms": ("atoms",)}.get(kind, ()):
                if key not in family:
                    raise ConfigError(f"family.{key}: required when kind is {kind!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"line {e.lineno}, column {e.colno}: {e.msg}") from None
        if not isinstance(data, dict):
            raise ConfigError("top level must be an object")
        names = [f.name for f in dataclasses.fields(cls)]
        unknown = set(data) - set(names)
        if unknown:
            raise ConfigError(f"unknown field {sorted(unknown)[0]!r}")
        missing = [f for f in names if f not in data]
        if missing:
            raise ConfigError(f"missing field {missing[0]!r}")
        if not isinstance(data["n_list"], list):
            raise ConfigError("n_list: must be a list")
        if not isinstance(data["times"], list):
            raise ConfigError("times: must be a list")
        return cls(**{**data, "n_list": tuple(data["n_list"]),
                      "times": tuple(data["times"])})

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    @classmethod
    def default(cls, experiment: str) -> "ExperimentConfig":
        """Shipped configuration for each experiment name."""
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: unknown name {experiment!r}")
        res = resources.files("treeflow").joinpath("configs", f"{experiment}.json")
        return cls.from_json(res.read_text(encoding="utf-8"))

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------------ records

@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    instance: str
    instance_hash: str
    statistic: float
    bound_or_target: float
    tolerance: float
    passed: bool
    seed: str

    def __post_init__(self):
        # numpy scalars sneak in from comparisons; keep records json-clean
        object.__setattr__(self, "statistic", float(self.statistic))
        object.__setattr__(self, "bound_or_target", float(self.bound_or_target))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", bool(self.passed))


def _instance_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _mc_record(check_id, instance, h, mc, exact_value, se, seed) -> CheckRecord:
    """Monte Carlo mean ``mc`` against its exact value, inside 4 standard
    errors ``se``.  A zero standard error means the check measured nothing
    (every replicate gave the same number), so the record fails."""
    err = abs(mc - exact_value)
    band = 4.0 * se
    return CheckRecord(check_id, instance, h, err, band, band,
                       se > 0.0 and err <= band, seed)


def _spawn(master_seed: int, *key) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(master_seed),
                                  spawn_key=tuple(int(k) for k in key))


def _seed_label(master_seed: int, *key) -> str:
    return f"{master_seed}/" + ".".join(str(int(k)) for k in key)


def _random_instance(rng, n_low=5, n_high=12):
    """Random rooted tree with positive masses; deterministic given rng."""
    n = int(rng.integers(n_low, n_high + 1))
    parents = {v: int(rng.integers(0, v)) for v in range(1, n)}
    lengths = {v: float(rng.uniform(0.2, 1.5)) for v in range(1, n)}
    tree = build_tree(parents, lengths, root=0)
    masses = rng.uniform(0.3, 2.0, size=n)
    return tree, SpeedMeasure(masses)


def _tree_payload(tree: RootedMetricTree, measure: SpeedMeasure) -> dict:
    return {
        "parents": [int(p) for p in tree.parent],
        "lengths": [repr(float(x)) for x in tree.edge_length],
        "masses": [repr(float(x)) for x in measure.masses],
        "root": int(tree.root),
    }


def _segment_instance(rng):
    """A _random_instance, redrawn until its diameter segment a-b has an
    interior vertex; returns (tree, measure, middle interior vertex, a, b)."""
    while True:
        tree, measure = _random_instance(rng)
        a, b = _diameter_pair(tree)
        everyone = np.arange(tree.n)
        inside = np.flatnonzero(tree.on_segment(everyone, a, b)
                                & (everyone != a) & (everyone != b))
        if len(inside):
            return tree, measure, int(inside[len(inside) // 2]), a, b


def _diameter_pair(tree: RootedMetricTree):
    d0 = tree.distances_from(0)
    a = int(np.argmax(d0))
    da = tree.distances_from(a)
    b = int(np.argmax(da))
    return a, b


# ------------------------------------------------------ verification checks

def check_natural_scale(master_seed: int, instances: int = 50,
                        replicates: int = 4000) -> list:
    """Linear hitting probabilities: closed form vs harmonic solve vs MC."""
    records = []
    for i in range(instances):
        tree, measure, x, a, b = _segment_instance(
            rng_from(_spawn(master_seed, 3, i)))
        payload = _tree_payload(tree, measure)
        payload.update(check="natural-scale", index=i, x=x, a=a, b=b)
        h = _instance_hash(payload)
        p = exact.hitting_prob(tree, x, a, b)
        ext = exact.harmonic_extension(tree, {a: 1.0, b: 0.0})
        err = abs(float(ext[x]) - p)
        records.append(CheckRecord(
            "natural-scale/formula", f"instance[{i}] x={x} a={a} b={b}", h,
            err, 1e-10, 1e-10, err <= 1e-10,
            _seed_label(master_seed, 3, i)))
        chain = build_chain(tree, measure)
        ens = lockstep_ensemble(chain, x, (a, b), _spawn(master_seed, 3, i, 1),
                                replicates)
        freq = float(np.mean(ens.endpoints == a))
        sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / replicates)
        records.append(CheckRecord(
            "natural-scale/mc", f"instance[{i}] x={x} a={a} b={b}", h,
            abs(freq - p), 3.0 * sigma, 3.0 * sigma,
            abs(freq - p) <= 3.0 * sigma,
            _seed_label(master_seed, 3, i, 1)))
    return records


def check_atom_law(master_seed: int, configurations: int = 10,
                   replicates: int = 10_000) -> list:
    """Zero-or-exponential passage law at an interior atom, against MC."""
    records = []
    for i in range(configurations):
        tree, measure, w, u, v = _segment_instance(
            rng_from(_spawn(master_seed, 4, i)))
        law = exact.atom_law(tree, measure, w, u, v)
        payload = _tree_payload(tree, measure)
        payload.update(check="atom-law", index=i, w=w, u=u, v=v)
        h = _instance_hash(payload)
        chain = build_chain(tree, measure)
        occ = lockstep_ensemble(chain, w, (v,), _spawn(master_seed, 4, i, 1),
                                replicates, occupy=u).occupation
        frac0 = float(np.mean(occ == 0.0))
        sigma0 = math.sqrt(max(law.zero_weight * (1 - law.zero_weight), 1e-12)
                           / replicates)
        records.append(CheckRecord(
            "atom-law/zero-fraction", f"config[{i}] w={w} u={u} v={v}", h,
            abs(frac0 - law.zero_weight), 3.0 * sigma0, 3.0 * sigma0,
            abs(frac0 - law.zero_weight) <= 3.0 * sigma0,
            _seed_label(master_seed, 4, i, 1)))
        positive = occ[occ > 0.0]
        # exponential branch: sd equals the mean.  A run with no positive
        # occupation measured nothing: its mean is taken as 0 and it fails
        mean = float(positive.mean()) if len(positive) else 0.0
        se = law.exp_mean / math.sqrt(max(len(positive), 1))
        err = abs(mean - law.exp_mean)
        records.append(CheckRecord(
            "atom-law/positive-mean", f"config[{i}] w={w} u={u} v={v}", h,
            err, 3.0 * se, 3.0 * se, len(positive) > 0 and err <= 3.0 * se,
            _seed_label(master_seed, 4, i, 1)))
    return records


def check_one_sided_bounds(master_seed: int, configurations: int = 20,
                           replicates: int = 2500) -> list:
    """MC frequencies stay below the hit and escape bounds plus 3 SE."""
    records = []
    for i in range(configurations):
        rng = rng_from(_spawn(master_seed, 5, i))
        tree, measure = _random_instance(rng, n_low=6)
        x, v = _diameter_pair(tree)
        # weight the start so short horizons still see some arrivals
        masses = measure.masses.copy()
        masses[x] *= 4.0 + 3.0 * (i % 3)
        measure = SpeedMeasure(masses)
        d = tree.distance(x, v)
        delta = 0.1 * d
        m = measure.ball_mass(tree, x, delta, closed=False)
        t = (0.2, 0.5, 1.0, 2.0)[i % 4] * (d - delta) * m
        bound = exact.hit_bound(tree, measure, x, v, t, delta)
        payload = _tree_payload(tree, measure)
        payload.update(check="hit-bound", index=i, x=x, v=v,
                       t=repr(t), delta=repr(delta))
        h = _instance_hash(payload)
        chain = build_chain(tree, measure)
        times = lockstep_ensemble(chain, x, (v,), _spawn(master_seed, 5, i, 1),
                                  replicates).end_times
        freq = float(np.mean(times <= t))
        se = math.sqrt(max(freq * (1 - freq), 1.0 / replicates) / replicates)
        records.append(CheckRecord(
            "bounds/hit", f"config[{i}] x={x} v={v}", h,
            freq, bound + 3.0 * se, 3.0 * se, freq <= bound + 3.0 * se,
            _seed_label(master_seed, 5, i, 1)))
    for i in range(configurations):
        rng = rng_from(_spawn(master_seed, 5, 1000 + i))
        tree, measure = _random_instance(rng, n_low=6)
        x, far = _diameter_pair(tree)
        eps = 0.5 * tree.distance(x, far)
        delta = 0.05 * eps
        m = measure.ball_mass(tree, x, delta, closed=False)
        t = 0.3 * (eps - delta) * m
        bound = exact.speed_bound(tree, measure, x, t, eps, delta)
        payload = _tree_payload(tree, measure)
        payload.update(check="speed-bound", index=i, x=x,
                       eps=repr(eps), delta=repr(delta), t=repr(t))
        h = _instance_hash(payload)
        # t < (eps - delta) * m by construction, so the bound is finite
        chain = build_chain(tree, measure)
        disp = tree.distances_from(x)[chain.states]
        ens = lockstep_ensemble(chain, x, chain.states[disp >= eps - 1e-12],
                                _spawn(master_seed, 5, 1000 + i, 1),
                                replicates, horizon=t)
        freq = float(ens.stopped.mean())
        se = math.sqrt(max(freq * (1 - freq), 1.0 / replicates) / replicates)
        records.append(CheckRecord(
            "bounds/speed", f"config[{i}] x={x}", h,
            freq, min(bound, 1e300) + 3.0 * se, 3.0 * se,
            freq <= bound + 3.0 * se,
            _seed_label(master_seed, 5, 1000 + i, 1)))
    return records


def check_heat_kernel(master_seed: int, chains: int = 50) -> list:
    """Mass, symmetry and norm bounds of the eigen transition laws, and their
    gap to the uniformization series, from every start."""
    records = []
    times = (0.3, 0.9, 1.8, 4.0)
    for i in range(chains):
        rng = rng_from(_spawn(master_seed, 6, i))
        tree, measure = _random_instance(rng, n_low=4, n_high=12)
        chain = build_chain(tree, measure)
        payload = _tree_payload(tree, measure)
        payload.update(check="heat-kernel", index=i, times=[repr(t) for t in times])
        h = _instance_hash(payload)
        seed_lbl = _seed_label(master_seed, 6, i)
        laws = exact.transition_laws(chain, chain.states, times)
        series = [exact.heat_kernel(chain, int(s), times) for s in chain.states]
        defect = float(np.abs(laws.sum(axis=2) - 1.0).max())
        records.append(CheckRecord(
            "heat-kernel/mass", f"chain[{i}]", h, defect, 1e-10, 1e-10,
            defect <= 1e-10, seed_lbl))
        weighted = chain.mass[:, None] * laws
        sym = float(np.abs(weighted - weighted.transpose(0, 2, 1)).max())
        records.append(CheckRecord(
            "heat-kernel/symmetry", f"chain[{i}]", h, sym, 1e-10, 1e-10,
            sym <= 1e-10, seed_lbl))
        norms = (laws * laws / chain.mass).sum(axis=2)
        ceiling = np.array([exact.l2_bound(chain, t) for t in times])
        excess = float((norms - ceiling[:, None]).max())
        records.append(CheckRecord(
            "heat-kernel/l2-bound", f"chain[{i}]", h, excess, 0.0, 1e-9,
            excess <= 1e-9, seed_lbl))
        k = max(1, chain.n_states // 3)
        subset = [int(s) for s in rng.choice(chain.states, size=k, replace=False)]
        prob = laws[:, :, np.isin(chain.states, subset)].sum(axis=2)
        ceiling = np.array([exact.set_prob_bound(chain, t, subset) for t in times])
        set_excess = float((prob - ceiling[:, None]).max())
        records.append(CheckRecord(
            "heat-kernel/set-bound", f"chain[{i}] |A|={k}", h, set_excess,
            0.0, 1e-9, set_excess <= 1e-9, seed_lbl))
        gap = max(float(np.abs(laws[:, a] - r.laws).max())
                  for a, r in enumerate(series))
        records.append(CheckRecord(
            "heat-kernel/series", f"chain[{i}]", h, gap, 1e-9, 1e-9,
            gap <= 1e-9, seed_lbl))
    return records


def entrance_bound(depth: int) -> float:
    """Partial sum k 2^k e^(-k) controlling the return time to the root."""
    return sum(k * 2.0 ** k * math.exp(-k) for k in range(1, depth + 1))


def _entrance_leaf(depth: int) -> int:
    """Leftmost deepest vertex of binary_tree(depth), in level order."""
    return 2 ** depth - 1


def _entrance_exact(depth: int, h: str):
    """Root return time from the leftmost deepest leaf of binary_tree(depth).

    Returns the chain, the solved and closed-form times, and the
    solve-vs-formula and upper-bound records under instance hash ``h``.
    """
    tree, measure = binary_tree(depth)
    chain = build_chain(tree, measure)
    leaf = _entrance_leaf(depth)
    solved = exact.expected_hitting(chain, leaf, tree.root)
    closed = exact.occupation_functional(tree, measure, leaf, tree.root)
    rel = abs(solved - closed) / closed
    bound = entrance_bound(depth)
    records = [
        CheckRecord("entrance/solve-vs-formula", f"depth={depth}", h, rel,
                    1e-9, 1e-9, rel <= 1e-9, "deterministic"),
        CheckRecord("entrance/upper-bound", f"depth={depth}", h, solved,
                    bound, 0.0, solved <= bound + 1e-12, "deterministic"),
    ]
    return chain, solved, closed, records


def check_entrance(depths=tuple(range(2, 13))) -> list:
    """Return-time identity and bound on exponentially weighted binary trees."""
    records = []
    for depth in depths:
        payload = {"check": "entrance", "depth": depth, "leaf": _entrance_leaf(depth)}
        records += _entrance_exact(depth, _instance_hash(payload))[3]
    return records


def check_discretization(master_seed: int, trees: int = 10,
                         levels=(2, 4, 8, 16)) -> list:
    """Net pushforwards sit within 1/n in Hausdorff and Prohorov distance."""
    records = []
    for i in range(trees):
        rng = rng_from(_spawn(master_seed, 8, i))
        tree, measure = _random_instance(rng, n_low=8, n_high=16)
        scale = tree.diameter()
        lengths = {v: float(tree.edge_length[v]) * 2.0 / scale
                   for v in range(tree.n) if v != tree.root}
        parents = {v: int(tree.parent[v]) for v in range(tree.n) if v != tree.root}
        tree = build_tree(parents, lengths, root=int(tree.root))
        payload = _tree_payload(tree, measure)
        payload.update(check="discretization", index=i)
        h = _instance_hash(payload)
        dist = tree_metric(tree)
        mu = FiniteAtomMeasure.from_dict(
            {v: float(measure.masses[v]) for v in range(tree.n)})
        for n in levels:
            eps = 1.0 / n
            disc = discretize(tree, measure, eps)
            haus = hausdorff_distance(tree, list(range(tree.n)),
                                      [int(v) for v in disc.subset])
            records.append(CheckRecord(
                "net/hausdorff", f"tree[{i}] n={n}", h, haus, eps, 1e-9,
                haus <= eps + 1e-9, _seed_label(master_seed, 8, i)))
            nu = FiniteAtomMeasure.from_dict(
                {v: float(disc.pushforward.masses[v]) for v in range(tree.n)
                 if disc.pushforward.masses[v] > 0})
            pro = prohorov(mu, nu, dist)
            records.append(CheckRecord(
                "net/prohorov", f"tree[{i}] n={n}", h, pro, eps, 1e-9,
                pro <= eps + 1e-9, _seed_label(master_seed, 8, i)))
    return records


def check_metric_oracles(master_seed: int, cases: int = 30) -> list:
    """Window-scan Prohorov vs subset search; LP dual vs vertex enumeration."""
    records = []
    for i in range(cases):
        rng = rng_from(_spawn(master_seed, 9, i))
        pts = np.sort(rng.uniform(0.0, 3.0, size=int(rng.integers(4, 8))))
        dist = lambda a, b: abs(a - b)

        def rand_measure(max_atoms):
            k = int(rng.integers(1, max_atoms + 1))
            chosen = rng.choice(len(pts), size=k, replace=False)
            return FiniteAtomMeasure(
                tuple(float(pts[j]) for j in sorted(chosen)),
                tuple(float(w) for w in rng.uniform(0.1, 1.0, size=k)))

        mu, nu = rand_measure(4), rand_measure(4)
        a = prohorov(mu, nu, dist)
        b = prohorov_bruteforce(mu, nu, dist)
        payload = {"check": "metric", "index": i,
                   "mu": sorted(mu.as_dict().items()),
                   "nu": sorted(nu.as_dict().items())}
        h = _instance_hash(payload)
        records.append(CheckRecord(
            "metric/prohorov", f"case[{i}]", h, abs(a - b), 1e-9, 1e-9,
            abs(a - b) <= 1e-9, _seed_label(master_seed, 9, i)))
        # the enumeration oracle caps the union support at five points
        mu, nu = rand_measure(3), rand_measure(2)
        a = kr_distance(mu, nu, dist)
        b = kr_bruteforce(mu, nu, dist)
        records.append(CheckRecord(
            "metric/kr", f"case[{i}]", h, abs(a - b), 1e-9, 1e-9,
            abs(a - b) <= 1e-9, _seed_label(master_seed, 9, i)))
    return records


def check_trace(master_seed: int, cases: int = 30) -> list:
    """Nested trace networks: energy of the harmonic extension is conserved."""
    records = []
    for i in range(cases):
        rng = rng_from(_spawn(master_seed, 10, i))
        while True:
            tree, _ = _random_instance(rng, n_low=8, n_high=14)
            big = branch_closure(
                tree, {0} | {int(v) for v in
                             rng.choice(tree.n, size=tree.n // 2, replace=False)})
            small_base = {0} | {int(v) for v in
                                rng.choice(big, size=max(2, len(big) // 3),
                                           replace=False)}
            small = branch_closure(tree, small_base)
            if 2 <= len(small) < len(big):
                break
        sub_big, ids_big = spanned_subtree(tree, big)
        sub_small, ids_small = spanned_subtree(tree, small)
        pos_big = {int(v): j for j, v in enumerate(ids_big)}
        pos_small = {int(v): j for j, v in enumerate(ids_small)}
        g = {int(v): float(rng.uniform(0.0, 1.0)) for v in ids_small}
        ext = exact.harmonic_extension(sub_big,
                                       {pos_big[v]: g[v] for v in g})
        e_big = exact.tree_energy(sub_big, ext)
        f_small = np.array([g[int(v)] for v in ids_small])
        e_small = exact.tree_energy(sub_small, f_small)
        payload = _tree_payload(tree, SpeedMeasure(np.ones(tree.n)))
        payload.update(check="trace", index=i,
                       big=[int(v) for v in ids_big],
                       small=[int(v) for v in ids_small],
                       values=[repr(g[int(v)]) for v in ids_small])
        h = _instance_hash(payload)
        err = abs(e_big - e_small)
        records.append(CheckRecord(
            "trace/energy", f"case[{i}] |S|={len(big)} |S'|={len(small)}", h,
            err, 1e-10, 1e-10, err <= 1e-10,
            _seed_label(master_seed, 10, i)))
    return records


# ------------------------------------------------------------------ runners

@dataclass
class RunArtifacts:
    """Everything one run produced; `_write` turns it into files.

    ``records`` become report.json and each ``tables`` entry, a list of row
    dicts, becomes ``<name>.csv``.  ``trees`` maps a name to (tree, measure,
    provenance) for ``trees/<name>.tree`` and its ``.provenance.json``;
    ``paths`` maps a name to a path log for ``paths/<name>.csv``.
    """

    records: list
    tables: dict = field(default_factory=dict)
    trees: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> list:
        return [r for r in self.records if not r.passed]

    def counts(self) -> dict:
        """check_id -> (passed, total)."""
        out: dict = {}
        for r in self.records:
            ok, total = out.get(r.check_id, (0, 0))
            out[r.check_id] = (ok + int(r.passed), total + 1)
        return out


def _call(job):
    return job()


def run_verify(config: ExperimentConfig) -> RunArtifacts:
    """Replay the oracle checks on seeded instances and report pass/fail.

    The three Monte Carlo checks run in forked workers (see _fan_out) while
    this process runs the five exact ones.  Every check draws from its own
    seed sequences and the records are joined in the order of the checks
    below, so the output bytes do not depend on the number of cores.
    """
    scale = float(config.family.get("scale", 1.0))

    def k(n):
        return max(2, int(round(n * scale)))

    ms = config.master_seed
    reps = config.replicates
    sampled = [
        functools.partial(check_natural_scale, ms, instances=k(50),
                          replicates=min(reps, 4000)),
        functools.partial(check_atom_law, ms, configurations=k(10),
                          replicates=reps),
        functools.partial(check_one_sided_bounds, ms, configurations=k(20),
                          replicates=min(reps, 2500)),
    ]

    def exact_checks():
        return (check_heat_kernel(ms, chains=k(50)) + check_entrance()
                + check_discretization(ms, trees=k(10))
                + check_metric_oracles(ms, cases=k(30))
                + check_trace(ms, cases=k(30)))

    done, records = _fan_out(_call, sampled, meanwhile=exact_checks)
    return RunArtifacts([rec for recs in done for rec in recs] + records)


# -- convergence families ----------------------------------------------------

# stone lattices at level n span [-2^STONE_SPAN, 2^STONE_SPAN]: K = STONE_SPAN * n
STONE_SPAN = 2


def stone_level(n: int):
    """Stone's geometric two-ray lattice with ratio q = 2^(1/n), embedded in
    the line, and its chain lumped over x -> -x.

    Returns (tree, measure, half), all built from one ray's points
    x_i = q^(i - K), i = 0..2K, K = STONE_SPAN * n.  The root 0 sits at the
    origin, +x_i at vertex 1 + i and -x_i at vertex 2K + 2 + i, and each
    edge is as long as the step between its ends.  The measure is the
    midpoint rule for Lebesgue measure on the points, so every vertex is a
    chain state.  ``half`` is the birth-death chain on the root and one ray,
    each ray vertex x carrying m(x) + m(-x) and each edge half its length.
    Both rays come from the same arrays, so they mirror each other bit for
    bit and the root law is the lumped one split evenly (_stone_root_laws).
    """
    q = 2.0 ** (1.0 / n)
    big_k = STONE_SPAN * n
    points = np.array([q ** k for k in range(-big_k, big_k + 1)])
    step = np.diff(points, prepend=0.0)    # edge lengths along a ray
    ray_mass = 0.5 * (step + np.append(step[1:], 0.0))
    m = len(points)
    up = np.arange(m)                      # parents along a ray, 0 the root
    tree = build_tree(np.concatenate(([0], up, np.where(up > 0, up + m, 0))),
                      np.concatenate(([0.0], step, step)), root=0)
    measure = SpeedMeasure(np.concatenate((step[:1], ray_mass, ray_mass)))
    half = build_chain(build_tree(np.concatenate(([0], up)),
                                  np.concatenate(([0.0], step / 2.0)), root=0),
                       SpeedMeasure(np.concatenate((step[:1], ray_mass + ray_mass))))
    return tree, measure, half


def _stone_root_laws(half: WalkChain, times, ids) -> list:
    """Exact law at each time of the walk from the root of a stone_level
    lattice, from its lumped chain ``half`` (2K + 2 states, not 4K + 3), as
    measures with the atom of vertex v at ``ids[v]``."""
    laws = []
    # every vertex carries mass, so state i is vertex i; the law is even
    for law in exact.transition_laws(half, [0], times)[:, 0]:
        ray = law[1:] / 2.0
        w = np.concatenate((law[:1], ray, ray))
        laws.append(FiniteAtomMeasure.from_dict(dict(zip(ids, w.tolist()))))
    return laws


def _stone_reference_ids(n: int, ref: int) -> np.ndarray:
    """Reference-lattice id of each level-n vertex (n must divide ref): the
    point with index i on a level-n ray has index i * ref / n on the same
    reference ray."""
    m, m_ref = 2 * STONE_SPAN * n + 1, 2 * STONE_SPAN * ref + 1
    ray, i = np.divmod(np.arange(2 * m), m)
    return np.concatenate(([0], 1 + ray * m_ref + i * (ref // n)))


def _root_laws(chain: WalkChain, times, ids) -> list:
    """Exact law at each time of the walk started at the root, as measures
    with the atom of each state at vertex ``ids[state]``."""
    rows = exact.transition_laws(chain, [chain.tree.root], times)[:, 0]
    return [FiniteAtomMeasure.from_dict(
        {ids[int(s)]: float(law[j]) for j, s in enumerate(chain.states)})
        for law in rows]


def _spaces_table(spaces) -> list:
    """Rows of a gh_vague_report, with the boundary-tie flag as 0 or 1."""
    return [{**dataclasses.asdict(row), "flagged": int(row.flagged)}
            for row in spaces]


def _spearman(x, y) -> float:
    """Spearman rank correlation of two equal-length sequences; 0.0 (no
    trend) when either is constant.

    Ties share their average rank and the statistic is the Pearson
    correlation of the ranks, computed as ``scipy.stats.spearmanr`` does, so
    the two agree bit for bit wherever that one is defined.
    """
    ranks = []
    for v in (x, y):
        _, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
        if counts.size == 1:
            return 0.0
        ranks.append((np.cumsum(counts) - (counts - 1) / 2)[inv])
    return float(np.corrcoef(np.column_stack(ranks), rowvar=False)[1, 0])


def _law_distances(check_id, times, levels, ref_laws, dist, seed_label):
    """KR gap of each level's law to the reference law at every time.

    ``levels`` yields (n, laws, columns): the level's law at each time and
    the cells its distances.csv rows carry after n, time and kr.  Returns
    those rows and, per time, one strict-decrease and one rank-trend record
    of the gaps across the levels.
    """
    rows, n_list, gaps = [], [], []
    for n, laws, columns in levels:
        kr = [kr_distance(law, ref, dist) for law, ref in zip(laws, ref_laws)]
        rows += [{"n": n, "time": float(t), "kr": v, **columns}
                 for t, v in zip(times, kr)]
        n_list.append(n)
        gaps.append(kr)
    records = []
    for t, vals in zip(times, map(list, zip(*gaps))):
        decreasing = all(b < a for a, b in zip(vals, vals[1:]))
        rho = _spearman(n_list, vals) if len(vals) > 2 else (
            -1.0 if decreasing else 1.0)
        records.append(CheckRecord(
            f"{check_id}/strict-decrease", f"t={t}",
            _instance_hash({"check": check_id, "t": repr(t),
                            "values": [repr(v) for v in vals]}),
            float(vals[-1] - vals[0]), 0.0, 0.0, decreasing, seed_label))
        records.append(CheckRecord(
            f"{check_id}/trend", f"t={t} spearman",
            _instance_hash({"check": check_id + "-trend", "t": repr(t)}),
            rho, 0.0, 0.0, rho < 0.0, seed_label))
    return rows, records


# The convergence runs (stone, fdd, crt) share one pipeline, _law_distances:
# each builds its levels' exact one-time laws at the root and a reference
# law per time, and _law_distances measures every (level, time) gap and the
# trend records.  Laws are exact, so each run is fully deterministic; the
# trend records check that distances shrink as levels refine, which is a
# qualitative diagnostic rather than a proof of convergence.

def run_stone(config: ExperimentConfig) -> RunArtifacts:
    """Stone's geometric lattices at each n against a finer reference level.

    Every root law, the reference's and each level's, comes from the
    lattice's chain lumped over x -> -x (stone_level, _stone_root_laws).  A
    level's atoms and masses sit on their reference-lattice twins, and the
    spaces rows compare its pushed measure with the reference measure.
    """
    ref_level = int(config.family.get("reference_level", 2 * max(config.n_list)))
    delta = 0.25                  # ball radius of the spaces rows' mass floor
    times = config.times
    ref_tree, ref_measure, ref_half = stone_level(ref_level)
    ref_laws = _stone_root_laws(ref_half, times, range(ref_tree.n))
    levels = []
    approximations = []
    for n in config.n_list:
        _, measure, half = stone_level(n)
        ids = _stone_reference_ids(n, ref_level)
        # atoms sit on their reference-lattice twins, so shared ones merge
        laws = _stone_root_laws(half, times, ids.tolist())
        levels.append((n, laws, {"reference_level": ref_level}))
        pushed = np.zeros(ref_tree.n)
        np.add.at(pushed, ids, measure.masses)
        approximations.append((f"n={n}", SpeedMeasure(pushed)))
    rows, records = _law_distances("stone", times, levels, ref_laws,
                                   tree_metric(ref_tree), "deterministic")
    # radii off the lattice: no vertex height is 2^STONE_SPAN * 0.3 or 0.6,
    # so the boundary-tie flag stays quiet.  The lattice is a path, so
    # Prohorov runs on its sweep.
    radii = [0.3 * 2.0 ** STONE_SPAN, 0.6 * 2.0 ** STONE_SPAN]
    spaces = gh_vague_report(ref_tree, ref_measure, approximations, radii,
                             delta)
    return RunArtifacts(records, {"distances": rows,
                                  "spaces": _spaces_table(spaces)})


def run_fdd(config: ExperimentConfig) -> RunArtifacts:
    """Two-vertex family with vanishing far mass: marginals converge while
    the lower mass bound collapses, so space convergence is flagged."""
    floor = float(config.family.get("mass_floor", 0.05))
    times = config.times
    tree = build_tree({1: 0}, {1: 1.0}, root=0)
    dist = tree_metric(tree)

    def pair_dist(p, q):
        return max(dist(a, b) for a, b in zip(p, q))

    levels = []
    records = []
    for n in config.n_list:
        measure = SpeedMeasure([1.0, 1.0 / n])
        chain = build_chain(tree, measure)
        laws = _root_laws(chain, times, range(tree.n))
        joint_kr = ""
        if len(times) >= 2:
            # Markov property gives the exact two-time joint law
            gap = exact.transition_laws(chain, chain.states,
                                        (times[1] - times[0],))[0]
            # both vertices carry mass, so vertex ids are state indices
            joint = FiniteAtomMeasure.from_dict(
                {(a, b): w * gap[a, b]
                 for a, w in zip(laws[0].points, laws[0].weights)
                 for b in range(tree.n)})
            joint_kr = kr_distance(joint, FiniteAtomMeasure(((0, 0),), (1.0,)),
                                   pair_dist)
        m_delta = lower_mass(tree, measure, 0.5)
        flagged = m_delta < floor
        levels.append((n, laws, {"joint_kr": joint_kr, "m_delta": m_delta,
                                 "flagged": int(flagged)}))
        records.append(CheckRecord(
            "fdd/mass-floor", f"n={n}",
            _instance_hash({"check": "fdd", "n": n}),
            m_delta, floor, 0.0,
            flagged == (n > 1.0 / floor), "deterministic"))
    rows, trend = _law_distances("fdd", times, levels,
                                 [FiniteAtomMeasure((0,), (1.0,))] * len(times),
                                 dist, "deterministic")
    records += trend
    # the flag must actually fire at the finest level
    finest = max(config.n_list)
    records.append(CheckRecord(
        "fdd/tightness-fails", f"n={finest}",
        _instance_hash({"check": "fdd-final", "n": finest}),
        1.0 / finest, floor, 0.0, 1.0 / finest < floor, "deterministic"))
    return RunArtifacts(records, {"distances": rows})


def _lattice_excursion_samples(rng, half_steps: int) -> np.ndarray:
    """Nonnegative +-1 bridge of 2*half_steps steps, by rejection."""
    length = 2 * half_steps
    while True:
        inc = rng.integers(0, 2, size=length) * 2 - 1
        w = np.concatenate([[0], np.cumsum(inc)]).astype(float)
        if w[-1] == 0 and np.all(w >= 0):
            return w


def run_crt(config: ExperimentConfig) -> RunArtifacts:
    """Walks on nested measure discretizations of one glued excursion tree."""
    from .families import Excursion, glue_excursion

    knots = int(config.family.get("knots", 256))
    times = config.times
    rng = rng_from(_spawn(config.master_seed, 11))
    w = _lattice_excursion_samples(rng, knots // 2)
    scale = 1.0 / math.sqrt(len(w))
    exc = Excursion(w * scale, step=1.0 / len(w))
    glued = glue_excursion(exc)
    ambient, ambient_measure = glued.tree, glued.measure
    dist = tree_metric(ambient)
    diam = ambient.diameter()
    delta = 0.1 * diam            # ball radius of the spaces rows' mass floor
    ids = range(ambient.n)
    ref_laws = _root_laws(build_chain(ambient, ambient_measure), times, ids)
    levels = []
    approximations = []
    for n in config.n_list:
        eps = diam / n
        disc = discretize(ambient, ambient_measure, eps)
        chain = build_chain(ambient, disc.pushforward)
        levels.append((n, _root_laws(chain, times, ids),
                       {"eps": eps, "states": chain.n_states}))
        approximations.append((f"n={n}", disc.pushforward))
    rows, records = _law_distances("crt", times, levels, ref_laws, dist,
                                   _seed_label(config.master_seed, 11))
    radii = [diam / 4.0, diam / 2.0]
    spaces = gh_vague_report(ambient, ambient_measure, approximations, radii,
                             delta)
    return RunArtifacts(records, {"distances": rows,
                                  "spaces": _spaces_table(spaces)})


def _fan_out(fn, jobs, meanwhile=None):
    """``[fn(job) for job in jobs]``, run in forked worker processes.

    One worker per usable core, at most one per job; each worker takes one
    job at a time, so the jobs start in the order given.  With ``meanwhile``
    set, the workers get one core fewer (at least one) while this process
    calls ``meanwhile()``, and the call returns ``(results, meanwhile())``.
    An exception in a worker is raised here.  Leaving the pool, normally or
    through any exception (a KeyboardInterrupt or an alarm included, in a
    worker or in ``meanwhile``), terminates and joins every worker, so no
    process outlives the call.
    """
    import multiprocessing

    cores = len(os.sched_getaffinity(0))
    if meanwhile is not None:
        cores = max(1, cores - 1)
    workers = min(len(jobs), cores)
    # fork, not spawn: a spawned worker would import numpy, scipy and
    # treeflow again (about 0.7 s on 2 cores), and the pool forks every
    # worker before it starts its own threads
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        if meanwhile is None:
            return pool.map(fn, jobs, chunksize=1)
        pending = pool.map_async(fn, jobs, chunksize=1)
        mine = meanwhile()
        return pending.get(), mine


def _entrance_depth(job):
    """One depth of run_entrance_demo: ``job`` is (master_seed, replicates,
    depth).  Returns the depth's check records and its csv row."""
    master_seed, replicates, depth = job
    h = _instance_hash({"check": "entrance-demo", "depth": int(depth)})
    chain, solved, closed, records = _entrance_exact(depth, h)
    times = lockstep_ensemble(chain, _entrance_leaf(depth), (chain.tree.root,),
                              _spawn(master_seed, 7, depth), replicates).end_times
    mc_mean = float(times.mean())
    mc_se = float(times.std(ddof=1)) / math.sqrt(replicates)
    records.append(_mc_record(
        "entrance/mc-return", f"depth={depth}", h, mc_mean, solved, mc_se,
        _seed_label(master_seed, 7, depth)))
    row = {"depth": int(depth), "states": chain.n_states,
           "exact": solved, "formula": closed, "bound": entrance_bound(depth),
           "mc_mean": mc_mean, "mc_se": mc_se}
    return records, row


def run_entrance_demo(config: ExperimentConfig) -> RunArtifacts:
    """Exact and simulated root return times on deepening binary trees.

    Each depth is one job with its own seed sequence, and the jobs run in
    forked workers, one per usable core (see _fan_out), the deepest first
    since it costs the most.  Records and rows come back in ``n_list``
    order, so the output bytes do not depend on the number of cores.
    """
    depths = sorted(config.n_list, reverse=True)
    done = dict(zip(depths, _fan_out(_entrance_depth, [
        (config.master_seed, config.replicates, d) for d in depths])))
    results = [done[d] for d in config.n_list]
    records = [rec for recs, _ in results for rec in recs]
    rows = [row for _, row in results]
    worst = max(row["exact"] for row in rows)
    # the geometric series keeps return times bounded at every depth
    ceiling = entrance_bound(60)
    records.append(CheckRecord(
        "entrance/depth-uniform", "all depths",
        _instance_hash({"check": "entrance-uniform"}),
        worst, ceiling, 0.0, worst <= ceiling, "deterministic"))
    return RunArtifacts(records, {"entrance": rows})


def run_kesten_demo(config: ExperimentConfig,
                    dump_paths: bool = False) -> RunArtifacts:
    """Glued reflected-walk trees across sizes, with short walk summaries.

    Only ``max(config.times)`` is read: the walks run to that horizon and
    the exact end-height law is taken there.  Smaller entries of ``times``
    are accepted and ignored.
    """
    horizon = float(config.family.get("horizon", 1.0))
    times = config.times
    records = []
    rows = []
    trees = {}
    paths = {}
    for n in config.n_list:
        seed = _spawn(config.master_seed, 12, n)
        sample = kesten_excursion(int(n), seed, horizon=horizon)
        tree, measure = sample.glued.tree, sample.degree
        report = check_four_point(tree)
        h = _instance_hash({"check": "kesten", "n": int(n),
                            "seed": _seed_label(config.master_seed, 12, n)})
        if report.ok:
            gap = 0.0
        else:
            s = sorted(report.sums)
            gap = float(s[2] - s[1])
        records.append(CheckRecord(
            "kesten/four-point", f"n={n} checked={report.checked}", h,
            gap, 1e-9, 1e-9, report.ok,
            _seed_label(config.master_seed, 12, n)))
        chain = build_chain(tree, measure)
        ens = lockstep_ensemble(chain, tree.root, (),
                                _spawn(config.master_seed, 12, n, 1),
                                config.replicates, horizon=max(times),
                                keep_paths=dump_paths)
        mean_end_height = float(tree.height[ens.endpoints].mean())
        # exact law of X_T from the root, T = max(times)
        law = exact.transition_laws(chain, [tree.root], (max(times),))[0, 0]
        heights = tree.height[chain.states]
        exact_mean = float(law @ heights)
        variance = max(float(law @ heights ** 2) - exact_mean ** 2, 0.0)
        records.append(_mc_record(
            "kesten/end-height", f"n={n} t={max(times)}", h, mean_end_height,
            exact_mean, math.sqrt(variance / config.replicates),
            _seed_label(config.master_seed, 12, n, 1)))
        rows.append({"n": int(n), "states": chain.n_states,
                     "diameter": tree.diameter(),
                     "total_mass": float(measure.masses.sum()),
                     "mean_end_height": mean_end_height,
                     "exact_end_height": exact_mean,
                     "replicates": config.replicates})
        if dump_paths:
            paths[f"kesten-n{n}"] = ens.paths
        trees[f"kesten-n{n}"] = (tree, measure, {
            "kind": "kesten", "params": {"n": int(n), "horizon": horizon},
            "seed": _seed_label(config.master_seed, 12, n)})
    return RunArtifacts(records, {"kesten": rows}, trees, paths)


def run_coalescent_demo(config: ExperimentConfig) -> RunArtifacts:
    """Exchangeable genealogies: metric laws and a walk cross-check per size."""
    kind = config.family.get("kind", "kingman")
    records = []
    rows = []
    trees = {}
    for n in config.n_list:
        if kind == "kingman":
            spec = CoalescentSpec.kingman(int(n))
        elif kind == "beta":
            spec = CoalescentSpec.beta(int(n), float(config.family["a"]),
                                       float(config.family["b"]))
        else:
            spec = CoalescentSpec.point_masses(int(n), config.family["atoms"])
        seed = _spawn(config.master_seed, 13, n)
        ct = coalescent_tree(spec, seed)
        tree = ct.tree
        h = _instance_hash({"check": "coalescent", "n": int(n),
                            "kind": kind,
                            "seed": _seed_label(config.master_seed, 13, n)})
        # every pair of leaves meets at half its merge time
        heights = tree.height[list(ct.leaves)]
        spread = float(heights.max() - heights.min())
        records.append(CheckRecord(
            "coalescent/leaf-depth", f"n={n}", h, spread, 1e-9, 1e-9,
            spread <= 1e-9, _seed_label(config.master_seed, 13, n)))
        # in every leaf triple the largest distance is attained twice: the
        # rows below leaf i hold the triples (i, j, k) with i < j, k
        d = tree.distance_block(ct.leaves, ct.leaves)
        worst = 0.0
        for i in range(len(d) - 2):
            trio = np.sort(np.stack(np.broadcast_arrays(
                d[i, i + 1:, None], d[i, None, i + 1:], d[i + 1:, i + 1:])), axis=0)
            worst = max(worst, float((trio[2] - trio[1]).max()))
        records.append(CheckRecord(
            "coalescent/ultrametric", f"n={n}", h, worst, 1e-9, 1e-9,
            worst <= 1e-9, _seed_label(config.master_seed, 13, n)))
        atom = coalescent_speed_measure(ct, "branch-atomic")
        dens = coalescent_speed_measure(ct, "skeleton-density")
        chain = build_chain(tree, atom)
        # the state farthest from the root, so the walk is never started
        # where it is stopped
        start = chain.farthest_state(tree.root)
        solved = exact.expected_hitting(chain, start, tree.root)
        # the paper's formula (1) with f = 1
        closed = exact.occupation_functional(tree, atom, start, tree.root)
        rel = abs(solved - closed) / closed
        records.append(CheckRecord(
            "coalescent/hitting-closed", f"n={n} start={start}", h, rel,
            1e-9, 1e-9, rel <= 1e-9, "deterministic"))
        times = lockstep_ensemble(chain, start, (tree.root,),
                                  _spawn(config.master_seed, 13, n, 1),
                                  config.replicates).end_times
        mc_mean = float(times.mean())
        mc_se = float(times.std(ddof=1)) / math.sqrt(config.replicates)
        records.append(_mc_record(
            "coalescent/hitting-mc", f"n={n} start={start}", h, mc_mean,
            solved, mc_se, _seed_label(config.master_seed, 13, n, 1)))
        rows.append({"n": int(n), "vertices": tree.n,
                     "merges": len(ct.events),
                     "diameter": tree.diameter(),
                     "atomic_mass": float(atom.masses.sum()),
                     "density_mass": float(dens.masses.sum()),
                     "hit_exact": solved, "hit_mc": mc_mean, "hit_se": mc_se})
        trees[f"coalescent-{kind}-n{n}"] = (tree, atom, {
            "kind": f"coalescent-{kind}", "params": {"n_leaves": int(n)},
            "seed": _seed_label(config.master_seed, 13, n)})
    return RunArtifacts(records, {"coalescent": rows}, trees)


RUNNERS = {
    "verify": run_verify,
    "stone": run_stone,
    "crt": run_crt,
    "fdd": run_fdd,
    "binary-entrance": run_entrance_demo,
    "kesten": run_kesten_demo,
    "coalescent": run_coalescent_demo,
}


def _write(config: ExperimentConfig, artifacts: RunArtifacts) -> None:
    """Write every file of a run under ``config.output_dir``; CSV cells
    that are floats are written as their repr."""

    def target(*parts) -> str:
        path = os.path.join(config.output_dir, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def dump_json(path: str, payload: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    dump_json(target("report.json"), {
        "experiment": config.experiment, "master_seed": config.master_seed,
        "all_passed": artifacts.all_passed,
        "records": [dataclasses.asdict(r) for r in artifacts.records]})
    for name, rows in artifacts.tables.items():
        if rows:
            with open(target(f"{name}.csv"), "w", encoding="utf-8",
                      newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(list(rows[0]))
                writer.writerows([repr(v) if isinstance(v, float) else v
                                  for v in row.values()] for row in rows)
    for name, (tree, measure, provenance) in artifacts.trees.items():
        save_tree(target("trees", f"{name}.tree"), tree, measure)
        dump_json(target("trees", f"{name}.provenance.json"), provenance)
    for name, paths in artifacts.paths.items():
        with open(target("paths", f"{name}.csv"), "w", encoding="utf-8",
                  newline="") as fh:
            export_paths_csv(paths, fh)


def run_experiment(config: ExperimentConfig,
                   dump_paths: bool = False) -> RunArtifacts:
    """Run ``config``'s experiment, then write its files.

    Under ``config.output_dir`` the run writes report.json (the check
    records), one ``<table>.csv`` per nonempty table, ``trees/`` (kesten and
    coalescent) and, for kesten with ``dump_paths``, ``paths/``.  The files
    are written only after the runner returns, so a run that raises writes
    none of them.
    """
    runner = RUNNERS[config.experiment]
    if runner is run_kesten_demo:
        artifacts = runner(config, dump_paths=dump_paths)
    else:
        artifacts = runner(config)
    _write(config, artifacts)
    return artifacts
