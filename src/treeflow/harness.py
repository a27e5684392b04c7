"""Batch experiment harness.

Experiments are driven by strict JSON configs and write machine-readable
reports: a verification suite that replays the library's closed forms and
bounds against simulation and linear algebra on seeded instances, and
convergence runs that compare walk laws across discretization levels of a
common ambient space.  Everything downstream of (config, master_seed) is
deterministic, so reports are byte-stable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
from scipy import stats as sp_stats
from scipy.linalg import eigh_tridiagonal

from . import exact
from .families import (
    CoalescentSpec,
    binary_tree,
    coalescent_speed_measure,
    coalescent_tree,
    kesten_excursion,
    stone_tq,
    stone_vertex,
)
from .measures import (
    FiniteAtomMeasure,
    fdd_compare,
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
    StopRule,
    WalkChain,
    batch_simulate,
    build_chain,
    export_paths_csv,
    lockstep_ensemble,
    rng_from,
)

EXPERIMENTS = ("verify", "stone", "crt", "binary-entrance", "kesten",
               "coalescent", "fdd")

_CONFIG_FIELDS = ("experiment", "family", "n_list", "times", "replicates",
                  "master_seed", "output_dir")


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


def _boolean(v):
    if not isinstance(v, bool):
        return "must be true or false"


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
    "stone": {"span_exponent": _integer_from(1),
              "reference_level": _integer_from(1), "delta": _positive},
    "crt": {"knots": _integer_from(2), "delta": _positive},
    "binary-entrance": {},
    "kesten": {"horizon": _positive},
    "coalescent": {"kind": _coalescent_kind, "a": _positive, "b": _positive,
                   "atoms": _atom_list},
    "fdd": {"mass_floor": _positive, "with_joint": _boolean},
}


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
        for n in self.n_list:
            if _integer_from(1)(n):
                raise ConfigError(f"n_list: sizes must be positive integers, got {n!r}")
        for t in self.times:
            if _positive(t):
                raise ConfigError(f"times: entries must be positive finite numbers, got {t!r}")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("times: must be strictly increasing")
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if _integer_from(1)(self.replicates):
            raise ConfigError("replicates: must be a positive integer")
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
        if self.experiment == "stone" and "reference_level" in family:
            ref = family["reference_level"]
            if any(ref % n for n in self.n_list):
                raise ConfigError(
                    f"family.reference_level: must be a multiple of every n in "
                    f"n_list, got {ref!r}")
        if self.experiment == "coalescent":
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
        unknown = set(data) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"unknown field {sorted(unknown)[0]!r}")
        missing = [f for f in _CONFIG_FIELDS if f not in data]
        if missing:
            raise ConfigError(f"missing field {missing[0]!r}")
        if not isinstance(data["n_list"], list):
            raise ConfigError("n_list: must be a list")
        if not isinstance(data["times"], list):
            raise ConfigError("times: must be a list")
        return cls(
            experiment=data["experiment"],
            family=data["family"],
            n_list=tuple(data["n_list"]),
            times=tuple(data["times"]),
            replicates=data["replicates"],
            master_seed=data["master_seed"],
            output_dir=data["output_dir"],
        )

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
        data = dict(experiment=self.experiment, family=self.family,
                    n_list=self.n_list, times=self.times,
                    replicates=self.replicates, master_seed=self.master_seed,
                    output_dir=self.output_dir)
        data.update(kw)
        return ExperimentConfig(**data)

    def to_json(self) -> str:
        return json.dumps(
            {"experiment": self.experiment, "family": self.family,
             "n_list": list(self.n_list), "times": list(self.times),
             "replicates": self.replicates, "master_seed": self.master_seed,
             "output_dir": self.output_dir},
            sort_keys=True, indent=2) + "\n"


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

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "instance": self.instance,
            "instance_hash": self.instance_hash,
            "statistic": self.statistic,
            "bound_or_target": self.bound_or_target,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "seed": self.seed,
        }


@dataclass
class SuiteResult:
    experiment: str
    master_seed: int
    records: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> list:
        return [r for r in self.records if not r.passed]

    def counts(self) -> dict:
        out: dict = {}
        for r in self.records:
            ok, total = out.get(r.check_id, (0, 0))
            out[r.check_id] = (ok + int(r.passed), total + 1)
        return out

    def to_json(self) -> str:
        return json.dumps(
            {"experiment": self.experiment, "master_seed": self.master_seed,
             "all_passed": self.all_passed,
             "records": [r.as_dict() for r in self.records]},
            sort_keys=True, indent=2) + "\n"


def _instance_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _spawn(master_seed: int, *key) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(master_seed),
                                  spawn_key=tuple(int(k) for k in key))


def _seed_label(master_seed: int, *key) -> str:
    return f"{master_seed}/" + ".".join(str(int(k)) for k in key)


def _random_instance(rng, n_low=5, n_high=12, scale=1.0):
    """Random rooted tree with positive masses; deterministic given rng."""
    n = int(rng.integers(n_low, n_high + 1))
    parents = {v: int(rng.integers(0, v)) for v in range(1, n)}
    lengths = {v: float(rng.uniform(0.2, 1.5)) * scale for v in range(1, n)}
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


def _segment_interior(tree: RootedMetricTree, a: int, b: int) -> list:
    return [v for v in range(tree.n)
            if v not in (a, b) and tree.on_segment(v, a, b)]


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
        rng = rng_from(_spawn(master_seed, 3, i))
        while True:
            tree, measure = _random_instance(rng)
            a, b = _diameter_pair(tree)
            interior = _segment_interior(tree, a, b)
            if interior:
                break
        x = interior[len(interior) // 2]
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
        rng = rng_from(_spawn(master_seed, 4, i))
        while True:
            tree, measure = _random_instance(rng)
            u, v = _diameter_pair(tree)
            interior = _segment_interior(tree, u, v)
            if interior:
                break
        w = interior[len(interior) // 2]
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
        # exponential branch: sd equals the mean
        se = law.exp_mean / math.sqrt(max(len(positive), 1))
        err = abs(float(positive.mean()) - law.exp_mean)
        records.append(CheckRecord(
            "atom-law/positive-mean", f"config[{i}] w={w} u={u} v={v}", h,
            err, 3.0 * se, 3.0 * se, err <= 3.0 * se,
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


def check_heat_kernel(master_seed: int, chains: int = 50,
                      times=(0.3, 0.9, 1.8, 4.0)) -> list:
    """Mass, symmetry, and norm bounds of the uniformized transition law."""
    records = []
    times = tuple(float(t) for t in times)
    for i in range(chains):
        rng = rng_from(_spawn(master_seed, 6, i))
        tree, measure = _random_instance(rng, n_low=4, n_high=12)
        chain = build_chain(tree, measure)
        payload = _tree_payload(tree, measure)
        payload.update(check="heat-kernel", index=i, times=[repr(t) for t in times])
        h = _instance_hash(payload)
        seed_lbl = _seed_label(master_seed, 6, i)
        results = [exact.heat_kernel(chain, int(s), times) for s in chain.states]
        defect = max(r.mass_defect() for r in results)
        records.append(CheckRecord(
            "heat-kernel/mass", f"chain[{i}]", h, defect, 1e-10, 1e-10,
            defect <= 1e-10, seed_lbl))
        n = chain.n_states
        sym = 0.0
        for t_i, t in enumerate(times):
            p = np.vstack([results[a].laws[t_i] for a in range(n)])
            weighted = chain.mass[:, None] * p
            sym = max(sym, float(np.abs(weighted - weighted.T).max()))
        records.append(CheckRecord(
            "heat-kernel/symmetry", f"chain[{i}]", h, sym, 1e-10, 1e-10,
            sym <= 1e-10, seed_lbl))
        excess = -math.inf
        for r in results:
            for t in times:
                excess = max(excess, r.l2_norm_sq(t) - r.l2_bound(t))
        records.append(CheckRecord(
            "heat-kernel/l2-bound", f"chain[{i}]", h, excess, 0.0, 1e-9,
            excess <= 1e-9, seed_lbl))
        k = max(1, n // 3)
        subset = [int(s) for s in rng.choice(chain.states, size=k, replace=False)]
        set_excess = -math.inf
        for r in results:
            for t in times:
                prob = float(sum(r.prob(t, v) for v in subset))
                set_excess = max(set_excess, prob - r.set_prob_bound(t, subset))
        records.append(CheckRecord(
            "heat-kernel/set-bound", f"chain[{i}] |A|={k}", h, set_excess,
            0.0, 1e-9, set_excess <= 1e-9, seed_lbl))
    return records


def entrance_bound(depth: int) -> float:
    """Partial sum k 2^k e^(-k) controlling the return time to the root."""
    return sum(k * 2.0 ** k * math.exp(-k) for k in range(1, depth + 1))


def check_entrance(depths=tuple(range(2, 13))) -> list:
    """Return-time identity and bound on exponentially weighted binary trees."""
    records = []
    for depth in depths:
        tree, measure = binary_tree(depth)
        chain = build_chain(tree, measure)
        leaf = 2 ** depth - 1          # leftmost deepest vertex, level order
        solved = exact.expected_hitting(chain, leaf, tree.root)
        closed = exact.occupation_functional(tree, measure, leaf, tree.root)
        payload = {"check": "entrance", "depth": depth, "leaf": leaf}
        h = _instance_hash(payload)
        rel = abs(solved - closed) / closed
        records.append(CheckRecord(
            "entrance/solve-vs-formula", f"depth={depth}", h, rel, 1e-9, 1e-9,
            rel <= 1e-9, "deterministic"))
        bound = entrance_bound(depth)
        records.append(CheckRecord(
            "entrance/upper-bound", f"depth={depth}", h, solved, bound, 0.0,
            solved <= bound + 1e-12, "deterministic"))
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
    suite: SuiteResult
    tables: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return self.suite.all_passed


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_report(config: ExperimentConfig, artifacts: RunArtifacts) -> None:
    out = _ensure_dir(config.output_dir)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(artifacts.suite.to_json())
    for name, rows in artifacts.tables.items():
        if not rows:
            continue
        with open(os.path.join(out, f"{name}.csv"), "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(v) if isinstance(v, float) else v
                                 for v in row.values()])


def run_verify(config: ExperimentConfig, write: bool = True) -> RunArtifacts:
    """Replay the oracle checks on seeded instances and report pass/fail."""
    scale = float(config.family.get("scale", 1.0))

    def k(n):
        return max(2, int(round(n * scale)))

    ms = config.master_seed
    reps = config.replicates
    records = []
    records += check_natural_scale(ms, instances=k(50),
                                   replicates=min(reps, 4000))
    records += check_atom_law(ms, configurations=k(10), replicates=reps)
    records += check_one_sided_bounds(ms, configurations=k(20),
                                      replicates=min(reps, 2500))
    records += check_heat_kernel(ms, chains=k(50))
    records += check_entrance()
    records += check_discretization(ms, trees=k(10))
    records += check_metric_oracles(ms, cases=k(30))
    records += check_trace(ms, cases=k(30))
    artifacts = RunArtifacts(SuiteResult("verify", ms, records))
    if write:
        _write_report(config, artifacts)
    return artifacts


# -- convergence families ----------------------------------------------------

def stone_level(n: int, span_exponent: int = 2):
    """Geometric two-ray lattice with ratio 2^(1/n) and its line data.

    Returns (tree, measure, positions): the measure is the midpoint rule for
    Lebesgue measure on the embedded point set, so the root carries mass and
    every vertex is a chain state.
    """
    q = 2.0 ** (1.0 / n)
    big_k = span_exponent * n
    tree, _ = stone_tq(q, big_k)
    pos = np.zeros(tree.n)
    for k in range(-big_k, big_k + 1):
        pos[stone_vertex(tree.n, big_k, k, False)] = q ** k
        pos[stone_vertex(tree.n, big_k, k, True)] = -q ** k
    order = np.argsort(pos)
    sorted_pos = pos[order]
    gaps = np.diff(sorted_pos)
    masses = np.zeros(tree.n)
    for j, v in enumerate(order):
        left = gaps[j - 1] if j > 0 else 0.0
        right = gaps[j] if j < len(gaps) else 0.0
        masses[v] = 0.5 * (left + right)
    return tree, SpeedMeasure(masses), pos


def _stone_reference_ids(n: int, ref: int, span_exponent: int):
    """Map level-n vertices onto the reference lattice (n must divide ref)."""
    if ref % n != 0:
        raise ConfigError("family.reference_level: must be a multiple of every n")
    stride = ref // n
    big_k, big_kr = span_exponent * n, span_exponent * ref
    m = 4 * big_k + 3
    ids = np.zeros(m, dtype=np.int64)
    mr = 4 * big_kr + 3
    for k in range(-big_k, big_k + 1):
        for neg in (False, True):
            ids[stone_vertex(m, big_k, k, neg)] = stone_vertex(
                mr, big_kr, k * stride, neg)
    return ids


def _law_measure(chain: WalkChain, law: np.ndarray, ids) -> FiniteAtomMeasure:
    """Chain law with the atom of each state at vertex ``ids[state]``."""
    return FiniteAtomMeasure.from_dict(
        {ids[int(s)]: float(law[j]) for j, s in enumerate(chain.states)})


def _line_chain_laws(chain: WalkChain, start: int, times,
                     positions: np.ndarray) -> np.ndarray:
    """Exact one-time laws for a chain whose states lie on a line.

    The generator is reversible for the mass vector, so conjugating by
    sqrt(mass) makes it a symmetric tridiagonal matrix in position order and
    the laws come from one eigendecomposition.  This sidesteps the
    uniformized series, whose term count blows up with the stiffest exit
    rate on fine geometric lattices.
    """
    order = np.argsort(positions[chain.states], kind="stable")
    m = chain.mass[order]
    diag = -chain.exit_rate[order]
    off = np.empty(len(order) - 1)
    for i in range(len(order) - 1):
        a = int(chain.states[order[i]])
        b = int(chain.states[order[i + 1]])
        c = chain.pair_conductance[(min(a, b), max(a, b))]
        off[i] = c / (2.0 * math.sqrt(m[i] * m[i + 1]))
    evals, vecs = eigh_tridiagonal(diag, off)
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    px = inv[chain.index[int(start)]]
    out = np.empty((len(times), chain.n_states))
    sqrt_m = np.sqrt(m)
    for j, t in enumerate(times):
        row = (vecs @ (np.exp(evals * float(t)) * vecs[px])) * sqrt_m / sqrt_m[px]
        row = np.clip(row, 0.0, None)
        out[j, order] = row / row.sum()
    return out


def run_convergence(config: ExperimentConfig, write: bool = True) -> RunArtifacts:
    """Per-time law distances across levels against a finest-level reference.

    Laws are exact one-time marginals, so the run is fully deterministic;
    the trend records check that distances shrink as levels refine, which
    is a qualitative diagnostic rather than a proof of convergence.
    """
    if config.experiment == "stone":
        return _run_stone(config, write)
    if config.experiment == "fdd":
        return _run_fdd(config, write)
    if config.experiment == "crt":
        return _run_crt(config, write)
    raise ConfigError(f"experiment: {config.experiment!r} is not a convergence run")


def _trend_records(check_id, times, n_list, table, seed_label):
    """One strict-decrease record and one rank-trend record per time."""
    records = []
    for t in times:
        vals = [table[(n, t)] for n in n_list]
        decreasing = all(b < a for a, b in zip(vals, vals[1:]))
        rho = float(sp_stats.spearmanr(n_list, vals).statistic) if len(vals) > 2 else (
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
    return records


def _run_stone(config: ExperimentConfig, write: bool) -> RunArtifacts:
    span = int(config.family.get("span_exponent", 2))
    ref_level = int(config.family.get("reference_level", 2 * max(config.n_list)))
    delta = float(config.family.get("delta", 0.25))
    times = config.times or (0.25, 1.0)
    ref_tree, ref_measure, ref_pos = stone_level(ref_level, span)
    ref_chain = build_chain(ref_tree, ref_measure)
    ref_rows = _line_chain_laws(ref_chain, ref_tree.root, times, ref_pos)
    dist = tree_metric(ref_tree)
    ref_laws = [_law_measure(ref_chain, ref_rows[j], range(ref_tree.n))
                for j in range(len(times))]
    rows = []
    table = {}
    approximations = []
    for n in config.n_list:
        tree, measure, pos = stone_level(n, span)
        chain = build_chain(tree, measure)
        law_rows = _line_chain_laws(chain, tree.root, times, pos)
        ids = _stone_reference_ids(n, ref_level, span)
        for j, t in enumerate(times):
            # atoms sit on their reference-lattice twins, so shared ones merge
            law = _law_measure(chain, law_rows[j], ids.tolist())
            kr = kr_distance(law, ref_laws[j], dist)
            table[(n, t)] = kr
            rows.append({"n": n, "time": float(t), "kr": kr,
                         "reference_level": ref_level})
        pushed = np.zeros(ref_tree.n)
        np.add.at(pushed, ids, measure.masses)
        approximations.append((f"n={n}", SpeedMeasure(pushed)))
    # radii off the lattice: no vertex height is 2^span * 0.3 or 0.6, so the
    # boundary-tie flag stays quiet.  The lattice is a path, so Prohorov
    # runs on its sweep.
    radii = [0.3 * 2.0 ** span, 0.6 * 2.0 ** span]
    spaces = gh_vague_report(ref_tree, ref_measure, approximations, radii,
                             delta)
    records = _trend_records("stone", times, list(config.n_list), table,
                             "deterministic")
    suite = SuiteResult("stone", config.master_seed, records)
    artifacts = RunArtifacts(suite, {
        "distances": rows,
        "spaces": [
            {"label": r.label, "radius": r.radius, "hausdorff": r.hausdorff,
             "prohorov": r.prohorov, "kr": r.kr, "m_delta": r.m_delta,
             "flagged": int(r.flagged)} for r in spaces.rows],
    })
    if write:
        _write_report(config, artifacts)
    return artifacts


def _run_fdd(config: ExperimentConfig, write: bool) -> RunArtifacts:
    """Two-vertex family with vanishing far mass: marginals converge while
    the lower mass bound collapses, so space convergence is flagged."""
    floor = float(config.family.get("mass_floor", 0.05))
    with_joint = bool(config.family.get("with_joint", True))
    times = config.times or (0.25, 1.0)
    tree = build_tree({1: 0}, {1: 1.0}, root=0)
    dist = tree_metric(tree)
    limit_law = FiniteAtomMeasure((0,), (1.0,))
    rows = []
    records = []
    table = {}
    for n in config.n_list:
        measure = SpeedMeasure([1.0, 1.0 / n])
        chain = build_chain(tree, measure)
        hk = exact.heat_kernel(chain, 0, times)
        laws = [_law_measure(chain, hk.laws[j], {0: 0, 1: 1})
                for j in range(len(times))]
        joint = None
        if with_joint and len(times) >= 2:
            # Markov property gives the exact two-time joint law
            t1 = times[0]
            gap_hk = [exact.heat_kernel(chain, int(s), (times[1] - times[0],))
                      for s in chain.states]
            pairs = {}
            for a_idx, a in enumerate(chain.states):
                for b_idx, b in enumerate(chain.states):
                    w = float(hk.laws[0][a_idx] * gap_hk[a_idx].laws[0][b_idx])
                    if w > 0:
                        pairs[(int(a), int(b))] = w
            joint = FiniteAtomMeasure.from_dict(pairs)
        joint_limit = FiniteAtomMeasure(((0, 0),), (1.0,))
        report = fdd_compare(times, laws,
                             [limit_law] * len(times), dist,
                             joint_a=joint, joint_b=joint_limit if joint else None)
        m_delta = lower_mass(tree, measure, 0.5).value
        flagged = m_delta < floor
        for j, t in enumerate(times):
            table[(n, t)] = report.kr_values[j]
            rows.append({"n": n, "time": float(t), "kr": report.kr_values[j],
                         "joint_kr": (report.joint_kr
                                      if report.joint_kr is not None else ""),
                         "m_delta": m_delta, "flagged": int(flagged)})
        records.append(CheckRecord(
            "fdd/mass-floor", f"n={n}",
            _instance_hash({"check": "fdd", "n": n}),
            m_delta, floor, 0.0,
            flagged == (n > 1.0 / floor), "deterministic"))
    records += _trend_records("fdd", times, list(config.n_list), table,
                              "deterministic")
    # the flag must actually fire at the finest level
    finest = max(config.n_list)
    records.append(CheckRecord(
        "fdd/tightness-fails", f"n={finest}",
        _instance_hash({"check": "fdd-final", "n": finest}),
        1.0 / finest, floor, 0.0, 1.0 / finest < floor, "deterministic"))
    suite = SuiteResult("fdd", config.master_seed, records)
    artifacts = RunArtifacts(suite, {"distances": rows})
    if write:
        _write_report(config, artifacts)
    return artifacts


def _lattice_excursion_samples(rng, half_steps: int) -> np.ndarray:
    """Nonnegative +-1 bridge of 2*half_steps steps, by rejection."""
    length = 2 * half_steps
    while True:
        inc = rng.integers(0, 2, size=length) * 2 - 1
        w = np.concatenate([[0], np.cumsum(inc)]).astype(float)
        if w[-1] == 0 and np.all(w >= 0):
            return w


def _run_crt(config: ExperimentConfig, write: bool) -> RunArtifacts:
    """Walks on nested measure discretizations of one glued excursion tree."""
    from .families import Excursion, glue_excursion

    knots = int(config.family.get("knots", 256))
    delta_key = config.family.get("delta")
    times = config.times or (0.05, 0.2)
    rng = rng_from(_spawn(config.master_seed, 11))
    w = _lattice_excursion_samples(rng, knots // 2)
    scale = 1.0 / math.sqrt(len(w))
    exc = Excursion(w * scale, step=1.0 / len(w))
    glued = glue_excursion(exc)
    ambient, ambient_measure = glued.tree, glued.measure
    dist = tree_metric(ambient)
    diam = ambient.diameter()
    delta = float(delta_key) if delta_key is not None else 0.1 * diam
    ref_chain = build_chain(ambient, ambient_measure)
    ref_hk = exact.heat_kernel(ref_chain, ambient.root, times)
    ref_laws = [_law_measure(ref_chain, ref_hk.laws[j], list(range(ambient.n)))
                for j in range(len(times))]
    rows = []
    table = {}
    approximations = []
    for n in config.n_list:
        eps = diam / n
        disc = discretize(ambient, ambient_measure, eps)
        chain = build_chain(ambient, disc.pushforward)
        hk = exact.heat_kernel(chain, ambient.root, times)
        for j, t in enumerate(times):
            law = _law_measure(chain, hk.laws[j], list(range(ambient.n)))
            kr = kr_distance(law, ref_laws[j], dist)
            table[(n, t)] = kr
            rows.append({"n": n, "time": float(t), "kr": kr,
                         "eps": eps, "states": chain.n_states})
        approximations.append((f"n={n}", disc.pushforward))
    radii = [diam / 4.0, diam / 2.0]
    spaces = gh_vague_report(ambient, ambient_measure, approximations, radii,
                             delta)
    records = _trend_records("crt", times, list(config.n_list), table,
                             _seed_label(config.master_seed, 11))
    suite = SuiteResult("crt", config.master_seed, records)
    artifacts = RunArtifacts(suite, {
        "distances": rows,
        "spaces": [
            {"label": r.label, "radius": r.radius, "hausdorff": r.hausdorff,
             "prohorov": r.prohorov, "kr": r.kr, "m_delta": r.m_delta,
             "flagged": int(r.flagged)} for r in spaces.rows],
    })
    if write:
        _write_report(config, artifacts)
    return artifacts


def run_entrance_demo(config: ExperimentConfig, write: bool = True) -> RunArtifacts:
    """Exact and simulated root return times on deepening binary trees."""
    records = []
    rows = []
    worst = 0.0
    for depth in config.n_list:
        tree, measure = binary_tree(int(depth))
        chain = build_chain(tree, measure)
        leaf = 2 ** depth - 1
        solved = exact.expected_hitting(chain, leaf, tree.root)
        closed = exact.occupation_functional(tree, measure, leaf, tree.root)
        bound = entrance_bound(int(depth))
        times = lockstep_ensemble(chain, leaf, (tree.root,),
                                  _spawn(config.master_seed, 7, depth),
                                  config.replicates).end_times
        mc_mean = float(times.mean())
        mc_se = float(times.std(ddof=1)) / math.sqrt(config.replicates)
        worst = max(worst, solved)
        h = _instance_hash({"check": "entrance-demo", "depth": int(depth)})
        rel = abs(solved - closed) / closed
        records.append(CheckRecord(
            "entrance/solve-vs-formula", f"depth={depth}", h, rel, 1e-9,
            1e-9, rel <= 1e-9, "deterministic"))
        records.append(CheckRecord(
            "entrance/upper-bound", f"depth={depth}", h, solved, bound, 0.0,
            solved <= bound + 1e-12, "deterministic"))
        err = abs(mc_mean - solved)
        records.append(CheckRecord(
            "entrance/mc-return", f"depth={depth}", h, err, 4.0 * mc_se,
            4.0 * mc_se, err <= 4.0 * mc_se,
            _seed_label(config.master_seed, 7, depth)))
        rows.append({"depth": int(depth), "states": chain.n_states,
                     "exact": solved, "formula": closed, "bound": bound,
                     "mc_mean": mc_mean, "mc_se": mc_se})
    # the geometric series keeps return times bounded at every depth
    ceiling = entrance_bound(60)
    records.append(CheckRecord(
        "entrance/depth-uniform", "all depths",
        _instance_hash({"check": "entrance-uniform"}),
        worst, ceiling, 0.0, worst <= ceiling, "deterministic"))
    suite = SuiteResult("binary-entrance", config.master_seed, records)
    artifacts = RunArtifacts(suite, {"entrance": rows})
    if write:
        _write_report(config, artifacts)
    return artifacts


def _save_generated(config: ExperimentConfig, name: str, tree, measure,
                    provenance: dict) -> None:
    out = _ensure_dir(os.path.join(config.output_dir, "trees"))
    save_tree(os.path.join(out, f"{name}.tree"), tree, measure)
    with open(os.path.join(out, f"{name}.provenance.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(provenance, sort_keys=True, indent=2) + "\n")


def run_kesten_demo(config: ExperimentConfig, write: bool = True,
                    dump_paths: bool = False) -> RunArtifacts:
    """Glued reflected-walk trees across sizes, with short walk summaries."""
    horizon = float(config.family.get("horizon", 1.0))
    times = config.times or (0.1, 0.3)
    records = []
    rows = []
    paths_out = []
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
        stop = StopRule(horizon=max(times))
        summary = batch_simulate(chain, tree.root, stop, config.replicates,
                                 config.master_seed + int(n), keep_paths=dump_paths)
        ends = np.array(summary.endpoints)
        mean_end_height = float(tree.height[ends].mean())
        rows.append({"n": int(n), "states": chain.n_states,
                     "diameter": tree.diameter(),
                     "total_mass": float(measure.masses.sum()),
                     "mean_end_height": mean_end_height,
                     "replicates": config.replicates})
        if dump_paths and summary.paths:
            paths_out.append((f"kesten-n{n}", summary.paths))
        if write:
            _save_generated(config, f"kesten-n{n}", tree, measure, {
                "kind": "kesten", "params": {"n": int(n), "horizon": horizon},
                "seed": _seed_label(config.master_seed, 12, n)})
    suite = SuiteResult("kesten", config.master_seed, records)
    artifacts = RunArtifacts(suite, {"kesten": rows})
    if write:
        _write_report(config, artifacts)
        if dump_paths:
            pdir = _ensure_dir(os.path.join(config.output_dir, "paths"))
            for name, paths in paths_out:
                with open(os.path.join(pdir, f"{name}.csv"), "w",
                          encoding="utf-8", newline="") as fh:
                    export_paths_csv(paths, fh)
    return artifacts


def run_coalescent_demo(config: ExperimentConfig, write: bool = True) -> RunArtifacts:
    """Exchangeable genealogies: metric laws and a walk cross-check per size."""
    kind = config.family.get("kind", "kingman")
    records = []
    rows = []
    for n in config.n_list:
        if int(n) < 2:
            raise ConfigError("n_list: coalescent sizes must be at least 2")
        if kind == "kingman":
            spec = CoalescentSpec.kingman(int(n))
        elif kind == "beta":
            spec = CoalescentSpec.beta(int(n), float(config.family["a"]),
                                       float(config.family["b"]))
        elif kind == "atoms":
            spec = CoalescentSpec.point_masses(int(n), config.family["atoms"])
        else:
            raise ConfigError(f"family.kind: unknown coalescent kind {kind!r}")
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
        worst = 0.0
        leaves = list(ct.leaves)
        for ii in range(len(leaves)):
            for jj in range(ii + 1, len(leaves)):
                for kk in range(jj + 1, len(leaves)):
                    d = sorted([tree.distance(leaves[ii], leaves[jj]),
                                tree.distance(leaves[ii], leaves[kk]),
                                tree.distance(leaves[jj], leaves[kk])])
                    worst = max(worst, d[2] - d[1])
        records.append(CheckRecord(
            "coalescent/ultrametric", f"n={n}", h, worst, 1e-9, 1e-9,
            worst <= 1e-9, _seed_label(config.master_seed, 13, n)))
        atom = coalescent_speed_measure(ct, "branch-atomic")
        dens = coalescent_speed_measure(ct, "skeleton-density")
        chain = build_chain(tree, atom)
        start = chain.nearest_state(0)
        solved = exact.expected_hitting(chain, start, tree.root)
        times = lockstep_ensemble(chain, start, (tree.root,),
                                  _spawn(config.master_seed, 13, n, 1),
                                  config.replicates).end_times
        mc_mean = float(times.mean())
        mc_se = float(times.std(ddof=1)) / math.sqrt(config.replicates)
        err = abs(mc_mean - solved)
        records.append(CheckRecord(
            "coalescent/hitting-mc", f"n={n} start={start}", h, err,
            4.0 * mc_se, 4.0 * mc_se, err <= 4.0 * mc_se,
            _seed_label(config.master_seed, 13, n, 1)))
        rows.append({"n": int(n), "vertices": tree.n,
                     "merges": len(ct.events),
                     "diameter": tree.diameter(),
                     "atomic_mass": float(atom.masses.sum()),
                     "density_mass": float(dens.masses.sum()),
                     "hit_exact": solved, "hit_mc": mc_mean, "hit_se": mc_se})
        if write:
            _save_generated(config, f"coalescent-{kind}-n{n}", tree, atom, {
                "kind": f"coalescent-{kind}", "params": {"n_leaves": int(n)},
                "seed": _seed_label(config.master_seed, 13, n)})
    suite = SuiteResult("coalescent", config.master_seed, records)
    artifacts = RunArtifacts(suite, {"coalescent": rows})
    if write:
        _write_report(config, artifacts)
    return artifacts


RUNNERS = {
    "verify": run_verify,
    "stone": run_convergence,
    "crt": run_convergence,
    "fdd": run_convergence,
    "binary-entrance": run_entrance_demo,
    "kesten": run_kesten_demo,
    "coalescent": run_coalescent_demo,
}


def run_experiment(config: ExperimentConfig, write: bool = True,
                   dump_paths: bool = False) -> RunArtifacts:
    runner = RUNNERS[config.experiment]
    if runner is run_kesten_demo:
        return runner(config, write=write, dump_paths=dump_paths)
    return runner(config, write=write)
