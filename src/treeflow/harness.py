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
    stone_tq,
    stone_vertex,
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


def _segment_interior(tree: RootedMetricTree, a: int, b: int) -> list:
    everyone = np.arange(tree.n)
    inside = tree.on_segment(everyone, a, b) & (everyone != a) & (everyone != b)
    return np.flatnonzero(inside).tolist()


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


def run_verify(config: ExperimentConfig) -> RunArtifacts:
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
    return RunArtifacts(records)


# -- convergence families ----------------------------------------------------

def stone_level(n: int, span_exponent: int = 2):
    """Geometric two-ray lattice with ratio 2^(1/n), embedded in the line.

    Returns (tree, measure, positions): positions are the signed points
    +-q^k and 0, and the measure is the midpoint rule for Lebesgue measure on
    them, so the root carries mass and every vertex is a chain state.  The
    lattice, masses and edge lengths are mirror symmetric about the root bit
    for bit, so _stone_root_laws can take root laws on the lumped half
    lattice.
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


def _stone_root_laws(tree: RootedMetricTree, measure: SpeedMeasure, times,
                     ids) -> list:
    """Exact law at each time of the walk from the root of a stone_level
    lattice, as measures with the atom of vertex v at ``ids[v]``.

    The lattice, its masses and its edge lengths are symmetric under the
    reflection x -> -x that swaps the two rays, so the law from the root is
    even.  It is computed on the chain lumped over +-x, a path on the root
    and one ray: the root keeps its mass, ray vertex x carries
    m(x) + m(-x), and every ray edge has half its length, so twice its
    conductance.  transition_laws on those 2K + 2 states instead of 4K + 3
    takes about a quarter of the eigen time and memory, and each ray atom of
    the lumped law is split evenly between +-x.  Raises ValueError unless
    the rays mirror each other in layout, edge lengths and masses, bit for
    bit.
    """
    masses = measure.masses
    m = (tree.n - 1) // 2                  # vertices per ray
    plus = np.arange(1, m + 1)
    minus = plus + m
    up = plus - 1                          # parents along the + ray
    if (tree.n != 2 * m + 1 or tree.root != 0
            or not np.array_equal(tree.parent[plus], up)
            or not np.array_equal(tree.parent[minus], np.where(up > 0, up + m, 0))
            or not np.array_equal(tree.edge_length[plus], tree.edge_length[minus])
            or not np.array_equal(masses[plus], masses[minus])):
        raise ValueError("stone lattice is not mirror symmetric about its "
                         "root: the rays differ in layout, edge lengths or masses")
    half_tree = build_tree(np.concatenate(([0], up)),
                           np.concatenate(([0.0], tree.edge_length[plus] / 2.0)),
                           root=0)
    half = build_chain(half_tree, SpeedMeasure(
        np.concatenate((masses[:1], masses[plus] + masses[minus]))))
    laws = []
    for law in exact.transition_laws(half, [0], times)[:, 0]:
        lumped = np.zeros(m + 1)
        lumped[half.states] = law
        w = np.empty(tree.n)
        w[0] = lumped[0]
        w[plus] = w[minus] = lumped[1:] / 2.0
        laws.append(FiniteAtomMeasure.from_dict(
            {ids[v]: float(w[v]) for v in range(tree.n)}))
    return laws


def _stone_reference_ids(n: int, ref: int, span_exponent: int):
    """Map level-n vertices onto the reference lattice (n must divide ref)."""
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

    Every root law, the reference's and each level's, comes from the chain
    lumped over x -> -x (_stone_root_laws), a birth-death chain on half the
    states.  The spaces rows compare each level's measure, pushed onto the
    reference lattice, with the reference measure.
    """
    span = int(config.family.get("span_exponent", 2))
    ref_level = int(config.family.get("reference_level", 2 * max(config.n_list)))
    delta = float(config.family.get("delta", 0.25))
    times = config.times or (0.25, 1.0)
    ref_tree, ref_measure, _ = stone_level(ref_level, span)
    ref_laws = _stone_root_laws(ref_tree, ref_measure, times, range(ref_tree.n))
    levels = []
    approximations = []
    for n in config.n_list:
        tree, measure, _ = stone_level(n, span)
        ids = _stone_reference_ids(n, ref_level, span)
        # atoms sit on their reference-lattice twins, so shared ones merge
        laws = _stone_root_laws(tree, measure, times, ids.tolist())
        levels.append((n, laws, {"reference_level": ref_level}))
        pushed = np.zeros(ref_tree.n)
        np.add.at(pushed, ids, measure.masses)
        approximations.append((f"n={n}", SpeedMeasure(pushed)))
    rows, records = _law_distances("stone", times, levels, ref_laws,
                                   tree_metric(ref_tree), "deterministic")
    # radii off the lattice: no vertex height is 2^span * 0.3 or 0.6, so the
    # boundary-tie flag stays quiet.  The lattice is a path, so Prohorov
    # runs on its sweep.
    radii = [0.3 * 2.0 ** span, 0.6 * 2.0 ** span]
    spaces = gh_vague_report(ref_tree, ref_measure, approximations, radii,
                             delta)
    return RunArtifacts(records, {"distances": rows,
                                  "spaces": _spaces_table(spaces)})


def run_fdd(config: ExperimentConfig) -> RunArtifacts:
    """Two-vertex family with vanishing far mass: marginals converge while
    the lower mass bound collapses, so space convergence is flagged."""
    floor = float(config.family.get("mass_floor", 0.05))
    with_joint = bool(config.family.get("with_joint", True))
    times = config.times or (0.25, 1.0)
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
        if with_joint and len(times) >= 2:
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
        m_delta = lower_mass(tree, measure, 0.5).value
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


def run_entrance_demo(config: ExperimentConfig) -> RunArtifacts:
    """Exact and simulated root return times on deepening binary trees."""
    records = []
    rows = []
    worst = 0.0
    for depth in config.n_list:
        h = _instance_hash({"check": "entrance-demo", "depth": int(depth)})
        chain, solved, closed, exact_records = _entrance_exact(depth, h)
        records += exact_records
        bound = entrance_bound(depth)
        times = lockstep_ensemble(chain, _entrance_leaf(depth), (chain.tree.root,),
                                  _spawn(config.master_seed, 7, depth),
                                  config.replicates).end_times
        mc_mean = float(times.mean())
        mc_se = float(times.std(ddof=1)) / math.sqrt(config.replicates)
        worst = max(worst, solved)
        records.append(_mc_record(
            "entrance/mc-return", f"depth={depth}", h, mc_mean, solved, mc_se,
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
    return RunArtifacts(records, {"entrance": rows})


def run_kesten_demo(config: ExperimentConfig,
                    dump_paths: bool = False) -> RunArtifacts:
    """Glued reflected-walk trees across sizes, with short walk summaries."""
    horizon = float(config.family.get("horizon", 1.0))
    times = config.times or (0.1, 0.3)
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
