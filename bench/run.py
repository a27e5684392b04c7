"""End-to-end benchmark of treeflow's shipped experiments.

Run from the root of a checkout:

    python3 bench/run.py --workload ensemble --seed 7 --seconds 30 --trace 0

Each workload runs its experiments through the command line entry point,
``treeflow.cli.main``, called in this process with ``--seed`` and
``--out``.  One pass runs every experiment of the workload once; passes
repeat until ``--seconds`` is used up, with at least two.  With
``--trace 0`` the run reports wall time per pass, set-up time and peak
memory; with ``--trace 1`` it runs the workload untraced, traced and
untraced again at the same seed and reports per-layer numbers from the
traced pass.  Every run checks that each experiment exits 0 with every
check record passed and that report digests repeat for a repeated seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the run manifest, goes to ``.bench_out/results/``.  See NOTES.md for
why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SHIPPED_SEED = 20240817

# experiment name and extra command line arguments, in run order
WORKLOADS = {
    "ensemble": [("binary-entrance", []), ("coalescent", [])],
    "convergence": [("stone", []), ("crt", []), ("fdd", []),
                    ("kesten", ["--dump-paths"])],
    "verify": [("verify", [])],
}

# The verify suite's Monte Carlo records use 3-sigma bands that are pinned
# at the shipped seed; at other master seeds about one pass in four has a
# band miss by design, and the brute-force KR oracle's cost doubles or
# halves with the seed.  So verify always replays the shipped seed.
PINNED_SEED = {"verify": SHIPPED_SEED}

# seconds one experiment may take before it is stopped and counted failed;
# each is several times the experiment's time on a 2-core machine
TIME_LIMITS = {"binary-entrance": 120.0, "verify": 60.0, "stone": 60.0,
               "crt": 40.0, "kesten": 40.0, "coalescent": 30.0, "fdd": 20.0}

MIN_PASSES = 2
SETUP_PROBES = 3
# experiments are cut short so that a run ends well inside 180 seconds
RUN_DEADLINE_S = 165.0

PROCESS_START = time.perf_counter()


class ExperimentTimeout(BaseException):
    """Raised in the main thread when an experiment exceeds its limit.

    A BaseException, so ``except Exception`` in the code under test cannot
    swallow it.
    """


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise ExperimentTimeout in this (main) thread after ``seconds``."""
    if seconds <= 0:
        raise ExperimentTimeout()

    def alarm(signum, frame):
        raise ExperimentTimeout()

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class ExperimentRun:
    experiment: str
    master_seed: int
    status: str                 # ok | failed-checks | error | timeout | no-report
    seconds: float
    exit_code: int | None = None
    records: int = 0
    failed_records: int = 0
    digest: str | None = None
    output_bytes: int = 0
    error: str | None = None
    layer_self_s: dict | None = None    # traced passes only

    @property
    def attempted(self) -> int:
        return self.records if self.digest else 1

    @property
    def failed(self) -> int:
        return self.failed_records if self.digest else 1


@dataclass
class PassResult:
    master_seed: int
    traced: bool
    experiments: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(e.seconds for e in self.experiments)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_experiment(experiment: str, extra, master_seed: int, out: Path,
                   limit: float, main=None) -> ExperimentRun:
    """One CLI call under a time limit; its report is digested and removed."""
    if main is None:
        from treeflow import cli
        main = cli.main
    shutil.rmtree(out, ignore_errors=True)
    argv = [experiment, *extra, "--seed", str(master_seed), "--out", str(out)]
    run = ExperimentRun(experiment, master_seed, "ok", 0.0)
    # start every experiment from the same heap state, so garbage left by
    # the previous one is not collected on its clock
    gc.collect()
    start = time.perf_counter()
    try:
        with time_limit(limit), contextlib.redirect_stdout(io.StringIO()):
            run.exit_code = main(argv)
    except ExperimentTimeout:
        run.status = "timeout"
    except (Exception, SystemExit) as exc:
        run.status = "error"
        run.error = f"{type(exc).__name__}: {exc}"
    run.seconds = time.perf_counter() - start
    report = out / "report.json"
    if run.status == "ok":
        if report.is_file():
            blob = report.read_bytes()
            run.digest = hashlib.sha256(blob).hexdigest()
            records = json.loads(blob)["records"]
            run.records = len(records)
            run.failed_records = sum(1 for r in records if not r["passed"])
            if run.exit_code != 0 or run.failed_records or not records:
                run.status = "failed-checks"
        else:
            run.status = "no-report"
        run.output_bytes = _dir_bytes(out)
    shutil.rmtree(out, ignore_errors=True)
    return run


def run_pass(steps, master_seed: int, out: Path, deadline: float,
             tracer=None, main=None) -> PassResult:
    """Run every (experiment, extra args) step once at ``master_seed``.

    With a tracer, each experiment also records its self seconds per layer,
    so that a gain can be located.
    """
    result = PassResult(master_seed, tracer is not None)
    for experiment, extra in steps:
        left = deadline - time.perf_counter()
        limit = min(TIME_LIMITS.get(experiment, 60.0), left)
        before = tracer.layer_self() if tracer is not None else None
        run = run_experiment(experiment, extra, master_seed, out / experiment,
                             limit, main=main)
        if tracer is not None:
            after = tracer.layer_self()
            run.layer_self_s = {k: after[k] - before.get(k, 0.0) for k in after}
        result.experiments.append(run)
    return result


def pass_seed(workload: str, seed: int, index: int) -> int:
    """Master seed of pass ``index``: the run's seed first, then derived ones."""
    if workload in PINNED_SEED:
        return PINNED_SEED[workload]
    return seed if index == 0 else (seed + 7919 * index) % 2**31


def measure_setup(steps, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until treeflow is imported
    and the workload's configs are parsed."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           str(SRC), str(seed)] + [e for e, _ in steps]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def manifest(workload: str, seed: int, steps, seeds, loadavg) -> dict:
    import numpy
    import scipy
    from treeflow.harness import ExperimentConfig

    configs = {}
    for m in seeds:
        for experiment, _ in steps:
            text = ExperimentConfig.default(experiment).replace(master_seed=m).to_json()
            configs[f"{experiment}@{m}"] = hashlib.sha256(text.encode()).hexdigest()
    blas = {k: os.environ.get(k) for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "git_commit": git_commit(),
        "config_sha256": configs,
        "time_limits_s": {e: TIME_LIMITS.get(e) for e, _ in steps},
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def layer_metrics(tracer, traced: PassResult, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    t = tracer
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for name in ("tree.distances_from", "tree.distance", "tree.lca",
                 "tree.branch_closure", "walk.build_chain",
                 "exact.heat_kernel", "measures.prohorov",
                 "measures.kr_distance"):
        put(f"{name}.calls", t.calls(name), "count")
    for name in ("tree.distances_from", "tree.distance", "tree.lca",
                 "tree.check_four_point", "tree.discretize",
                 "tree.branch_closure", "tree.lower_mass", "walk.build_chain",
                 "exact.heat_kernel",
                 "measures.prohorov", "measures.kr_distance",
                 "measures.hausdorff_distance", "measures.gh_vague_report",
                 "measures.kr_bruteforce", "measures.prohorov_bruteforce"):
        put(f"{name}.s", t.self_s(name), "s")
    put("tree.check_four_point.quadruples",
        t.count("tree.check_four_point", "quadruples"), "count")
    put("tree.discretize.net_size", t.count("tree.discretize", "net_size"), "count")
    put("walk.build_chain.states", t.count("walk.build_chain", "states"), "count")
    # inclusive: the sampling itself runs in walk.simulate, a traced child
    jumps = t.count("walk.batch_simulate", "jumps")
    batch_s = t.totals.get("walk.batch_simulate", [0, 0.0, 0.0])[1]
    put("walk.batch_simulate.s", batch_s, "s")
    put("walk.batch_simulate.jumps", jumps, "count")
    put("walk.batch_simulate.jumps_per_s", jumps / batch_s if batch_s else 0.0, "1/s")
    put("exact.heat_kernel.terms", t.count("exact.heat_kernel", "terms"), "count")
    put("exact.heat_kernel.term_states",
        t.count("exact.heat_kernel", "term_states"), "count")
    solve = ("exact.expected_hitting", "exact.occupation_solve",
             "exact.harmonic_extension")
    closed = ("exact.occupation_functional", "exact.hitting_prob",
              "exact.atom_law", "exact.hit_bound", "exact.speed_bound")
    put("exact.solve.calls", t.calls(*solve), "count")
    put("exact.solve.s", t.self_s(*solve), "s")
    put("exact.closed_form.calls", t.calls(*closed), "count")
    put("exact.closed_form.s", t.self_s(*closed), "s")
    put("measures.prohorov.pairs", t.count("measures.prohorov", "pairs"), "count")
    put("measures.prohorov.flow_probes",
        t.count("measures.prohorov", "flow_probes"), "count")
    put("measures.kr_distance.lp_rows",
        t.count("measures.kr_distance", "lp_rows"), "count")
    layers = t.layer_self()
    put("families.generate.s", layers["families"], "s")
    put("families.generate.vertices",
        t.count("families.generate", "vertices"), "count")
    for layer in ("tree", "walk", "exact", "measures", "harness", "cli"):
        put(f"{layer}.self_s", layers[layer], "s")
    put("harness.output_bytes",
        sum(e.output_bytes for e in traced.experiments), "bytes")
    by_exp = {e.experiment: e.seconds for e in traced.experiments}
    for experiment in ("verify", "stone", "crt", "binary-entrance", "kesten",
                       "coalescent", "fdd"):
        put(f"cli.{experiment}.s", by_exp.get(experiment, 0.0), "s")
    put("trace.wall_s", traced.wall_s, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.overhead_s", traced.wall_s - untraced_wall, "s")
    put("trace.unattributed_s", traced.wall_s - sum(layers.values()), "s")
    return out


def check_digests(passes) -> list:
    """Problems found comparing digests of passes that share a master seed."""
    seen = {}
    problems = []
    for p in passes:
        for e in p.experiments:
            if e.digest is None:
                continue
            key = (e.experiment, e.master_seed)
            if key in seen and seen[key] != e.digest:
                kind = "traced" if p.traced else "untraced"
                problems.append(f"{e.experiment} seed {e.master_seed}: "
                                f"{kind} report digest differs")
            seen.setdefault(key, e.digest)
    return problems


def _cap_threads():
    """Limit BLAS pools to the machine's cores before numpy is imported."""
    cores = os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, cores))
        except ValueError:
            current = cores
        os.environ[var] = str(max(1, min(current, cores)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=SHIPPED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treeflow" / "__init__.py").is_file():
        print(f"bench: no treeflow sources under {SRC}", file=sys.stderr)
        return 2
    _cap_threads()
    sys.path.insert(0, str(SRC))
    import treeflow.cli  # noqa: F401  (fails here, before any result, if broken)

    steps = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT / "runs" / f"{tag}-{os.getpid()}"
    deadline = PROCESS_START + RUN_DEADLINE_S
    passes = []
    metrics = {}
    extra = {}
    loadavg = list(os.getloadavg())
    try:
        if args.trace == 0:
            setup = [measure_setup(steps, args.seed) for _ in range(SETUP_PROBES)]
            start = time.perf_counter()
            while True:
                index = len(passes)
                passes.append(run_pass(
                    steps, pass_seed(args.workload, args.seed, index), out,
                    deadline))
                walls = [p.wall_s for p in passes]
                elapsed = time.perf_counter() - start
                if len(passes) >= MIN_PASSES and (
                        elapsed + statistics.median(walls) > args.seconds):
                    break
                if time.perf_counter() >= deadline:
                    break
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "MB"),
            }
            extra = {"wall_s_samples": walls, "setup_s_samples": setup}
        else:
            from tracer import Tracer

            m = pass_seed(args.workload, args.seed, 0)
            passes.append(run_pass(steps, m, out, deadline))
            tracer = Tracer()
            with tracer:
                passes.append(run_pass(steps, m, out, deadline, tracer=tracer))
            passes.append(run_pass(steps, m, out, deadline))
            untraced = statistics.median([passes[0].wall_s, passes[2].wall_s])
            metrics = layer_metrics(tracer, passes[1], untraced)
            extra = {"trace": tracer.snapshot()}
    finally:
        shutil.rmtree(out, ignore_errors=True)

    info = manifest(args.workload, args.seed, steps,
                    sorted({p.master_seed for p in passes}), loadavg)
    runs = [e for p in passes for e in p.experiments]
    attempted = sum(e.attempted for e in runs)
    failed = sum(e.failed for e in runs)
    problems = [f"{e.experiment} seed {e.master_seed}: {e.status}"
                + (f" ({e.error})" if e.error else "")
                for e in runs if e.status != "ok"]
    problems += check_digests(passes)
    correct = not problems and attempted > 0

    for p in passes:
        for e in p.experiments:
            print(f"report {e.experiment} seed={e.master_seed} "
                  f"traced={int(p.traced)} {e.seconds:.3f}s "
                  f"sha256={e.digest} status={e.status}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    if args.trace == 0:
        print(f"metric wall_s samples = {len(passes)} passes")
    print(f"metric failed_frac = {failed / max(attempted, 1)!r} "
          f"({failed} of {attempted} check records)")
    for problem in problems:
        print(f"problem: {problem}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, manifest=info, problems=problems, **extra,
                  passes=[{"master_seed": p.master_seed, "traced": p.traced,
                           "wall_s": p.wall_s,
                           "experiments": [asdict(e) for e in p.experiments]}
                          for p in passes])
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
