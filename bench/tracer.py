"""Per-layer tracing of treeflow from outside the package.

The tracer wraps every public function and public method defined in the
layer modules (``tree``, ``walk``, ``exact``, ``measures``, ``families``,
``harness``, ``cli``).  The list is made by enumeration, so a public
function added to a layer later is traced without editing this file.  Every
namespace that bound an original (module globals such as ``harness``'s
``from .walk import build_chain`` names, the package's re-exports and
module-level dicts such as ``harness.RUNNERS``) gets the same wrapper, and
everything is put back on exit.

Spans are aggregated as they close, never stored one by one: for each name
the tracer keeps calls, inclusive seconds and self seconds (inclusive minus
the time of traced children), and for each (caller, callee) pair the calls
and inclusive seconds.  Hot scalar calls such as ``tree.distance`` cost a
few dictionary updates each.  Private helpers (``harness._mc_hitting``)
and properties are not wrapped; their time is self time of the caller.

Work counters are attached in two ways: ``RESULT_PROBES`` read counts off
the arguments and result of a traced call, and ``CALL_COUNTERS`` wrap a
private or imported callee (``measures.linprog``) and add to the innermost
open span.  Names that no longer exist are skipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

LAYERS = ("tree", "walk", "exact", "measures", "families", "harness", "cli")

# the caller name of spans opened outside any traced function
ROOT = "<bench>"


def _tree_size(result):
    """Vertex count of the tree a family generator returned, else 0."""
    from treeflow.tree import RootedMetricTree

    glued = getattr(result, "glued", None)
    for obj in (result, getattr(result, "tree", None),
                getattr(glued, "tree", None),
                result[0] if isinstance(result, tuple) and result else None):
        if isinstance(obj, RootedMetricTree):
            return int(obj.n)
    return 0


def _probe_families(tracer, args, kwargs, result):
    # only the outermost generator call counts, so nested ones add nothing
    if tracer.current_layer() != "families":
        tracer.add("families.generate", "vertices", _tree_size(result))


def _probe_prohorov(tracer, args, kwargs, result):
    mu = args[0] if args else kwargs["mu"]
    nu = args[1] if len(args) > 1 else kwargs["nu"]
    tracer.add("measures.prohorov", "pairs", len(mu) * len(nu))


def _probe_heat_kernel(tracer, args, kwargs, result):
    terms = int(getattr(result, "terms", 0))
    tracer.add("exact.heat_kernel", "terms", terms)
    tracer.add("exact.heat_kernel", "term_states",
               terms * int(result.chain.n_states))


def _probe_batch(tracer, args, kwargs, result):
    tracer.add("walk.batch_simulate", "jumps", int(sum(result.jump_counts)))


# span name -> probe(tracer, args, kwargs, result), run after the span closes
RESULT_PROBES = {
    "tree.check_four_point": lambda t, a, k, r: t.add(
        "tree.check_four_point", "quadruples", int(r.checked)),
    "tree.discretize": lambda t, a, k, r: t.add(
        "tree.discretize", "net_size", len(r.subset)),
    "walk.build_chain": lambda t, a, k, r: t.add(
        "walk.build_chain", "states", int(r.n_states)),
    "walk.batch_simulate": _probe_batch,
    "exact.heat_kernel": _probe_heat_kernel,
    "measures.prohorov": _probe_prohorov,
}


def _lp_rows(args, kwargs):
    a_ub = kwargs.get("A_ub")
    return 0 if a_ub is None else int(a_ub.shape[0])


# (module, attribute) -> (counter, amount(args, kwargs)); the amount is added
# to the innermost open span, e.g. measures.kr_distance.lp_rows
CALL_COUNTERS = {
    ("treeflow.measures", "linprog"): ("lp_rows", _lp_rows),
    ("treeflow.measures", "_dinic_flow"): ("flow_probes", lambda a, k: 1),
    ("treeflow.measures", "_interval_flow"): ("flow_probes", lambda a, k: 1),
}


def traced_functions():
    """(name, owner, attribute, raw) for every public function and method.

    ``owner`` is the module or class the object is defined on and ``raw``
    is the object as stored there (a function, classmethod or
    staticmethod).  Methods are named ``layer.method``; when two objects of
    one layer share that name, each becomes ``layer.Class.method``.
    """
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"treeflow.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((layer, None, mod, attr, obj))
            elif inspect.isclass(obj):
                for mname, raw in vars(obj).items():
                    if mname.startswith("_"):
                        continue
                    if inspect.isfunction(raw) or isinstance(
                            raw, (classmethod, staticmethod)):
                        found.append((layer, obj.__name__, obj, mname, raw))
    short = {}
    for layer, cls, _, attr, _ in found:
        short.setdefault(f"{layer}.{attr}", set()).add(cls)
    out = []
    for layer, cls, owner, attr, raw in found:
        name = f"{layer}.{attr}"
        if len(short[name]) > 1 and cls is not None:
            name = f"{layer}.{cls}.{attr}"
        out.append((name, owner, attr, raw))
    return out


class Tracer:
    """Aggregated spans and counters for calls into treeflow's layers.

    Use as a context manager: entering patches the layers, leaving restores
    every patched binding, also when the block raises.  Only calls made on
    the thread that entered are recorded; calls from other threads run
    untraced.
    """

    def __init__(self):
        self.totals = {}      # name -> [calls, inclusive s, self s]
        self.edges = {}       # (caller, name) -> [calls, inclusive s]
        self.counters = {}    # (name, counter) -> amount
        self._stack = []      # open spans: [child seconds, name]
        self._patched = []    # (container, key, original, is_dict)
        self._owner = None

    # -- recording ---------------------------------------------------------

    def add(self, name: str, counter: str, amount) -> None:
        key = (name, counter)
        self.counters[key] = self.counters.get(key, 0) + amount

    def current(self) -> str:
        return self._stack[-1][1] if self._stack else ROOT

    def current_layer(self) -> str:
        return self.current().split(".", 1)[0]

    def _wrap(self, name: str, fn, probe):
        stack = self._stack
        edges = self.edges
        perf = time.perf_counter
        get_ident = threading.get_ident
        owner = self._owner
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != owner:
                return fn(*args, **kwargs)
            frame = [0.0, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                    caller = stack[-1][1]
                else:
                    caller = ROOT
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                edge = edges.get((caller, name))
                if edge is None:
                    edges[(caller, name)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return traced

    def _counting(self, counter: str, amount, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if threading.get_ident() == self._owner:
                self.add(self.current(), counter, amount(args, kwargs))
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def _namespaces(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "treeflow" or n.startswith("treeflow."))]

    def _rebind(self, original, replacement) -> None:
        """Point every module-level binding of ``original`` at ``replacement``."""
        for mod in self._namespaces():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, value, False))
                    setattr(mod, key, replacement)
                elif type(value) is dict and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patched.append((value, k, v, True))
                            value[k] = replacement

    def __enter__(self):
        if self._patched:
            raise RuntimeError("tracer is already active")
        self._owner = threading.get_ident()
        try:
            for name, owner, attr, raw in traced_functions():
                probe = RESULT_PROBES.get(name)
                if name.startswith("families."):
                    probe = _probe_families
                if isinstance(owner, type):
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(name, raw.__func__, probe))
                    else:
                        wrapped = self._wrap(name, raw, probe)
                    self._patched.append((owner, attr, raw, False))
                    setattr(owner, attr, wrapped)
                else:
                    self._rebind(raw, self._wrap(name, raw, probe))
            for (modname, attr), (counter, amount) in CALL_COUNTERS.items():
                mod = sys.modules.get(modname)
                fn = getattr(mod, attr, None) if mod is not None else None
                if fn is not None:
                    self._patched.append((mod, attr, fn, False))
                    setattr(mod, attr, self._counting(counter, amount, fn))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        """Put every patched binding back, last patch first."""
        while self._patched:
            container, key, original, is_dict = self._patched.pop()
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)

    # -- reading -----------------------------------------------------------

    def layer_self(self) -> dict:
        """Self seconds per layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.totals.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def calls(self, *names) -> int:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(self, *names) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def count(self, name: str, counter: str):
        return self.counters.get((name, counter), 0)

    def snapshot(self) -> dict:
        """JSON-ready copy of everything recorded."""
        return {
            "spans": {n: {"calls": c, "total_s": t, "self_s": s}
                      for n, (c, t, s) in sorted(self.totals.items()) if c},
            "edges": [{"caller": a, "name": b, "calls": c, "total_s": t}
                      for (a, b), (c, t) in sorted(self.edges.items())],
            "counters": {f"{n}.{c}": v
                         for (n, c), v in sorted(self.counters.items())},
        }
