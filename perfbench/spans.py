"""In-memory span tracer that wraps rdnet's public functions from outside.

A span is (name, start, end, parent span, pass id), with integer nanosecond
clock readings so that self times (duration minus the time covered by direct
children) are exact and never negative. Wrappers are installed wherever a
function object is bound in a loaded ``rdnet`` module, because modules such
as ``rdnet.cli`` import functions by name; ``uninstall`` restores every
binding. An untraced pass installs only ``capture_returns`` and checks,
after it has been removed, that no wrapper is left.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import sys
import time
from array import array

import numpy as np

MODULES = ("presets", "geometry", "model", "certificates", "stationary",
           "simulator", "schema")
# public methods the per-layer metrics name; every other public callable
# traced is a module-level function
METHODS = (("model", "Activation", "__call__"), ("simulator", "History", "value"),
           ("simulator", "History", "push"))

# verify calls per simplex point are measured against the lattice that
# search_certificate scans by default for three modes (step 0.01)
SEARCH_LATTICE_POINTS = math.comb(100 + 2, 2)
MARK = "__perfbench_traced__"


def traced_callables():
    """(owner, attribute, object) for every callable the tracer wraps."""
    found = []
    for short in MODULES:
        mod = sys.modules[f"rdnet.{short}"]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found.append((mod, name, obj))
    for short, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"rdnet.{short}"], cls_name)
        found.append((cls, meth, vars(cls)[meth]))
    return found


def rebind(replaced: dict) -> list[tuple[object, str, object]]:
    """Bind replaced[id(f)] wherever a loaded rdnet module binds f.

    Returns (module, attribute, old value) for every binding changed.
    """
    patches = []
    for name, mod in list(sys.modules.items()):
        if name == "rdnet" or name.startswith("rdnet."):
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and not attr.startswith("__"):
                    patches.append((mod, attr, value))
                    setattr(mod, attr, replaced[id(value)])
    return patches


def restore(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, old in reversed(patches):
        setattr(owner, attr, old)


@contextlib.contextmanager
def capture_returns(module: str, name: str):
    """Record (args, result) of every call of rdnet.<module>.<name> in the block."""
    fn = getattr(sys.modules[f"rdnet.{module}"], name)
    calls: list = []

    def keep(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    setattr(keep, MARK, True)
    patches = rebind({id(fn): keep})
    try:
        yield calls
    finally:
        restore(patches)


def all_unwrapped() -> bool:
    """True when no rdnet binding refers to a tracer wrapper."""
    bound = [obj for _, _, obj in traced_callables()]
    for name, mod in list(sys.modules.items()):
        if name == "rdnet" or name.startswith("rdnet."):
            bound.extend(vars(mod).values())
    return not any(getattr(obj, MARK, False) for obj in bound)


class Tracer:
    """Span recorder; install() wraps, uninstall() restores."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack = [-1]
        self.search_honor: dict[int, bool] = {}
        self.values: dict[str, float] = {"simulate.steps": 0, "simulate_ode.steps": 0,
                                         "switch_count": 0, "fixed_point.iterations": 0,
                                         "variational.iterations": 0,
                                         "field_csv.bytes": 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, label: str, fn, on_return=None, key=None):
        base_id = len(self.names)
        self.names.append(label)
        ids: dict = {}
        clock = time.perf_counter_ns
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = base_id
            if key is not None:
                k = key(args)
                nid = ids.get(k)
                if nid is None:
                    nid = ids[k] = len(tr.names)
                    tr.names.append(f"{label}.{k}")
            idx = len(tr.start)
            tr.name_of.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.end.append(0)
            tr.stack.append(idx)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = clock()
                tr.stack.pop()
            if on_return is not None:
                on_return(idx, args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        def fixed_point(idx, args, kwargs, result):
            self.values["fixed_point.iterations"] += result[1].iterations

        def variational(idx, args, kwargs, result):
            self.values["variational.iterations"] += result[1].iterations

        def simulate(idx, args, kwargs, result):
            self.values["simulate.steps"] += len(result.times) - 1
            self.values["switch_count"] += result.switch_count

        def simulate_ode(idx, args, kwargs, result):
            self.values["simulate_ode.steps"] += len(result.times) - 1

        def field_csv(idx, args, kwargs, result):
            self.values["field_csv.bytes"] += os.path.getsize(args[0])

        def search(idx, args, kwargs, result):
            honor = kwargs.get("honor_theorem_constraint", True)
            self.search_honor[idx] = honor
            if not honor:
                self.values["cert_gamma"] = result.gamma

        hooks = {"stationary.fixed_point_solve": fixed_point,
                 "stationary.variational_minimize": variational,
                 "simulator.simulate": simulate,
                 "simulator.simulate_ode": simulate_ode,
                 "schema.write_field_csv": field_csv,
                 "certificates.search_certificate": search}
        keys = {"geometry.helmholtz_solve": lambda a: f"{a[0].domain.dims}d"}

        replaced = {}
        for owner, attr, obj in traced_callables():
            short = owner.__name__.rsplit(".", 1)[-1] if inspect.ismodule(owner) \
                else f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}"
            label = f"{short}.{attr}"
            replaced[id(obj)] = self._wrap(label, obj, hooks.get(label), keys.get(label))
            if not inspect.ismodule(owner):
                self._patches.append((owner, attr, obj))
                setattr(owner, attr, replaced[id(obj)])
        # rebind every module-level name that refers to a wrapped function
        self._patches += rebind(replaced)

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches.clear()

    # -- analysis --------------------------------------------------------
    def spans(self) -> dict:
        """Column arrays of the recorded spans."""
        return {"name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.int64).copy(),
                "end": np.frombuffer(self.end, dtype=np.int64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "pass_id": self.pass_id, "labels": list(self.names)}

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this pass (see perfbench/README.md)."""
        sp = self.spans()
        labels = sp["labels"]
        name, parent = sp["name"], sp["parent"]
        dur = sp["end"] - sp["start"]
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        self_ns = dur - child
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

        def ids(label):
            return [i for i, lab in enumerate(labels) if lab == label]

        def mask(label, under=None):
            m = np.isin(name, ids(label))
            if under is not None:
                m &= np.isin(parent_name, ids(under))
            return m

        def calls(label):
            return int(mask(label).sum())

        def self_s(label):
            return float(self_ns[mask(label)].sum()) / 1e9

        def incl_s(label, under=None):
            return float(dur[mask(label, under)].sum()) / 1e9

        def median_us(label):
            m = mask(label)
            return float(np.median(dur[m])) / 1e3 if m.any() else 0.0

        def max_ms(label):
            m = mask(label)
            return float(dur[m].max()) / 1e6 if m.any() else 0.0

        v = self.values
        out = {"presets.initial_field.s": self_s("presets.switched_benchmark_initial")}
        for dim in ("2d", "1d"):
            lab = f"geometry.helmholtz_solve.{dim}"
            out[f"{lab}.calls"] = calls(lab)
            out[f"{lab}.s"] = self_s(lab)
            out[f"{lab}.median_us"] = median_us(lab)
            out[f"{lab}.max_ms"] = max_ms(lab)
        for lab in ("geometry.l2_inner", "geometry.apply_laplacian"):
            out[f"{lab}.calls"] = calls(lab)
            out[f"{lab}.s"] = self_s(lab)
        act = "model.Activation.__call__"
        out["model.activation.calls"] = calls(act)
        out["model.activation.s"] = self_s(act)
        out["model.activation.median_us"] = median_us(act)
        out["model.check_A1_sampled.s"] = self_s("model.check_A1_sampled")

        ver = "certificates.verify_certificate"
        out[f"{ver}.calls"] = calls(ver)
        out[f"{ver}.s"] = self_s(ver)
        out[f"{ver}.median_us"] = median_us(ver)
        out["certificates.search_certificate.s"] = self_s("certificates.search_certificate")
        per_beta = {True: 0.0, False: 0.0}
        for idx, honor in self.search_honor.items():
            n_verify = int((mask(ver) & (parent == idx)).sum())
            per_beta[honor] = n_verify / SEARCH_LATTICE_POINTS
        out["certificates.verify_per_beta.free"] = per_beta[False]
        out["certificates.verify_per_beta.honor"] = per_beta[True]
        out["cert_gamma"] = float(v.get("cert_gamma", 0.0))

        fp = "stationary.fixed_point_solve"
        iters = int(v["fixed_point.iterations"])
        out[f"{fp}.calls"] = calls(fp)
        out[f"{fp}.s"] = self_s(fp)
        out[f"{fp}.iterations"] = iters
        out["stationary.iter_us"] = incl_s(fp) / iters * 1e6 if iters else 0.0
        out["stationary.find_stationary_multiplicity.s"] = \
            self_s("stationary.find_stationary_multiplicity")
        out["stationary.variational_minimize.s"] = self_s("stationary.variational_minimize")
        out["stationary.variational_minimize.iterations"] = int(v["variational.iterations"])
        out["stationary.residual.calls"] = calls("stationary.residual")

        sim, steps = "simulator.simulate", int(v["simulate.steps"])
        out[f"{sim}.s"] = self_s(sim)
        out[f"{sim}.steps"] = steps
        out["simulator.simulate_ode.s"] = self_s("simulator.simulate_ode")
        out["simulator.simulate_ode.steps"] = int(v["simulate_ode.steps"])
        per_step = 1e6 / steps if steps else 0.0
        out["simulator.step.reaction_us"] = (self_s(sim) + incl_s(act, sim)) * per_step
        out["simulator.step.solve_us"] = (incl_s("geometry.helmholtz_solve.2d", sim)
                                          + incl_s("geometry.helmholtz_solve.1d", sim)) * per_step
        out["simulator.step.delay_us"] = incl_s("simulator.History.value", sim) * per_step
        out["simulator.step.switch_us"] = incl_s("simulator.switching_decide", sim) * per_step
        for lab in ("simulator.History.value", "simulator.History.push",
                    "simulator.switching_decide"):
            out[f"{lab}.calls"] = calls(lab)
            out[f"{lab}.s"] = self_s(lab)
        out["simulator.switch_count"] = int(v["switch_count"])

        out["schema.write_field_csv.calls"] = calls("schema.write_field_csv")
        out["schema.write_field_csv.s"] = self_s("schema.write_field_csv")
        out["schema.write_field_csv.bytes"] = int(v["field_csv.bytes"])
        for lab in ("schema.write_trajectory_csv", "schema.write_report",
                    "schema.load_system"):
            out[f"{lab}.s"] = self_s(lab)
        out["trace.spans"] = len(dur)
        return out
