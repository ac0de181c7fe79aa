"""Outside-in span tracer for the hurwitztau layers.

The tracer changes nothing under ``src/``.  It replaces each traced function
with a recording wrapper in *every* ``hurwitztau`` module namespace that
holds it, so a ``from .elliptic import zeta_derivs`` binding inside
``cover1`` is traced as well as the module attribute ``elliptic.zeta_derivs``.
Two methods are patched on their classes: ``CPoly.eval_derivatives`` and the
classmethod ``WeierstrassContext.create``.

A span is (name, start, end, parent span, op id), kept in flat arrays in
memory.  ``aggregate`` derives counts, inclusive time and self time (span
time minus the time of its direct child spans) from them; ``layer_metrics``
normalises the sums per op.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (defining module, attribute, span name); "Class.method" patches a method
TARGETS = [
    ("elliptic", "theta1_derivs", "elliptic.theta1_derivs"),
    ("elliptic", "zeta_derivs", "elliptic.zeta_derivs"),
    ("elliptic", "wp", "elliptic.wp"),
    ("elliptic", "sigma_w", "elliptic.sigma_w"),
    ("elliptic", "elliptic_zeros", "elliptic.elliptic_zeros"),
    ("elliptic", "WeierstrassContext.create", "elliptic.ctx_create"),
    ("cover1", "eval_p_derivs", "cover1.eval_p_derivs"),
    ("cover1", "critical_data", "cover1.critical_data"),
    ("cover1", "tau_product", "cover1.tau_product"),
    ("cover1", "tau_resultant", "cover1.tau_resultant"),
    ("cover0", "eval_p_derivs", "cover0.eval_p_derivs"),
    ("cover0", "critical_data", "cover0.critical_data"),
    ("cover0", "p_prime_as_ratio", "cover0.p_prime_as_ratio"),
    ("cover0", "tau_product", "cover0.tau_product"),
    ("cover0", "tau_resultant", "cover0.tau_resultant"),
    ("poly", "all_roots", "poly.all_roots"),
    ("poly", "resultant", "poly.resultant"),
    ("poly", "log_resultant", "poly.log_resultant"),
    ("poly", "CPoly.eval_derivatives", "poly.eval_derivatives"),
    ("isomon", "analyze", "isomon.analyze"),
    ("isomon", "build_isomonodromy", "isomon.build_isomonodromy"),
    ("isomon", "bergmann_values", "isomon.bergmann_values"),
    ("isomon", "parameter_derivatives", "isomon.parameter_derivatives"),
    ("isomon", "identity_report", "isomon.identity_report"),
    ("cli", "load_covering", "cli.load_covering"),
    ("cli", "build_report", "cli.build_report"),
    ("cli", "main", "cli.main"),
]
# critical_data(c, seeds) is recorded under "<name>#seeded" when seeds is given
SEEDED = {"cover1.critical_data", "cover0.critical_data"}
CTX_CREATE = "elliptic.ctx_create"
ZERO_SEARCH = "elliptic.elliptic_zeros"
ZERO_SEARCH_CHILD = "cover1.eval_p_derivs"


class Tracer:
    """Records spans of the traced hurwitztau functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.keys: dict[int, tuple] = {}  # span -> modulus key (ctx_create)
        self.op_id = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        sid = self._id(name + "#seeded") if name in SEEDED else nid
        is_ctx = name == CTX_CREATE
        names, parents, ops, starts, ends, stack = (
            self.name, self.parent, self.op, self.start, self.end, self._stack)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            if sid != nid and (args[1] if len(args) > 1 else kwargs.get("seeds")) is not None:
                names.append(sid)
            else:
                names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            if is_ctx:
                mod = args[1]
                tracer.keys[idx] = (mod.sigma, mod.truncation)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self) -> list[str]:
        """Patch every binding of the targets; returns the patched bindings."""
        pkg = "hurwitztau"
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == pkg or n.startswith(pkg + "."))}
        wrappers: dict[int, object] = {}
        patched = []
        for mod_name, attr, span in TARGETS:
            owner = modules[f"{pkg}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span))
                else:
                    new = self._wrap(raw, span)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                patched.append(f"{mod_name}.{attr}")
            else:
                wrappers[id(getattr(owner, attr))] = self._wrap(getattr(owner, attr), span)
        for mod_name, mod in sorted(modules.items()):
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, value))
                    patched.append(f"{mod_name[len(pkg) + 1:] or pkg}.{attr}")
        return patched

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def aggregate(self) -> dict:
        """Per-name sums over all recorded spans (seconds and counts)."""
        a = self.arrays()
        n = len(a["name"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        parent_name = np.full(n, -1)
        parent_name[has_parent] = a["name"][a["parent"][has_parent]]
        out: dict = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            outer = mask & (parent_name != nid)
            out[name] = {
                "calls": int(mask.sum()),
                "incl_s": float(dur[outer].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        # outermost time of resultant + log_resultant together
        res_ids = [self._ids["poly.resultant"], self._ids["poly.log_resultant"]]
        in_group = np.isin(a["name"], res_ids)
        parent_in_group = np.isin(parent_name, res_ids)
        out["poly.resultant_group"] = {
            "calls": int(in_group.sum()),
            "incl_s": float(dur[in_group & ~parent_in_group].sum()),
        }
        # child eval_p_derivs calls made directly by each zero search
        is_child = (a["name"] == self._ids[ZERO_SEARCH_CHILD]) & (
            parent_name == self._ids[ZERO_SEARCH])
        out["zero_search_h_evals"] = int(is_child.sum())
        # distinct moduli among the context builds of each op
        per_op: dict[int, set] = {}
        for idx, key in self.keys.items():
            per_op.setdefault(int(a["op"][idx]), set()).add(key)
        out["ctx_distinct_moduli"] = sum(len(s) for s in per_op.values())
        out["spans"] = n
        return out


def merge(aggs: list[dict]) -> dict:
    """Sum several ``aggregate`` results (one per traced worker)."""
    total: dict = {}
    for agg in aggs:
        for key, val in agg.items():
            if isinstance(val, dict):
                slot = total.setdefault(key, {})
                for k, v in val.items():
                    slot[k] = slot.get(k, 0) + v
            else:
                total[key] = total.get(key, 0) + val
    return total


def layer_metrics(agg: dict, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics {name: (value, unit)} from merged aggregates."""
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

    def get(name: str) -> dict:
        return agg.get(name, zero)

    def both(name: str) -> dict:
        g, s = get(name), get(name + "#seeded")
        return {k: g.get(k, 0) + s.get(k, 0) for k in zero}

    per = 1.0 / n_ops
    ms = 1e3 * per
    theta = get("elliptic.theta1_derivs")
    zeros = get(ZERO_SEARCH)
    ctx = get(CTX_CREATE)
    out = {
        "elliptic.theta1_derivs.calls_per_op": (theta["calls"] * per, "count"),
        "elliptic.theta1_derivs.self_ms_per_op": (theta["self_s"] * ms, "ms"),
        "elliptic.theta1_derivs.us_per_call": (
            1e6 * theta["incl_s"] / theta["calls"] if theta["calls"] else 0.0, "us"),
        "elliptic.zeta_derivs.self_ms_per_op": (get("elliptic.zeta_derivs")["self_s"] * ms, "ms"),
        "elliptic.elliptic_zeros.calls_per_op": (zeros["calls"] * per, "count"),
        "elliptic.elliptic_zeros.ms_per_op": (zeros["incl_s"] * ms, "ms"),
        "elliptic.elliptic_zeros.h_evals_per_call": (
            agg.get("zero_search_h_evals", 0) / zeros["calls"] if zeros["calls"] else 0.0,
            "count"),
        "elliptic.ctx_create.calls_per_op": (ctx["calls"] * per, "count"),
        "elliptic.ctx_create.ms_per_op": (ctx["incl_s"] * ms, "ms"),
        "elliptic.ctx_create.distinct_moduli_per_build": (
            agg.get("ctx_distinct_moduli", 0) / ctx["calls"] if ctx["calls"] else 0.0,
            "ratio"),
    }
    for genus in ("cover1", "cover0"):
        cd = f"{genus}.critical_data"
        out[f"{cd}.global_calls_per_op"] = (get(cd)["calls"] * per, "count")
        out[f"{cd}.seeded_calls_per_op"] = (get(cd + "#seeded")["calls"] * per, "count")
        out[f"{cd}.self_ms_per_op"] = (both(cd)["self_s"] * ms, "ms")
        out[f"{genus}.eval_p_derivs.calls_per_op"] = (
            get(f"{genus}.eval_p_derivs")["calls"] * per, "count")
        if genus == "cover1":
            out["cover1.eval_p_derivs.self_ms_per_op"] = (
                get("cover1.eval_p_derivs")["self_s"] * ms, "ms")
        out[f"{genus}.tau_resultant.ms_per_op"] = (
            get(f"{genus}.tau_resultant")["incl_s"] * ms, "ms")
    ratio = get("cover0.p_prime_as_ratio")
    out["cover0.p_prime_as_ratio.calls_per_op"] = (ratio["calls"] * per, "count")
    out["cover0.p_prime_as_ratio.ms_per_op"] = (ratio["incl_s"] * ms, "ms")
    roots = get("poly.all_roots")
    res = agg.get("poly.resultant_group", {"calls": 0, "incl_s": 0.0})
    out["poly.all_roots.calls_per_op"] = (roots["calls"] * per, "count")
    out["poly.all_roots.ms_per_op"] = (roots["incl_s"] * ms, "ms")
    out["poly.resultant.calls_per_op"] = (res["calls"] * per, "count")
    out["poly.resultant.ms_per_op"] = (res["incl_s"] * ms, "ms")
    out["poly.eval_derivatives.calls_per_op"] = (
        get("poly.eval_derivatives")["calls"] * per, "count")
    an = get("isomon.analyze")
    out["isomon.analyze.calls_per_op"] = (an["calls"] * per, "count")
    out["isomon.analyze.self_ms_per_op"] = (an["self_s"] * ms, "ms")
    out["isomon.parameter_derivatives.ms_per_op"] = (
        get("isomon.parameter_derivatives")["incl_s"] * ms, "ms")
    out["isomon.identity_report.self_ms_per_op"] = (
        get("isomon.identity_report")["self_s"] * ms, "ms")
    out["isomon.bergmann_values.ms_per_op"] = (
        get("isomon.bergmann_values")["incl_s"] * ms, "ms")
    out["cli.load_covering.ms_per_op"] = (get("cli.load_covering")["incl_s"] * ms, "ms")
    out["cli.build_report.self_ms_per_op"] = (get("cli.build_report")["self_s"] * ms, "ms")
    out["cli.main.ms_per_op"] = (get("cli.main")["incl_s"] * ms, "ms")
    out["trace.spans_per_op"] = (agg.get("spans", 0) * per, "count")
    return out
