"""Span tracing from outside the program, for the per-layer split.

The tracer wraps public wallcross functions, and ``GradedElement.__mul__``,
at their module boundary: the wrapper replaces the name in the defining
module, in every loaded ``wallcross.*`` namespace and module-level dict that
binds the same object, and is removed again by ``uninstall``.  Methods are
wrapped on their class one at a time; a class itself is never replaced.

Each call records one span (group, parent span, start, end, nested-in-own-
group flag and an optional measured value) in flat arrays kept in memory.
A group's busy time counts only its outermost spans; its self time is each
span's duration minus the durations of its direct children.

``EntryHook`` reuses the wrapping to call a function at each entry to a
few targets, for the speed probe of the end-to-end timings (``speed.py``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter


def _terms_out(args, kwargs, out):
    terms = getattr(out, "terms", None)
    return -1 if terms is None else len(terms)


def _segre_degree(args, kwargs, out):
    return args[1] if len(args) > 1 else kwargs["n"]


def _length(args, kwargs, out):
    return len(out)


# (group, defining module, qualified name, value recorded per call)
TARGETS = (
    ("graded.mul", "wallcross.graded", "GradedElement.__mul__", _terms_out),
    ("graded.integrate", "wallcross.graded", "integrate", None),
    ("graded.integrate", "wallcross.graded", "integrate_jacobian", None),
    ("chern.segre", "wallcross.chern", "segre_from_ch", _segre_degree),
    ("chern.convert", "wallcross.chern", "chern_data_from_element", None),
    ("chern.convert", "wallcross.chern", "ch_dual", None),
    ("chern.convert", "wallcross.chern", "ch_direct_sum", None),
    ("jacobian.build_model", "wallcross.jacobian", "build_model", None),
    ("jacobian.volume", "wallcross.jacobian", "volume", None),
    ("jacobian.classes", "wallcross.jacobian", "e_divisor", None),
    ("jacobian.classes", "wallcross.jacobian", "e_alpha", None),
    ("jacobian.classes", "wallcross.jacobian", "e_zeta", None),
    ("jacobian.classes", "wallcross.jacobian", "e_gamma", None),
    ("jacobian.classes", "wallcross.jacobian", "e_zeta_beta", None),
    ("jacobian.classes", "wallcross.jacobian", "jacobian_odd_integral", None),
    ("walls.build", "wallcross.walls", "WallGeometry.build", None),
    ("closed.delta", "wallcross.closed", "delta_l0", None),
    ("closed.delta", "wallcross.closed", "delta_l0_odd", None),
    ("closed.delta", "wallcross.closed", "delta_l1", None),
    ("closed.delta", "wallcross.closed", "delta_leading", None),
    ("oracle.delta", "wallcross.oracle", "delta_oracle_l0", None),
    ("oracle.delta", "wallcross.oracle", "delta_oracle_l1", None),
    ("oracle.ch_extension", "wallcross.oracle", "ch_extension_bundles", None),
    ("surfaces.enumerate", "wallcross.surfaces", "enumerate_walls", _length),
    ("verify.run", "wallcross.verify", "run_checks", None),
    *(("verify.check", "wallcross.verify", f"check_{name}", None) for name in (
        "structural_identities", "model_axioms", "oracle_l0", "oracle_l1", "odd_words",
        "segre", "leading", "hidden_data", "scale_invariance", "simple_type",
        "component_branch")),
    ("cli.main", "wallcross.cli", "main", None),
)


# Calls at whose entries a long point may be split for the end-to-end
# timing (``speed.SpeedProbe``); both recur every few milliseconds in long calls.
HOOK_TARGETS = (("hook", "wallcross.jacobian", "build_model", None),
                ("hook", "wallcross.chern", "segre_from_ch", None))


def _zero_frac(g):
    counted = [v for v in g["values"] if v >= 0]
    return sum(1 for v in counted if v == 0) / len(counted) if counted else 0.0


# per-layer metric -> (unit, groups it reads, value from the group summaries)
METRICS = {
    "graded.mul_calls": ("count", ("graded.mul",), lambda s: s["graded.mul"]["calls"]),
    "graded.mul_terms_out": ("count", ("graded.mul",),
                             lambda s: sum(v for v in s["graded.mul"]["values"] if v > 0)),
    "graded.mul_zero_frac": ("ratio", ("graded.mul",), lambda s: _zero_frac(s["graded.mul"])),
    "graded.mul_self_s": ("s", ("graded.mul",), lambda s: s["graded.mul"]["self_s"]),
    "graded.integrate_busy_s": ("s", ("graded.integrate",),
                                lambda s: s["graded.integrate"]["busy_s"]),
    "chern.segre_calls": ("count", ("chern.segre",), lambda s: s["chern.segre"]["calls"]),
    "chern.segre_n_max": ("count", ("chern.segre",),
                          lambda s: max(s["chern.segre"]["values"], default=0)),
    "chern.segre_busy_s": ("s", ("chern.segre",), lambda s: s["chern.segre"]["busy_s"]),
    "chern.segre_self_s": ("s", ("chern.segre",), lambda s: s["chern.segre"]["self_s"]),
    "chern.convert_busy_s": ("s", ("chern.convert",), lambda s: s["chern.convert"]["busy_s"]),
    "jacobian.build_model_calls": ("count", ("jacobian.build_model",),
                                   lambda s: s["jacobian.build_model"]["calls"]),
    "jacobian.build_model_busy_s": ("s", ("jacobian.build_model",),
                                    lambda s: s["jacobian.build_model"]["busy_s"]),
    "jacobian.volume_busy_s": ("s", ("jacobian.volume",),
                               lambda s: s["jacobian.volume"]["busy_s"]),
    "jacobian.classes_busy_s": ("s", ("jacobian.classes",),
                                lambda s: s["jacobian.classes"]["busy_s"]),
    "walls.build_busy_s": ("s", ("walls.build",), lambda s: s["walls.build"]["busy_s"]),
    "closed.delta_calls": ("count", ("closed.delta",), lambda s: s["closed.delta"]["calls"]),
    "closed.delta_busy_s": ("s", ("closed.delta",), lambda s: s["closed.delta"]["busy_s"]),
    "oracle.delta_calls": ("count", ("oracle.delta",), lambda s: s["oracle.delta"]["calls"]),
    "oracle.delta_busy_s": ("s", ("oracle.delta",), lambda s: s["oracle.delta"]["busy_s"]),
    "oracle.self_s": ("s", ("oracle.delta",), lambda s: s["oracle.delta"]["self_s"]),
    "oracle.ch_extension_busy_s": ("s", ("oracle.ch_extension",),
                                   lambda s: s["oracle.ch_extension"]["busy_s"]),
    "surfaces.enumerate_busy_s": ("s", ("surfaces.enumerate",),
                                  lambda s: s["surfaces.enumerate"]["busy_s"]),
    "surfaces.walls_out": ("count", ("surfaces.enumerate",),
                           lambda s: sum(s["surfaces.enumerate"]["values"])),
    "verify.check_busy_s": ("s", ("verify.check",), lambda s: s["verify.check"]["busy_s"]),
    "verify.self_s": ("s", ("verify.run", "verify.check"),
                      lambda s: s["verify.run"]["self_s"] + s["verify.check"]["self_s"]),
    "cli.main_calls": ("count", ("cli.main",), lambda s: s["cli.main"]["calls"]),
    "cli.self_s": ("s", ("cli.main",), lambda s: s["cli.main"]["self_s"]),
}


def _resolve(module, qualname):
    """(owner, attribute) for a dotted name in a module, or None."""
    *path, attr = qualname.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner, attr


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.groups = sorted({t[0] for t in targets})
        self._gid = {g: i for i, g in enumerate(self.groups)}
        self.group = array("H")
        self.parent = array("i")
        self.nested = array("b")
        self.value = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._depth = [0] * len(self.groups)
        self._last_error = None
        self.errors = Counter()
        self.missing = []
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, group, fn, measure):
        gid = self._gid[group]
        group_of, parent_of, nested_of = self.group, self.parent, self.nested
        value_of, start_of, end_of = self.value, self.start, self.end
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            idx = len(start_of)
            group_of.append(gid)
            parent_of.append(stack[-1])
            nested_of.append(depth[gid] > 0)
            value_of.append(0)
            end_of.append(0.0)
            depth[gid] += 1
            stack.append(idx)
            start_of.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:  # count it once, at the innermost span
                    self._last_error = exc
                    self.errors[group] += 1
                raise
            finally:
                end_of[idx] = perf_counter()
                stack.pop()
                depth[gid] -= 1
            if measure is not None:
                value_of[idx] = measure(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _bind_everywhere(self, fn, wrapped):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "wallcross" or modname.startswith("wallcross.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)
                elif type(value) is dict:
                    for key in [k for k, v in value.items() if v is fn]:
                        self._undo.append((value, key, fn))
                        value[key] = wrapped

    def install(self):
        """Wrap every target; a target that no longer exists is recorded in
        ``missing`` and the metrics that read its group are left out."""
        self.missing = []
        for group, modname, qualname, measure in self.targets:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}.{qualname}")
                continue
            found = _resolve(module, qualname)
            if found is None:
                self.missing.append(f"{modname}.{qualname}")
                continue
            owner, attr = found
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr)
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(group, raw.__func__, measure)))
                elif callable(raw):
                    self._set(owner, attr, self._wrap(group, raw, measure))
                else:
                    self.missing.append(f"{modname}.{qualname}")
                continue
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.missing.append(f"{modname}.{qualname}")
                continue
            self._bind_everywhere(fn, self._wrap(group, fn, measure))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def missing_groups(self):
        bad = set(self.missing)
        return {g for g, m, q, _ in self.targets if f"{m}.{q}" in bad}

    def summary(self):
        """Per group: calls, busy_s, self_s and the recorded values."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {g: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "values": []} for g in self.groups}
        for i in range(n):
            g = out[self.groups[self.group[i]]]
            g["calls"] += 1
            g["self_s"] += dur[i] - child[i]
            if not self.nested[i]:
                g["busy_s"] += dur[i]
            g["values"].append(self.value[i])
        return out

    def metrics(self):
        """Every per-layer metric whose groups were all wrapped: name -> (value, unit)."""
        summary = self.summary()
        missing = self.missing_groups()
        return {name: (fn(summary), unit) for name, (unit, groups, fn) in METRICS.items()
                if not missing.intersection(groups)}

    def write(self, path: Path, extra):
        """Write the span arrays (raw, native byte order) and a JSON index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".spans"), "wb") as fh:
            for arr in (self.group, self.parent, self.nested, self.value, self.start, self.end):
                arr.tofile(fh)
        summary = {g: {k: v for k, v in s.items() if k != "values"}
                   for g, s in self.summary().items()}
        index = {"spans": len(self.start), "groups": self.groups,
                 "layout": [["group", "H"], ["parent", "i"], ["nested", "b"], ["value", "q"],
                            ["start", "d"], ["end", "d"]],
                 "byteorder": sys.byteorder, "summary": summary,
                 "raised": dict(self.errors), "missing": self.missing, **extra}
        path.with_suffix(".json").write_text(json.dumps(index, indent=1, sort_keys=True))


class EntryHook(Tracer):
    """Calls ``callback()`` at each entry to a hook target, and records
    nothing."""

    def __init__(self, callback, targets=HOOK_TARGETS):
        super().__init__(targets)
        self.callback = callback

    def _wrap(self, group, fn, measure):
        callback = self.callback

        def hooked(*args, **kwargs):
            callback()
            return fn(*args, **kwargs)

        return functools.wraps(fn)(hooked)
