"""Span tracer for one flagdyn invocation, installed from outside the package.

`install()` wraps the public functions of every `flagdyn.*` module, the
`GroupElem` / `LieVec` methods that call into `rational`, and each check
registered in `flagdyn.checks`.  Because the modules import names directly
(`from .rational import mat_mul`), every namespace that binds a wrapped
function is rebound, not only the defining module.

A span is one call: its name, its parent span and its start and end times.
Spans live in flat arrays in memory and are written once, by `dump()`, as
one `.npz` file; each span also carries the pass id.  The file holds these
counters too:

- `fraction_new`: `Fraction.__new__` calls while installed;
- `conjugate_max_bits`: largest entry bit-height seen at `conjugate` inputs;
- `csv_bytes`: bytes written by `write_trajectory_csv`;
- per-span-name counts of calls that raised.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from fractions import Fraction

MODULES = ("rational", "lie_core", "flag_space", "curvature", "models",
           "classification", "dynamics", "checks", "cli")

# Methods that call into `rational`; each gets a span `lie_core.<Class>_<name>`.
METHODS = {
    "GroupElem": ("__init__", "__matmul__", "inverse", "transpose"),
    "LieVec": ("of", "zero", "diag", "elementary", "__add__", "__sub__",
               "__neg__", "scale", "__matmul__", "transpose"),
}


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.raised: dict[str, int] = {}
        self.fraction_new = 0
        self.conjugate_max_bits = 0
        self.csv_bytes = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """Return `fn` recording one span per call.  `before(args)` and
        `after(args, result)` are optional counter hooks."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                raised[name] = raised.get(name, 0) + 1
                raise
            ends[idx] = clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import flagdyn.cli  # noqa: F401  (loads every flagdyn module)

        mods = {m: sys.modules[f"flagdyn.{m}"] for m in MODULES}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                before = after = None
                if layer == "lie_core" and attr == "conjugate":
                    before = self._conjugate_bits
                if layer == "dynamics" and attr == "write_trajectory_csv":
                    after = self._csv_size
                wrapped[fn] = self.wrap(f"{layer}.{attr}", fn, before, after)
        # Rebind every flagdyn namespace that holds one of the originals.
        for name, mod in list(sys.modules.items()):
            if name == "flagdyn" or name.startswith("flagdyn."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrapped:
                        setattr(mod, attr, wrapped[val])

        lie_core = mods["lie_core"]
        for cls_name, methods in METHODS.items():
            cls = getattr(lie_core, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                span = f"lie_core.{cls_name}_{meth.strip('_')}"
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self.wrap(span, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(span, raw))

        checks = mods["checks"]
        checks._REGISTRY[:] = [
            (cid, suite, anchor, self.wrap(f"checks.check:{cid}", fn))
            for cid, suite, anchor, fn in checks._REGISTRY]

        original_new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            self.fraction_new += 1
            return original_new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted_new)

    def _conjugate_bits(self, args) -> None:
        g, v = args[0], args[1]
        bits = max(_bits(e) for m in (g.entries, v.entries) for row in m for e in row)
        if bits > self.conjugate_max_bits:
            self.conjugate_max_bits = bits

    def _csv_size(self, args, result) -> None:
        self.csv_bytes += os.path.getsize(args[0])

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        import numpy as np

        meta = {
            "pass_id": self.pass_id,
            "names": self.names,
            "raised": self.raised,
            "fraction_new": self.fraction_new,
            "conjugate_max_bits": self.conjugate_max_bits,
            "csv_bytes": self.csv_bytes,
        }
        with open(path, "wb") as fh:
            np.savez(fh,
                     meta=np.array(json.dumps(meta)),
                     name=np.frombuffer(self.span_name, dtype=np.int32),
                     pass_id=np.full(len(self.span_name), self.pass_id, dtype=np.int32),
                     parent=np.frombuffer(self.span_parent, dtype=np.int32),
                     start=np.frombuffer(self.span_start, dtype=np.float64),
                     end=np.frombuffer(self.span_end, dtype=np.float64))
