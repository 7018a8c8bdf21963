"""Outside-in tracer: spans around calls into each tiltbench module.

`install()` replaces every function defined in a layer module, and every
public method of the classes in `_CLASSES`, with a wrapper that records a
span (name, start, end, parent, job id).  Names the program imported by
name elsewhere (``from tiltbench.jobspec import ingest``) are patched too,
so every call path goes through a wrapper.  Nothing under src/ changes.

Spans stay in memory, in flat arrays, and are written out by `dump`.
Aggregates are kept online as each span closes: calls and self time per
span name (self time is the span's duration minus its children's), plus
counters read from call arguments (rref cells, hom-system unknowns) and
hit flags for cached calls that reached no `rep.hom_space` or
`rep.decompose` child.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "quiver", "rep", "fitting", "subcat", "algebra_ops",
          "functors", "axioms", "jobspec", "report", "cli")
# classes whose public methods are wrapped (module functions always are)
_CLASSES = {"linalg": ("PrimeField",), "subcat": ("SubcategoryX",),
            "algebra_ops": ("AbstractAlgebra",),
            "functors": ("CoherentFunctor",), "jobspec": ("JobSpec",)}
# cached calls whose hit ratio is measured, and the spans that make a miss
_CACHED = ("subcat.hom", "subcat.embed")
_MISS_CHILDREN = ("rep.hom_space", "rep.decompose")
_RREF_BUCKETS = ((64, "le64"), (1024, "le1k"), (65536, "le64k"))


def _rref_bucket(m) -> str:
    shape = getattr(m, "shape", None)
    cells = int(shape[0]) * int(shape[1]) if shape is not None and len(shape) == 2 else 0
    for limit, label in _RREF_BUCKETS:
        if cells <= limit:
            return label
    return "gt64k"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per closed span, in closing order
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_id = array("i")
        self.job = -1
        self._next_id = 0
        self.span_ids = array("i")
        # open spans: [span id, start, children's time, reached a miss child]
        self._stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}

    def _intern(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _max(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def _args_counters(self, name: str, args) -> str | None:
        """Counters read from call arguments; returns a span-name suffix for
        spans whose self time is also kept per bucket."""
        if name == "linalg.rref":
            bucket = _rref_bucket(args[1])
            self._count(f"linalg.rref.calls.{bucket}")
            return bucket
        if name == "rep.hom_space":
            n = int(np.sum(args[0].dims * args[1].dims))
            self._count("rep.hom_space.unknowns", n)
            self._max("rep.hom_space.max_unknowns", n)
        elif name == "algebra_ops.hom_module":
            n = int(args[0].dim) * int(args[1].dim)
            self._count("algebra_ops.hom_module.unknowns", n)
            self._max("algebra_ops.hom_module.max_unknowns", n)
        return None

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        stack = self._stack
        watch_args = name in ("linalg.rref", "rep.hom_space",
                              "algebra_ops.hom_module")
        cached = name in _CACHED
        miss_child = name in _MISS_CHILDREN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bucket = self._args_counters(name, args) if watch_args else None
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0, 0.0, False]
            stack.append(frame)
            frame[1] = t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[2]
                reached = frame[3] or miss_child
                if stack:
                    up = stack[-1]
                    up[2] += dur
                    up[3] = up[3] or reached
                    parent = up[0]
                else:
                    parent = -1
                self.span_ids.append(sid)
                self.name_id.append(nid)
                self.start.append(t0)
                self.end.append(t1)
                self.parent.append(parent)
                self.job_id.append(self.job)
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + own
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                if bucket is not None:
                    self._count(f"linalg.rref.self_s.{bucket}", own)
                if cached and not frame[3]:
                    self._count(f"{name}.hits")

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Patch every layer module in place."""
        mods = {layer: importlib.import_module(f"tiltbench.{layer}")
                for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(val)):
                    w = self.wrap(f"{layer}.{attr}", val)
                    replaced[id(val)] = w
                    setattr(mod, attr, w)
            for cls_name in _CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{attr}"
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                    elif isinstance(raw, staticmethod):
                        setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
                    elif inspect.isfunction(raw):
                        setattr(cls, attr, self.wrap(name, raw))
        # names imported by name into other modules
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("tiltbench"):
                continue
            for attr, val in list(vars(mod).items()):
                w = replaced.get(id(val))
                if w is not None and val is not w:
                    setattr(mod, attr, w)

    # -- results ----------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        out = {layer: [0, 0.0] for layer in LAYERS}
        for name, n in self.calls.items():
            layer = name.split(".", 1)[0]
            out[layer][0] += n
            out[layer][1] += self.self_s[name]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "counters": dict(self.counters), "layers": self.layer_totals()}

    def dump(self, path: str) -> None:
        """All spans as one .npz: parallel arrays id, name (an index into
        `names`), start, end, parent (-1 at the top) and job."""
        np.savez(path, names=np.array(self.names), id=np.asarray(self.span_ids),
                 name=np.asarray(self.name_id), start=np.asarray(self.start),
                 end=np.asarray(self.end), parent=np.asarray(self.parent),
                 job=np.asarray(self.job_id))
