"""Job descriptions: JSON input schema, validation, and realization.

A job file pins everything a check run depends on: the prime, the bound
quiver, the module M as a list of summand constructions, the checks to run
with their parameters, and (optionally) a declared list of indecomposable
modules for the perpendicular-category sweeps.  `ingest` parses and
validates; `JobSpec.realize` builds the actual algebra, module, and
subcategory.  Validation errors carry the offending field path so fixture
authors can fix files without reading tracebacks.

`ingest` realizes a job to validate it and the first `realize` hands that
`RealizedJob` over, so a job is built once.  Its taker owns it.  Nothing in
a job points back at what holds it (a pair such as x and x.op links back
weakly), so reference counting frees the whole job, every memo included, as
soon as its last holder drops it.

Summand grammar (recursive)::

    {"projective": "v"} | {"injective": "v"} | {"simple": "v"}
    | "regular" | "coregular"                      # all P_v / all I_v
    | {"syzygy": <spec>} | {"cosyzygy": <spec>}
    | {"tau": <spec>} | {"tau_inverse": <spec>} | {"dual": <spec>}
    | {"explicit": {"dims": [..], "arrows": {"a": [[row-major ints]], ..}}}

Matrices are row-major integer arrays, reduced mod p on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from tiltbench import rep, subcat
from tiltbench.linalg import PrimeField
from tiltbench.quiver import Quiver, build_algebra
from tiltbench.rep import Representation


class SchemaError(Exception):
    """Invalid job file; `field` holds the dotted path of the bad entry."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path
        self.message = message


CHECK_NAMES = ("A0", "A1+A1op", "A2+A2op", "A3+A3op", "gen-cogen-ff",
               "d-rigid", "A4", "d-precluster", "d-cluster-tilting",
               "d-abelian")
_NEEDS_D = ("d-rigid", "A4", "d-precluster", "d-cluster-tilting", "d-abelian")

_DEFAULT_OPTIONS = {"seed": 42, "trials": 100, "max_path_len": 12,
                    "resolution_cap": 20}


@dataclass
class CheckRequest:
    check: str
    d: int | None = None
    trials: int | None = None

    def to_json(self) -> dict:
        out: dict = {"check": self.check}
        if self.d is not None:
            out["d"] = self.d
        if self.trials is not None:
            out["trials"] = self.trials
        return out


@dataclass
class JobSpec:
    name: str
    characteristic: int
    vertices: list[str]
    arrows: list[tuple[str, str, str]]
    relations: list
    module: list
    checks: list[CheckRequest]
    declared_indecomposables: list | None = None
    options: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    # the realization `ingest` built, until `realize` hands it over
    _realized: "RealizedJob | None" = field(default=None, init=False, repr=False,
                                            compare=False)

    def option(self, key: str, override=None):
        if override is not None:
            return override
        if key in self.options:
            return self.options[key]
        return _DEFAULT_OPTIONS[key]

    def realize(self) -> "RealizedJob":
        """The realized job: the one `ingest` built, on the first call after
        it, else a fresh one."""
        job, self._realized = self._realized, None
        if job is not None:
            return job
        F = PrimeField(self.characteristic)
        quiver = Quiver(self.vertices, self.arrows)
        rels = [[(int(c), list(names)) for c, names in rel] for rel in self.relations]
        try:
            algebra = build_algebra(quiver, rels, F,
                                    max_path_len=self.option("max_path_len"))
        except ValueError as e:
            raise SchemaError("relations", str(e)) from None
        parts = []
        for i, spec in enumerate(self.module):
            parts.extend(_build_summand(algebra, spec, f"module[{i}]"))
        module = rep.sum_module(algebra, parts)
        declared = None
        if self.declared_indecomposables is not None:
            declared = []
            for i, spec in enumerate(self.declared_indecomposables):
                declared.extend(_build_summand(algebra, spec,
                                               f"declared_indecomposables[{i}]"))
        x = subcat.SubcategoryX(algebra, module, summands=parts,
                                seed=self.option("seed"))
        return RealizedJob(algebra, x, declared)


@dataclass
class RealizedJob:
    """Owns the field, Λ, x and, through them, Λ^op, x.op and every End(M)
    and End(M)^op either side builds; its spec holds it, not the reverse."""
    algebra: object
    x: subcat.SubcategoryX
    declared: list[Representation] | None


def _lookup(data: dict, key: str, path: str, typ=None, required=True,
            default=None):
    if key not in data:
        if required:
            raise SchemaError(f"{path}.{key}" if path else key, "missing field")
        return default
    val = data[key]
    if typ is not None and not (_is_int(val) if typ is int else isinstance(val, typ)):
        raise SchemaError(f"{path}.{key}" if path else key,
                          f"expected {typ.__name__}, got {type(val).__name__}")
    return val


def _is_int(val) -> bool:
    """JSON integer; true and false are not integers here."""
    return isinstance(val, int) and not isinstance(val, bool)


def _validate_vertex(v, vertices: list[str], path: str) -> str:
    if not isinstance(v, str) or v not in vertices:
        raise SchemaError(path, f"unknown vertex {v!r} (have {vertices})")
    return v


def _build_summand(algebra, spec, path: str) -> list[Representation]:
    """Realize one summand spec; list-valued because regular/coregular expand."""
    quiver = algebra.quiver
    if spec == "regular":
        return [rep.projective(algebra, v) for v in range(quiver.num_vertices)]
    if spec == "coregular":
        return [rep.injective(algebra, v) for v in range(quiver.num_vertices)]
    if not isinstance(spec, dict) or len(spec) != 1:
        raise SchemaError(path, "summand must be 'regular', 'coregular', or a "
                                "one-key object")
    kind, arg = next(iter(spec.items()))
    if kind in ("projective", "injective", "simple"):
        _validate_vertex(arg, quiver.vertices, f"{path}.{kind}")
        v = quiver.vertex_index[arg]
        builder = {"projective": rep.projective, "injective": rep.injective,
                   "simple": rep.simple}[kind]
        return [builder(algebra, v)]
    if kind == "dual":
        # resolve the inner spec over the opposite algebra, then dualize back
        inner = _build_summand(algebra.opposite, arg, f"{path}.dual")
        return [rep.dualize(m) for m in inner]
    if kind in ("syzygy", "cosyzygy", "tau", "tau_inverse"):
        inner = _build_summand(algebra, arg, f"{path}.{kind}")
        op = {"syzygy": rep.syzygy, "cosyzygy": rep.cosyzygy,
              "tau": subcat.tau, "tau_inverse": subcat.tau_inverse}[kind]
        out = [r for r in (op(m) for m in inner) if r.total_dim > 0]
        if not out:
            raise SchemaError(f"{path}.{kind}", "construction produced the "
                                                "zero module")
        return out
    if kind == "explicit":
        if not isinstance(arg, dict):
            raise SchemaError(f"{path}.explicit", "expected an object")
        dims = _lookup(arg, "dims", f"{path}.explicit", list)
        if len(dims) != quiver.num_vertices or not all(
                _is_int(d) and d >= 0 for d in dims):
            raise SchemaError(f"{path}.explicit.dims",
                              f"need {quiver.num_vertices} non-negative ints")
        arrow_maps = _lookup(arg, "arrows", f"{path}.explicit", dict,
                             required=False, default={})
        for name in arrow_maps:
            if name not in quiver.arrow_index:
                raise SchemaError(f"{path}.explicit.arrows.{name}",
                                  "unknown arrow")
        maps = []
        for a in quiver.arrows:
            s = quiver.vertex_index[a.source]
            t = quiver.vertex_index[a.target]
            mat = arrow_maps.get(a.name, [[0] * dims[s] for _ in range(dims[t])])
            if (len(mat) != dims[t]
                    or any(not isinstance(row, list) or len(row) != dims[s]
                           or not all(_is_int(e) for e in row)
                           for row in mat)):
                raise SchemaError(f"{path}.explicit.arrows.{a.name}",
                                  f"need a {dims[t]}x{dims[s]} integer matrix")
            maps.append(mat)
        try:
            return [Representation(algebra, dims, maps, check=True)]
        except ValueError as e:
            raise SchemaError(f"{path}.explicit", str(e)) from None
    raise SchemaError(path, f"unknown summand kind {kind!r}")


def _parse_checks(data, path: str) -> list[CheckRequest]:
    if not isinstance(data, list):
        raise SchemaError(path, "expected a list")
    out = []
    for i, entry in enumerate(data):
        here = f"{path}[{i}]"
        if isinstance(entry, str):
            entry = {"check": entry}
        if not isinstance(entry, dict):
            raise SchemaError(here, "expected a check name or object")
        name = _lookup(entry, "check", here, str)
        if name not in CHECK_NAMES:
            raise SchemaError(f"{here}.check",
                              f"unknown check {name!r} (have {CHECK_NAMES})")
        d = _lookup(entry, "d", here, int, required=name in _NEEDS_D,
                    default=None)
        if d is not None and d < 1:
            raise SchemaError(f"{here}.d", "d must be a positive integer")
        trials = _lookup(entry, "trials", here, int, required=False)
        if trials is not None and trials < 0:
            raise SchemaError(f"{here}.trials",
                              "trials must be a non-negative integer")
        extra = set(entry) - {"check", "d", "trials"}
        if extra:
            raise SchemaError(here, f"unknown fields {sorted(extra)}")
        out.append(CheckRequest(name, d, trials))
    return out


def parse(data: dict, name: str = "<job>") -> JobSpec:
    if not isinstance(data, dict):
        raise SchemaError("", "job file must contain a JSON object")
    p = _lookup(data, "characteristic", "", int)
    try:
        PrimeField(p)
    except ValueError as e:
        raise SchemaError("characteristic", str(e)) from None

    qdata = _lookup(data, "quiver", "", dict)
    vertices = _lookup(qdata, "vertices", "quiver", list)
    if not vertices or not all(isinstance(v, str) for v in vertices):
        raise SchemaError("quiver.vertices", "need a non-empty list of strings")
    if len(set(vertices)) != len(vertices):
        raise SchemaError("quiver.vertices", "duplicate vertex names")
    raw_arrows = _lookup(qdata, "arrows", "quiver", list, required=False,
                         default=[])
    arrows = []
    seen = set()
    for i, a in enumerate(raw_arrows):
        here = f"quiver.arrows[{i}]"
        if not (isinstance(a, list) and len(a) == 3
                and all(isinstance(s, str) for s in a)):
            raise SchemaError(here, "expected [name, source, target] strings")
        if a[0] in seen:
            raise SchemaError(here, f"duplicate arrow name {a[0]!r}")
        seen.add(a[0])
        _validate_vertex(a[1], vertices, f"{here}[1]")
        _validate_vertex(a[2], vertices, f"{here}[2]")
        arrows.append((a[0], a[1], a[2]))

    raw_rels = _lookup(data, "relations", "", list, required=False, default=[])
    relations = []
    for i, rel in enumerate(raw_rels):
        here = f"relations[{i}]"
        if not isinstance(rel, list) or not rel:
            raise SchemaError(here, "expected a non-empty list of terms")
        terms = []
        for j, term in enumerate(rel):
            there = f"{here}[{j}]"
            if not (isinstance(term, list) and len(term) == 2
                    and _is_int(term[0]) and isinstance(term[1], list)
                    and all(isinstance(n, str) for n in term[1])):
                raise SchemaError(there, "expected [coefficient, [arrow names]]")
            for n in term[1]:
                if n not in seen:
                    raise SchemaError(there, f"unknown arrow {n!r}")
            terms.append((term[0], list(term[1])))
        relations.append(terms)

    module = _lookup(data, "module", "", list)
    if not module:
        raise SchemaError("module", "need at least one summand")
    checks = _parse_checks(_lookup(data, "checks", "", list), "checks")
    declared = _lookup(data, "declared_indecomposables", "", list,
                       required=False)

    options = _lookup(data, "options", "", dict, required=False, default={})
    for key, val in options.items():
        if key not in _DEFAULT_OPTIONS:
            raise SchemaError(f"options.{key}", "unknown option")
        if not _is_int(val) or val < 0:
            raise SchemaError(f"options.{key}", "expected a non-negative int")

    extra = set(data) - {"name", "characteristic", "quiver", "relations",
                         "module", "checks", "declared_indecomposables",
                         "options"}
    if extra:
        raise SchemaError("", f"unknown top-level fields {sorted(extra)}")

    return JobSpec(name=data.get("name", name), characteristic=p,
                   vertices=vertices, arrows=arrows, relations=relations,
                   module=module, checks=checks,
                   declared_indecomposables=declared, options=dict(options),
                   raw=data)


def ingest(path: str, options: dict | None = None) -> JobSpec:
    """Parse and validate a job file; options (the command line's
    overrides) replace the file's, and then the job is realized, so
    unresolvable references fail here, not mid-run; the first `realize`
    returns that realization."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"line {e.lineno}", f"invalid JSON: {e.msg}") from None
    spec = parse(data, name=str(path))
    spec.options.update(options or {})
    spec._realized = spec.realize()
    return spec
