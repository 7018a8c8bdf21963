"""Axiom checkers and classifiers for additive subcategories add(M).

Universally quantified axioms ("every epimorphism is a weak cokernel") are
discharged on two independent routes wherever a finite certificate exists:

* sampled intrinsic tests over a spanning family -- every hom-basis element
  between summands, plus identities and zero -- padded with seeded random
  block combinations up to the requested trial count;
* finite certificates through the endomorphism algebra (dominant, global,
  selfinjective dimensions), Ext vanishing, or membership of translates.

Each op axiom (A1op through A4(d)op, the cogenerating side, coresolutions)
is its plain axiom for the opposite category: it runs on `x.op`, the
subcategory add(D M) over the opposite algebra, at the dual of each morphism
or module, and its witness names the op side and serializes the morphism
in x's own coordinates.

Verdicts say which route decided and whether the status is certified or
merely sampled.  Every fail carries a self-contained witness that
replay_witness can re-run through the definitional test.  When two routes
are theorem-equivalent under hypotheses that hold for the input and still
disagree, RouteDisagreement is raised; it signals a bug in this package,
never a property of the input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from tiltbench import algebra_ops, rep, subcat
from tiltbench.jobspec import SchemaError
from tiltbench.linalg import Rng, memo, read_only
from tiltbench.rep import ModuleMorphism, Representation
from tiltbench.subcat import (SubcategoryX, XMap,
                              DCokernelNotRightExact, DKernelNotLeftExact,
                              concat_xmaps_cols)

DEFAULT_TRIALS = 100
DEFAULT_SEED = 42
_STATUSES = ("certified-pass", "sampled-pass", "fail")


class RouteDisagreement(Exception):
    """Two theorem-equivalent routes disagreed; an implementation bug."""

    def __init__(self, message: str, details: dict):
        super().__init__(message)
        self.details = details


@dataclass
class Verdict:
    name: str
    status: str
    route: str
    witness: dict | None = None
    seed: int | None = None
    trials: int | None = None
    details: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"bad verdict status {self.status!r}")
        if self.status == "fail" and self.witness is None:
            raise ValueError("fail verdicts must carry a witness")

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_json(self) -> dict:
        return jsonable({"name": self.name, "status": self.status,
                         "route": self.route, "witness": self.witness,
                         "seed": self.seed, "trials": self.trials,
                         "details": self.details})


def jsonable(obj):
    """Recursively coerce numpy scalars/arrays and tuples to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


# -- witness serialization -----------------------------------------------------


def serialize_xmap(m: XMap) -> dict:
    return {"src_parts": list(m.src.parts), "dst_parts": list(m.dst.parts),
            "maps": [t.reshape(-1).tolist() for t in m.mor.maps]}


def deserialize_xmap(x: SubcategoryX, data: dict) -> XMap:
    src = x.obj(data["src_parts"])
    dst = x.obj(data["dst_parts"])
    maps = [np.asarray(flat, dtype=np.int64).reshape(int(dst.rep.dims[v]),
                                                     int(src.rep.dims[v]))
            for v, flat in enumerate(data["maps"])]
    return XMap(src, dst, ModuleMorphism(src.rep, dst.rep, maps))


# -- morphism sampling ----------------------------------------------------------


def spanning_family(x: SubcategoryX) -> list[XMap]:
    """Identities, a zero endomorphism, and every hom-basis element between
    single summands; enough to catch every one-block counterexample
    deterministically."""
    fam: list[XMap] = []
    n = len(x.summands)
    for i in range(n):
        fam.append(x.identity(x.obj((i,))))
    if n:
        z = x.obj((0,))
        fam.append(XMap(z, z, rep.zero_morphism(z.rep, z.rep)))
    for i in range(n):
        si = x.obj((i,))
        for j in range(n):
            sj = x.obj((j,))
            for h in x.hom(i, j):  # shares h's read-only components
                fam.append(XMap(si, sj, ModuleMorphism._of_reduced(si.rep, sj.rep, h.maps)))
    return fam


def sample_morphisms(x: SubcategoryX, trials: int = DEFAULT_TRIALS,
                     seed: int = DEFAULT_SEED) -> list[XMap]:
    """The spanning family first, then seeded random combinations between
    random one- or two-part objects, up to `trials` morphisms total (never
    truncating the family).  Computed once per (x, trials, seed): every
    call gets a new list of the same maps, their components read-only."""
    return list(memo(x._memo, ("sample_morphisms", trials, seed),
                     _sample_morphisms, x, trials, seed))


def _sample_morphisms(x: SubcategoryX, trials: int, seed: int) -> tuple[XMap, ...]:
    out = spanning_family(x)
    rng = Rng(seed)
    n = len(x.summands)
    while n and len(out) < trials:
        sp = tuple(int(v) for v in rng.integers(0, n, size=rng.integers(1, 3)))
        dp = tuple(int(v) for v in rng.integers(0, n, size=rng.integers(1, 3)))
        src, dst = x.obj(sp), x.obj(dp)
        coords = rng.integers(0, x.field.p, size=x.obj_dim(src, dst))
        out.append(XMap(src, dst, x.obj_from_coords(src, dst, coords)))
    for m in out:
        read_only(m.mor.maps)
    return tuple(out)


# -- plain-module approximation tests -------------------------------------------


def is_right_approximation(x: SubcategoryX, ev: ModuleMorphism
                           ) -> tuple[bool, int | None]:
    """Does every morphism X_z -> target factor through ev?"""
    for z in range(len(x.summands)):
        want = rep.hom_space(x.summands[z], ev.target)
        if not want:
            continue
        thru = [ev.compose(u).flatten() for u in rep.hom_space(x.summands[z], ev.source)]
        rhs = np.stack([w.flatten() for w in want], axis=1) % x.field.p
        if not thru:
            if rhs.any():
                return False, z
            continue
        mat = np.stack(thru, axis=1) % x.field.p
        if x.field.solve_many(mat, rhs) is None:
            return False, z
    return True, None


# -- generator-cogenerator membership ---------------------------------------------


def _gen_cogen_certificate(x: SubcategoryX) -> tuple[bool, dict | None]:
    """Lambda in add(M) and D(Lambda) in add(M), vertex by vertex."""
    for v in range(x.algebra.quiver.num_vertices):
        if not x.contains(rep.projective(x.algebra, v)):
            return False, {"kind": "missing-projective", "vertex": v}
    for v in range(x.algebra.quiver.num_vertices):
        if not x.contains(rep.injective(x.algebra, v)):
            return False, {"kind": "missing-injective", "vertex": v}
    return True, None


# -- A0 ---------------------------------------------------------------------------


def check_A0(x: SubcategoryX, trials: int = 20, seed: int = DEFAULT_SEED) -> Verdict:
    """Idempotent completeness.

    Certified by construction: add(M) is closed under direct summands.  As a
    self-test, sampled idempotents (coordinate projections conjugated by
    sampled automorphisms) are split and both halves re-embedded.
    """
    rng = Rng(seed)
    n = len(x.summands)
    tested = 0
    for _ in range(trials):
        parts = tuple(int(v) for v in rng.integers(0, n, size=rng.integers(1, 4)))
        xo = x.obj(parts)
        g = x.obj_from_coords(xo, xo, rng.integers(0, x.field.p, size=x.obj_dim(xo, xo)))
        if not g.is_isomorphism():
            continue
        e = rep.zero_morphism(xo.rep, xo.rep)
        for pos in range(len(parts)):
            if rng.integers(0, 2):
                e = e.add(xo.incls[pos].compose(xo.projs[pos]))
        e = g.compose(e).compose(rep.invert_morphism(g))
        if not e.compose(e).sub(e).is_zero:
            raise AssertionError("conjugated projection is not idempotent")
        im, _, _ = rep.image(e)
        ker, _ = rep.kernel(e)
        if x.embed(im) is None or x.embed(ker) is None:
            return Verdict("A0", "fail", route="idempotent-splitting",
                           witness={"kind": "summand-escapes", "parts": list(parts),
                                    "idempotent": [t.reshape(-1).tolist() for t in e.maps]},
                           seed=seed, trials=trials)
        if im.total_dim + ker.total_dim != xo.rep.total_dim:
            raise AssertionError("idempotent image and kernel do not fill the object")
        tested += 1
    return Verdict("A0", "certified-pass", route="closure-under-summands",
                   seed=seed, trials=trials,
                   details={"idempotents_split": tested})


# -- A1 / A1^op --------------------------------------------------------------------


def check_A1_A1op(x: SubcategoryX, trials: int = DEFAULT_TRIALS,
                  seed: int = DEFAULT_SEED) -> Verdict:
    """Existence of weak kernels and weak cokernels.

    Constructive: the weak (co)kernel built from an approximation of the
    genuine (co)kernel always satisfies the definition when add(M) is
    functorially finite, which it is; the sampled runs re-verify the
    definition as a self-test.
    """
    sides = {}
    for m in sample_morphisms(x, trials, seed):
        w = x.weak_kernel(m)
        ok, info = x.is_weak_kernel(w, m)
        if not ok:
            return Verdict("A1+A1op", "fail", route="constructive-approximation",
                           witness={"kind": "weak-kernel-defect", "side": "A1",
                                    "morphism": serialize_xmap(m), "info": info},
                           seed=seed, trials=trials)
        c = x.weak_cokernel(m)
        ok, info = x.is_weak_cokernel(c, m)
        if not ok:
            return Verdict("A1+A1op", "fail", route="constructive-approximation",
                           witness={"kind": "weak-cokernel-defect", "side": "A1op",
                                    "morphism": serialize_xmap(m), "info": info},
                           seed=seed, trials=trials)
        sides["A1"] = sides["A1op"] = "pass"
    return Verdict("A1+A1op", "certified-pass", route="constructive-approximation",
                   seed=seed, trials=trials, details=sides)


# -- A2 / A2^op --------------------------------------------------------------------


def _on_side(x: SubcategoryX, f: XMap, side: str) -> tuple[SubcategoryX, XMap]:
    """Where the plain axiom is tested for `side`: x at f, or, for an op
    side, x.op at the dual of f."""
    return (x.op, x.dual_xmap(f)) if side.endswith("op") else (x, f)


def _a2_witness(x: SubcategoryX, f: XMap, side: str) -> dict | None:
    """A2 at f: an epimorphism that is not a weak cokernel of its weak
    kernel (by the reduction lemma: equivalent to not being a weak cokernel
    at all).  Side "A2op" runs it over x.op at the dual of f: a monomorphism
    that is not a weak kernel of its weak cokernel."""
    y, fy = _on_side(x, f, side)
    if not y.is_epi(fy)[0]:
        return None
    ok, info = y.is_weak_cokernel(fy, y.weak_kernel(fy))
    if ok:
        return None
    kind = "epi-not-weak-cokernel" if side == "A2" else "mono-not-weak-kernel"
    return {"kind": kind, "side": side, "morphism": serialize_xmap(f), "info": info}


def _a2_counterexample(x: SubcategoryX, morphs: list[XMap]) -> dict | None:
    """First sampled morphism failing A2, else the first failing A2op."""
    for side in ("A2", "A2op"):
        for f in morphs:
            wit = _a2_witness(x, f, side)
            if wit is not None:
                return wit
    return None


def check_A2_A2op(x: SubcategoryX, trials: int = DEFAULT_TRIALS,
                  seed: int = DEFAULT_SEED) -> Verdict:
    """Every epimorphism is a weak cokernel; every monomorphism a weak kernel.

    Sampled route: reduce "is a weak cokernel" to "is a weak cokernel of its
    own weak kernel".  Cross route: when Lambda and D(Lambda) both lie in
    add(M), the embedding theorem certifies both sides outright.
    """
    morphs = sample_morphisms(x, trials, seed)
    cert, _ = _gen_cogen_certificate(x)
    wit = _a2_counterexample(x, morphs)
    if wit is not None:
        return Verdict("A2+A2op", "fail", route="sampled-reduction",
                       witness=wit, seed=seed, trials=trials,
                       details={"gen_cogen_certificate": cert})
    if cert:
        return Verdict("A2+A2op", "certified-pass", route="gen-cogen-certificate",
                       seed=seed, trials=trials,
                       details={"sampled": "pass", "gen_cogen_certificate": True})
    return Verdict("A2+A2op", "sampled-pass", route="sampled-reduction",
                   seed=seed, trials=trials,
                   details={"gen_cogen_certificate": False})


# -- A3 / A3^op --------------------------------------------------------------------


def _a3_witness(x: SubcategoryX, f: XMap, side: str) -> dict | None:
    """A3 at f, the constructed-choices variant: g = wcok(f), h = wk(g),
    solve l with h.l = f, k = wk(h); [l k] must be an epimorphism.  Side
    "A3op" runs it over x.op at the dual of f, where [l k] dualizes to the
    monomorphism [l; k] of the dual construction."""
    y, fy = _on_side(x, f, side)
    g = y.weak_cokernel(fy)
    h = y.weak_kernel(g)
    post_h = y.obj_post_matrix(h, fy.src)
    fc = y.obj_coords(fy.src, h.dst, fy.mor)
    if post_h.size:
        sol = y.field.solve_many(post_h, fc.reshape(-1, 1))
    else:  # no unknowns or no equations: a solution exists when fc is 0
        sol = None if fc.any() else np.zeros((post_h.shape[1], 1), dtype=np.int64)
    if sol is None:
        raise AssertionError("factorization through the weak kernel must exist")
    l = XMap(fy.src, h.src, y.obj_from_coords(fy.src, h.src, sol[:, 0]))
    k = y.weak_kernel(h)
    lk = concat_xmaps_cols(y, [l, k], h.src)
    ok, z = y.is_epi(lk)
    if ok:
        return None
    kind = "a3-not-epi" if side == "A3" else "a3op-not-mono"
    return {"kind": kind, "side": side, "morphism": serialize_xmap(f), "summand": z}


def check_A3_A3op(x: SubcategoryX, trials: int = DEFAULT_TRIALS,
                  seed: int = DEFAULT_SEED) -> Verdict:
    """The pushout-type axiom and its dual, in the constructed-choices form
    (equivalent to the any-choices form under A1/A1op/A2/A2op)."""
    morphs = sample_morphisms(x, trials, seed)
    for f in morphs:
        wit = _a3_witness(x, f, "A3") or _a3_witness(x, f, "A3op")
        if wit is not None:
            return Verdict("A3+A3op", "fail", route="constructed-choices",
                           witness=wit, seed=seed, trials=trials)
    return Verdict("A3+A3op", "sampled-pass", route="constructed-choices",
                   seed=seed, trials=trials)


# -- (d-Rigid) ---------------------------------------------------------------------


def _ext_vanishing_witness(x: SubcategoryX, d: int) -> dict | None:
    """The first (i, j, k) with Ext^k(M_i, M_j) != 0, 0 < k < d.  Ext^k(M_i, -)
    is additive, so one test against the sum of the summands clears each i
    whose row vanishes; only the other rows are searched pair by pair."""
    total = x.obj(range(len(x.summands))).rep
    for i in range(len(x.summands)):
        if not any(subcat.ext_dim(x.summands[i], total, k) for k in range(1, d)):
            continue
        for j in range(len(x.summands)):
            for k in range(1, d):
                dim = subcat.ext_dim(x.summands[i], x.summands[j], k)
                if dim:
                    return {"kind": "ext-nonvanishing", "source_summand": i,
                            "target_summand": j, "degree": k, "dim": dim}
    return None


def _rigid_chain_witness(x: SubcategoryX, d: int, f1: XMap) -> dict | None:
    """Chain f_{i+1} = weak kernel of f_i from an epimorphism f1; every f_i
    must come out a weak cokernel of f_{i+1} (the construction used in the
    embedding proof, so failure under gen-cogen contradicts Ext vanishing)."""
    chain = [f1] + x.weak_kernel_chain(f1, d)
    for i in range(d):
        ok, info = x.is_weak_kernel(chain[i + 1], chain[i])
        if not ok:
            raise AssertionError("constructed weak kernel failed its definition")
        ok, info = x.is_weak_cokernel(chain[i], chain[i + 1])
        if not ok:
            return {"kind": "chain-breaks", "position": i + 1,
                    "epi": serialize_xmap(f1), "info": info}
    return None


def check_d_rigid(x: SubcategoryX, d: int, trials: int = DEFAULT_TRIALS,
                  seed: int = DEFAULT_SEED) -> Verdict:
    """For every epimorphism, a length-(d+1) ladder of mutual weak kernels /
    weak cokernels.

    Certified route: Ext^i(M, M) = 0 for 0 < i < d.  Sampled route: build the
    ladder for sampled epimorphisms.  The two are equivalent for generating
    cogenerating subcategories, where any mismatch raises; without that
    hypothesis the ladder is the axiom and Ext vanishing is only advisory,
    so the sampled result decides.
    """
    if d < 1:
        raise ValueError("d must be positive")
    ext_wit = _ext_vanishing_witness(x, d)
    chain_wit = None
    epis = 0
    for f in sample_morphisms(x, trials, seed):
        if not x.is_epi(f)[0]:
            continue
        epis += 1
        chain_wit = _rigid_chain_witness(x, d, f)
        if chain_wit is not None:
            break
    gen_cogen, _ = _gen_cogen_certificate(x)
    details = {"epimorphisms_tested": epis, "gen_cogen_certificate": gen_cogen,
               "ext_route": "fail" if ext_wit else "pass",
               "chain_route": "fail" if chain_wit
                              else "no-counterexample-in-sample"}
    if gen_cogen:
        # Ext vanishing is a certificate; the ladder route is sampled and can
        # only falsify it.  A concrete ladder break against certified Ext
        # vanishing violates the equivalence theorem and so is a tool bug; a
        # sample that merely fails to find a break on a certified-fail input
        # is a sampling gap.
        if ext_wit is None and chain_wit is not None:
            raise RouteDisagreement(
                "Ext vanishing and weak-kernel ladders disagree on a "
                "generating-cogenerating subcategory",
                {"ext_witness": ext_wit, "chain_witness": chain_wit, "d": d})
        if ext_wit is not None:
            return Verdict(f"{d}-Rigid", "fail", route="ext-vanishing",
                           witness=ext_wit, seed=seed, trials=trials, details=details)
        return Verdict(f"{d}-Rigid", "certified-pass", route="ext-vanishing",
                       seed=seed, trials=trials, details=details)
    if chain_wit is not None:
        return Verdict(f"{d}-Rigid", "fail", route="weak-kernel-ladders",
                       witness=chain_wit, seed=seed, trials=trials, details=details)
    return Verdict(f"{d}-Rigid", "sampled-pass", route="weak-kernel-ladders",
                   seed=seed, trials=trials, details=details)


# -- (A4.d) / (A4.d)^op -------------------------------------------------------------


def _a4_witness(x: SubcategoryX, d: int, f0: XMap, side: str) -> dict | None:
    chain = x.weak_kernel_chain(f0, d + 1)
    last = chain[-1]
    ok, info = x.is_weak_cokernel(last, x.weak_kernel(last))
    if ok:
        return None
    return {"kind": "a4-chain-end", "side": side,
            "seed_morphism": serialize_xmap(f0), "info": info}


def check_A4d(x: SubcategoryX, d: int, trials: int = DEFAULT_TRIALS,
              seed: int = DEFAULT_SEED) -> Verdict:
    """After d+1 iterated weak kernels the deepest map must be a weak
    cokernel (tested against its own weak kernel, which is equivalent), and
    dually over the opposite side."""
    if d < 1:
        raise ValueError("d must be positive")
    for f0 in sample_morphisms(x, trials, seed):
        wit = _a4_witness(x, d, f0, f"A4.{d}")
        if wit is not None:
            return Verdict(f"A4.{d}+op", "fail", route="weak-kernel-chains",
                           witness=wit, seed=seed, trials=trials)
    o = x.op
    for f0 in sample_morphisms(o, trials, seed):
        wit = _a4_witness(o, d, f0, f"A4.{d}op")
        if wit is not None:
            return Verdict(f"A4.{d}+op", "fail", route="weak-kernel-chains",
                           witness=wit, seed=seed, trials=trials)
    return Verdict(f"A4.{d}+op", "sampled-pass", route="weak-kernel-chains",
                   seed=seed, trials=trials)


# -- class: generating cogenerating functorially finite ------------------------------


def classify_gen_cogen_ff(x: SubcategoryX, trials: int = DEFAULT_TRIALS,
                          seed: int = DEFAULT_SEED, cap: int = 20) -> Verdict:
    """Generating-cogenerating (functorial finiteness of add(M) is automatic).

    Certified by membership of all indecomposable projectives and injectives.
    The dominant dimension of End(M) and the sampled axioms A1 through A3op
    are recorded alongside.  Under a passing certificate both are theorems,
    so a contradiction is a `RouteDisagreement`:
    - the paper's characterization: a generating-cogenerating, functorially
      finite add(M) satisfies A1, A2 and A3 and their duals, so no sampled
      check among them can fail;
    - Morita-Tachikawa: End(M) of a generator-cogenerator M has dominant
      dimension at least 2, so an exact domdim below 2 contradicts it.  A
      lower bound below 2 (the cap hid the rest) is inconclusive.
    """
    ok, wit = _gen_cogen_certificate(x)
    gamma = x.endomorphism_algebra()
    domdim = algebra_ops.dominant_dimension(gamma, cap=cap)
    axioms_pass = (check_A1_A1op(x, trials, seed).passed
                   and check_A2_A2op(x, trials, seed).passed
                   and check_A3_A3op(x, trials, seed).passed)
    details = {"domdim": domdim.to_json(), "domdim_ge_2": domdim.ge(2),
               "sampled_axioms_pass": axioms_pass}
    if ok:
        details["morita_tachikawa_consistent"] = domdim.ge(2)
        details["axioms_consistent"] = axioms_pass
        if not axioms_pass:
            raise RouteDisagreement(
                "membership certifies gen-cogen but a sampled axiom among "
                "A1-A3op fails", details)
        if domdim.kind == "exact" and domdim.value < 2:
            raise RouteDisagreement(
                "membership certifies gen-cogen but End(M) has dominant "
                "dimension below 2", details)
    if not ok:
        return Verdict("gen-cogen-ff", "fail", route="projective-injective-membership",
                       witness=wit, seed=seed, trials=trials, details=details)
    return Verdict("gen-cogen-ff", "certified-pass",
                   route="projective-injective-membership",
                   seed=seed, trials=trials, details=details)


# -- test-module generation -----------------------------------------------------------


def generate_test_modules(x: SubcategoryX, trials: int = DEFAULT_TRIALS,
                          seed: int = DEFAULT_SEED,
                          declared: list[Representation] | None = None
                          ) -> list[tuple[Representation, dict]]:
    """Modules to quantify over, each with a descriptor that realize_module
    can rebuild (witness replay).  With a declared list (representation
    finite input) that list is used verbatim and the routes become decisive."""
    out: list[tuple[Representation, dict]] = []
    if declared is not None:
        for idx, a in enumerate(declared):
            out.append((a, {"kind": "declared", "index": idx,
                            "dims": a.dims.tolist()}))
        return out
    seen: list[Representation] = []

    def push(a: Representation, desc: dict) -> None:
        if a.total_dim == 0:
            return
        if any(rep.is_isomorphic(a, b) for b in seen):
            return
        seen.append(a)
        out.append((a, desc))

    nv = x.algebra.quiver.num_vertices
    for v in range(nv):
        push(rep.simple(x.algebra, v), {"kind": "simple", "vertex": v})
        push(rep.projective(x.algebra, v), {"kind": "projective", "vertex": v})
        push(rep.injective(x.algebra, v), {"kind": "injective", "vertex": v})
    for i, s in enumerate(x.summands):
        push(s, {"kind": "summand", "index": i})
        push(subcat.tau(s), {"kind": "tau-of-summand", "index": i})
        push(subcat.tau_inverse(s), {"kind": "tau-inverse-of-summand", "index": i})
        push(rep.syzygy(s), {"kind": "syzygy-of-summand", "index": i})
        push(rep.cosyzygy(s), {"kind": "cosyzygy-of-summand", "index": i})
    budget = max(0, trials - len(out))
    for m in sample_morphisms(x, budget, seed)[:budget]:
        push(rep.cokernel(m.mor)[0], {"kind": "cokernel", "morphism": serialize_xmap(m)})
        push(rep.kernel(m.mor)[0], {"kind": "kernel", "morphism": serialize_xmap(m)})
    return out


def realize_module(x: SubcategoryX, desc: dict,
                   declared: list[Representation] | None = None) -> Representation:
    """Rebuild a test module from its descriptor."""
    kind = desc["kind"]
    if kind == "declared":
        if declared is None:
            raise ValueError("descriptor refers to a declared module list")
        return declared[desc["index"]]
    if kind == "simple":
        return rep.simple(x.algebra, desc["vertex"])
    if kind == "projective":
        return rep.projective(x.algebra, desc["vertex"])
    if kind == "injective":
        return rep.injective(x.algebra, desc["vertex"])
    if kind == "summand":
        return x.summands[desc["index"]]
    if kind == "tau-of-summand":
        return subcat.tau(x.summands[desc["index"]])
    if kind == "tau-inverse-of-summand":
        return subcat.tau_inverse(x.summands[desc["index"]])
    if kind == "syzygy-of-summand":
        return rep.syzygy(x.summands[desc["index"]])
    if kind == "cosyzygy-of-summand":
        return rep.cosyzygy(x.summands[desc["index"]])
    if kind == "cokernel":
        return rep.cokernel(deserialize_xmap(x, desc["morphism"]).mor)[0]
    if kind == "kernel":
        return rep.kernel(deserialize_xmap(x, desc["morphism"]).mor)[0]
    raise ValueError(f"unknown module descriptor kind {kind!r}")


# -- class: d-precluster tilting -------------------------------------------------------


def _tau_membership_witness(x: SubcategoryX, d: int) -> dict | None:
    """Higher translates of every summand stay in add(M).  Both translates
    land without injective (resp. projective) summands, so membership modulo
    injectives/projectives reduces to plain membership."""
    for i, s in enumerate(x.summands):
        t = subcat.tau_d(s, d)
        if not x.contains(t):
            return {"kind": "tau-escapes", "summand": i, "direction": "tau_d",
                    "dims": t.dims.tolist()}
        t = subcat.tau_d_inverse(s, d)
        if not x.contains(t):
            return {"kind": "tau-escapes", "summand": i, "direction": "tau_d_inverse",
                    "dims": t.dims.tolist()}
    return None


def _approx_sequence_witness(x: SubcategoryX, d: int, a: Representation,
                             desc: dict, side: str) -> dict | None:
    """Build 0 -> A' -> X_d -> ... -> X_1 -> A -> 0 by d successive minimal
    right approximations of kernels; the final kernel inclusion must then be
    a left approximation."""
    cur = a
    incl: ModuleMorphism | None = None
    for _ in range(d):
        _, ev = x.right_approximation(cur)
        if not ev.is_surjective():
            return {"kind": "not-generating", "side": side, "module": desc,
                    "stalled_dims": cur.dims.tolist()}
        ker, kincl = rep.kernel(ev)
        incl = kincl
        cur = ker
    assert incl is not None
    # a left approximation is a right approximation over x.op, dualized
    ok, z = is_right_approximation(x.op, rep.dualize_morphism(incl))
    if ok:
        return None
    return {"kind": "approx-sequence-break", "side": side, "module": desc,
            "summand": z}


def classify_d_precluster(x: SubcategoryX, d: int, trials: int = DEFAULT_TRIALS,
                          seed: int = DEFAULT_SEED, cap: int = 20) -> Verdict:
    """Three routes under the gen-cogen + d-rigid preconditions: membership
    of both higher translates (finite), endomorphism-algebra dimensions
    (dominant >= d+1 and selfinjective <= d+1), and sampled approximation
    sequences; the reformulation theorems make all three equivalent here, so
    any mismatch raises."""
    if d < 1:
        raise ValueError("d must be positive")
    pre_gc, pre_wit = _gen_cogen_certificate(x)
    if not pre_gc:
        return Verdict(f"{d}-precluster-tilting", "fail", route="precondition",
                       witness={"kind": "precondition", "which": "gen-cogen-ff",
                                "inner": pre_wit},
                       seed=seed, trials=trials)
    rigid = check_d_rigid(x, d, trials, seed)
    if not rigid.passed:
        return Verdict(f"{d}-precluster-tilting", "fail", route="precondition",
                       witness={"kind": "precondition", "which": f"{d}-rigid",
                                "inner": rigid.witness},
                       seed=seed, trials=trials)

    tau_wit = _tau_membership_witness(x, d)

    cap = max(cap, d + 3)
    gamma = x.endomorphism_algebra()
    domdim = algebra_ops.dominant_dimension(gamma, cap=cap)
    inj_left, inj_right = algebra_ops.selfinjective_dimensions(gamma, cap=cap)
    dims_ok = domdim.ge(d + 1) and inj_left.le(d + 1) and inj_right.le(d + 1)
    dims_json = {"domdim": domdim.to_json(), "selfinjective_left": inj_left.to_json(),
                 "selfinjective_right": inj_right.to_json()}

    seq_wit = None
    mods = generate_test_modules(x, trials, seed)
    for a, desc in mods:
        seq_wit = _approx_sequence_witness(x, d, a, desc, "2a")
        if seq_wit is not None:
            break
    if seq_wit is None:
        o = x.op
        for a, desc in generate_test_modules(o, trials, seed):
            seq_wit = _approx_sequence_witness(o, d, a, desc, "2b")
            if seq_wit is not None:
                break

    routes = {"tau_membership": "fail" if tau_wit else "pass",
              "gamma_dimensions": "pass" if dims_ok else "fail",
              "approx_sequences": "fail" if seq_wit
                                  else "no-counterexample-in-sample"}
    # the two certified routes are theorem-equivalent under the verified
    # preconditions; the sampled route can only ever falsify a pass (finding
    # no counterexample on a fail is a sampling gap, not a disagreement)
    disagree = ((tau_wit is None) != dims_ok
                or (tau_wit is None and dims_ok and seq_wit is not None))
    if disagree:
        raise RouteDisagreement(
            "precluster routes disagree under verified preconditions",
            {"routes": routes, "tau_witness": tau_wit, "gamma": dims_json,
             "sequence_witness": seq_wit, "d": d})
    details = {"routes": routes, "gamma": dims_json,
               "test_modules": len(mods), "rigid_route": rigid.route}
    if tau_wit is not None:
        return Verdict(f"{d}-precluster-tilting", "fail", route="tau-membership",
                       witness=tau_wit, seed=seed, trials=trials, details=details)
    return Verdict(f"{d}-precluster-tilting", "certified-pass",
                   route="tau-membership+gamma-dimensions",
                   seed=seed, trials=trials, details=details)


# -- class: d-cluster tilting -----------------------------------------------------------


def _resolution_witness(x: SubcategoryX, d: int, a: Representation,
                        desc: dict) -> dict | None:
    """... -> X_1 -> A -> 0 by minimal right approximations; the last kernel
    must land in add(M) within d terms."""
    cur = a
    for step in range(d):
        if x.contains(cur):
            return None
        if step == d - 1:
            return {"kind": "resolution-overruns", "module": desc,
                    "remainder_dims": cur.dims.tolist()}
        _, ev = x.right_approximation(cur)
        if not ev.is_surjective():
            return {"kind": "not-generating", "module": desc,
                    "stalled_dims": cur.dims.tolist()}
        cur = rep.kernel(ev)[0]
    return None


_CO_KINDS = {"resolution-overruns": "coresolution-overruns",
             "not-generating": "not-cogenerating"}


def _coresolution_witness(x: SubcategoryX, d: int, a: Representation,
                          desc: dict) -> dict | None:
    """0 -> A -> X_{-1} -> ... -> X_{-d} -> 0 by minimal left approximations:
    the resolution of D(A) over x.op, the dimensions of each remainder
    unchanged by duality."""
    wit = _resolution_witness(x.op, d, rep.dualize(a), desc)
    return None if wit is None else {**wit, "kind": _CO_KINDS[wit["kind"]]}


def _perp_witness(x: SubcategoryX, d: int, a: Representation,
                  desc: dict) -> dict | None:
    """Membership in add(M) must coincide with EACH Ext-perpendicularity
    condition in degrees 0 < i < d separately: the subcategory has to equal
    both perps, so a non-member lying in either one is already a mismatch."""
    member = x.contains(a)
    # Ext^i(a, -) is additive: the sum of the summands decides the left
    # side, and the first (summand, degree) is sought only when it fails
    total = x.obj(range(len(x.summands))).rep
    left_detail = None
    if any(subcat.ext_dim(a, total, i) for i in range(1, d)):
        left_detail = next({"degree": i, "summand": j, "side": "Ext(A, M)"}
                           for j in range(len(x.summands)) for i in range(1, d)
                           if subcat.ext_dim(a, x.summands[j], i))
    right_detail = next(({"degree": i, "summand": j, "side": "Ext(M, A)"}
                         for j in range(len(x.summands)) for i in range(1, d)
                         if subcat.ext_dim(x.summands[j], a, i)), None)
    left, right = left_detail is None, right_detail is None
    if member == left and member == right:
        return None
    detail = (left_detail if member != left else right_detail)
    return {"kind": "perp-mismatch", "module": desc, "member": member,
            "in_left_perp": left, "in_right_perp": right,
            "perp_detail": detail}


def _check_declared_list_complete(x: SubcategoryX, d: int, trials: int, seed: int) -> None:
    """Sweep the generated test modules where the declared list found no
    witness against a failing certificate: a witness here means the list
    misses an indecomposable, an input error naming the module."""
    for a, desc in generate_test_modules(x, trials, seed):
        if (_coresolution_witness(x, d, a, desc) or _resolution_witness(x, d, a, desc)
                or _perp_witness(x, d, a, desc)):
            raise SchemaError("declared_indecomposables",
                              "not every indecomposable module is listed: the generated "
                              f"test module {json.dumps(desc)} contradicts d = {d} while "
                              "no listed module does")


def classify_d_cluster_tilting(x: SubcategoryX, d: int,
                               declared_indecomposables: list[Representation] | None = None,
                               trials: int = DEFAULT_TRIALS,
                               seed: int = DEFAULT_SEED, cap: int = 20) -> Verdict:
    """Routes: the endomorphism-algebra certificate (generating-cogenerating
    plus gldim <= d+1 and domdim >= d+1), termination of d-fold
    (co)resolutions by minimal approximations, and the Ext-perpendicularity
    membership test -- the latter two over a test set of modules, decisive
    when the caller declares the full indecomposable list."""
    if d < 1:
        raise ValueError("d must be positive")
    gen_ok, gen_wit = _gen_cogen_certificate(x)
    if not gen_ok:
        return Verdict(f"{d}-cluster-tilting", "fail", route="gen-cogen-membership",
                       witness=gen_wit, seed=seed, trials=trials,
                       details={"routes": {"gen_cogen": "fail"}})

    cap = max(cap, d + 3)
    gamma = x.endomorphism_algebra()
    gldim = algebra_ops.global_dimension(gamma, cap=cap)
    domdim = algebra_ops.dominant_dimension(gamma, cap=cap)
    cert_ok = gldim.le(d + 1) and domdim.ge(d + 1)
    dims_json = {"gldim": gldim.to_json(), "domdim": domdim.to_json()}

    ext_wit = _ext_vanishing_witness(x, d)
    mods = generate_test_modules(x, trials, seed, declared_indecomposables)
    lemma_wit = dict(ext_wit) if ext_wit else None
    if lemma_wit is None:
        for a, desc in mods:
            lemma_wit = (_coresolution_witness(x, d, a, desc)
                         or _resolution_witness(x, d, a, desc))
            if lemma_wit is not None:
                break
    perp_wit = None
    for a, desc in mods:
        perp_wit = _perp_witness(x, d, a, desc)
        if perp_wit is not None:
            break

    declared = declared_indecomposables is not None
    routes = {"gamma_dimensions": "pass" if cert_ok else "fail",
              "resolution_termination": "fail" if lemma_wit else "pass",
              "perp_membership": "fail" if perp_wit else "pass"}
    details = {"routes": routes, "gamma": dims_json, "test_modules": len(mods),
               "declared_indecomposables": declared}
    if cert_ok and (lemma_wit is not None or perp_wit is not None):
        raise RouteDisagreement(
            "endomorphism-algebra certificate passes but a concrete module "
            "contradicts it",
            {"routes": routes, "gamma": dims_json,
             "lemma_witness": lemma_wit, "perp_witness": perp_wit, "d": d})
    if not cert_ok and declared and lemma_wit is None and perp_wit is None:
        _check_declared_list_complete(x, d, trials, seed)
        raise RouteDisagreement(
            "certificate fails but the full indecomposable sweep passes",
            {"routes": routes, "gamma": dims_json, "d": d})
    if cert_ok:
        return Verdict(f"{d}-cluster-tilting", "certified-pass",
                       route="gamma-dimensions", seed=seed, trials=trials,
                       details=details)
    witness = lemma_wit or perp_wit or {"kind": "gamma-dimensions", **dims_json}
    return Verdict(f"{d}-cluster-tilting", "fail",
                   route="gamma-dimensions" if witness.get("kind") == "gamma-dimensions"
                   else "module-sweep",
                   witness=witness, seed=seed, trials=trials, details=details)


# -- class: d-abelian ---------------------------------------------------------------------


def _d_kernel_witness(x: SubcategoryX, d: int, morphs: list[XMap]) -> dict | None:
    for m in morphs:
        try:
            x.d_kernel(m, d)
        except DKernelNotLeftExact as e:
            return {"kind": "d-kernel-missing", "morphism": serialize_xmap(m),
                    "inner": e.witness}
        try:
            x.d_cokernel(m, d)
        except DCokernelNotRightExact as e:
            return {"kind": "d-cokernel-missing", "morphism": serialize_xmap(m),
                    "inner": e.witness}
    return None


def _as_xmap(x: SubcategoryX, f: ModuleMorphism) -> XMap | None:
    """Transport a morphism between modules isomorphic to add(M) objects
    into the subcategory; None when either endpoint does not embed."""
    e0, e1 = x.embed(f.source), x.embed(f.target)
    if e0 is None or e1 is None:
        return None
    (xo0, iso0), (xo1, iso1) = e0, e1
    return XMap(xo0, xo1,
                rep.invert_morphism(iso1).compose(f).compose(iso0))


def _directed_morphisms(x: SubcategoryX, mods) -> list[XMap]:
    """Copresentation and presentation maps of non-member test modules.

    The representation-level kernel of A's injective copresentation map is A
    itself (dually for cokernels), which steers the d-(co)kernel sweep
    straight at the modules most likely to escape add(M) instead of waiting
    for random sampling to stumble on them.
    """
    out = []
    for a, _desc in mods:
        if a.total_dim == 0 or x.contains(a):
            continue
        env, _ = rep.injective_envelope(a)
        c, cproj = rep.cokernel(env)
        if c.total_dim:
            m = _as_xmap(x, rep.injective_envelope(c)[0].compose(cproj))
            if m is not None:
                out.append(m)
        cover, _ = rep.projective_cover(a)
        k, kincl = rep.kernel(cover)
        if k.total_dim:
            m = _as_xmap(x, kincl.compose(rep.projective_cover(k)[0]))
            if m is not None:
                out.append(m)
    return out


def classify_d_abelian(x: SubcategoryX, d: int, trials: int = DEFAULT_TRIALS,
                       seed: int = DEFAULT_SEED,
                       declared_indecomposables: list[Representation] | None = None
                       ) -> Verdict:
    """Intrinsic conjunction: idempotent completeness, weak (co)kernels, the
    epi/mono axioms, the pushout axioms, the rigidity ladder, and existence
    of d-kernels and d-cokernels on sampled morphisms.

    The verdict is compared against the d-cluster-tilting classifier; for
    generating cogenerating add(M) the two are theorem-equivalent and
    disagreement raises.  Without that hypothesis the intrinsic category
    may be d-abelian with a different ambient, so only the intrinsic
    verdict is reported.

    The d-kernel/d-cokernel legs use the canonical construction (iterated
    weak kernels ending in the representation-level kernel, and dually),
    which is decisive exactly when add(M) is generating (kernels) resp.
    cogenerating (cokernels).  Outside that zone a d-cokernel-missing or
    d-kernel-missing witness documents the canonical route only: the
    abstract category may still possess the d-(co)kernel on a different
    object.  Example: add(Lambda) over the Auslander algebra of a
    hereditary algebra is abstractly abelian, yet the canonical cokernel
    of a radical map escapes add(Lambda).
    """
    if d < 1:
        raise ValueError("d must be positive")
    checks = [check_A0(x, seed=seed),
              check_A1_A1op(x, trials, seed),
              check_A2_A2op(x, trials, seed),
              check_A3_A3op(x, trials, seed),
              check_d_rigid(x, d, trials, seed)]
    sub_status = {c.name: c.status for c in checks}
    witness = None
    for c in checks:
        if not c.passed:
            witness = {"kind": "axiom-fails", "axiom": c.name, "inner": c.witness}
            break
    if witness is None:
        morphs = sample_morphisms(x, trials, seed)
        morphs += _directed_morphisms(
            x, generate_test_modules(x, trials, seed,
                                     declared_indecomposables))
        witness = _d_kernel_witness(x, d, morphs)
        sub_status[f"{d}-kernels+cokernels"] = "fail" if witness else "sampled-pass"
    details: dict = {"checks": sub_status}
    verdict = Verdict(f"{d}-abelian", "fail" if witness else "sampled-pass",
                      route="axiom-conjunction", witness=witness,
                      seed=seed, trials=trials, details=details)
    ct = classify_d_cluster_tilting(x, d, declared_indecomposables, trials, seed)
    details["cluster_tilting_status"] = ct.status
    gen_cogen, _ = _gen_cogen_certificate(x)
    details["cross_check_binding"] = gen_cogen
    # under gen-cogen the two classes coincide, but only one direction is
    # checkable without a sampling gap: a concrete axiom counterexample
    # against a certified cluster-tilting pass is a tool bug, whereas a
    # sample that finds no counterexample on a fail entry is recorded, not
    # raised
    if gen_cogen and ct.passed and not verdict.passed:
        raise RouteDisagreement(
            "d-abelian axioms and the d-cluster-tilting classifier "
            "disagree on a generating-cogenerating subcategory",
            {"abelian": verdict.to_json(), "cluster_tilting": ct.to_json(),
             "d": d})
    if gen_cogen and not ct.passed and verdict.passed:
        details["cross_check_note"] = ("cluster-tilting fails but no "
                                       "abelian counterexample surfaced "
                                       "in the sample")
    return verdict


# -- witness replay --------------------------------------------------------------------


def replay_witness(x: SubcategoryX, witness: dict, d: int | None = None,
                   declared: list[Representation] | None = None) -> bool:
    """Re-run a fail witness through its definitional test; True when the
    failure reproduces.  Witnesses carrying morphisms or module descriptors
    are rebuilt from their serialized form, nothing else is reused."""
    kind = witness["kind"]
    if kind == "summand-escapes":
        xo = x.obj(tuple(witness["parts"]))
        maps = [np.asarray(t, dtype=np.int64).reshape(int(dv), int(dv))
                for t, dv in zip(witness["idempotent"], xo.rep.dims)]
        e = ModuleMorphism(xo.rep, xo.rep, maps)
        if not e.compose(e).sub(e).is_zero:
            return False
        return (x.embed(rep.image(e)[0]) is None
                or x.embed(rep.kernel(e)[0]) is None)
    if kind in ("weak-kernel-defect", "weak-cokernel-defect"):
        m = deserialize_xmap(x, witness["morphism"])
        if kind == "weak-kernel-defect":
            return not x.is_weak_kernel(x.weak_kernel(m), m)[0]
        return not x.is_weak_cokernel(x.weak_cokernel(m), m)[0]
    if kind in ("epi-not-weak-cokernel", "mono-not-weak-kernel"):
        f = deserialize_xmap(x, witness["morphism"])
        return _a2_witness(x, f, witness["side"]) is not None
    if kind in ("a3-not-epi", "a3op-not-mono"):
        f = deserialize_xmap(x, witness["morphism"])
        return _a3_witness(x, f, witness["side"]) is not None
    if kind == "ext-nonvanishing":
        return subcat.ext_dim(x.summands[witness["source_summand"]],
                              x.summands[witness["target_summand"]],
                              witness["degree"]) == witness["dim"] != 0
    if kind == "chain-breaks":
        assert d is not None
        f1 = deserialize_xmap(x, witness["epi"])
        got = _rigid_chain_witness(x, d, f1)
        return got is not None and got["position"] == witness["position"]
    if kind == "a4-chain-end":
        assert d is not None
        side = x.op if witness["side"].endswith("op") else x
        f0 = deserialize_xmap(side, witness["seed_morphism"])
        return _a4_witness(side, d, f0, witness["side"]) is not None
    if kind == "missing-projective":
        return not x.contains(rep.projective(x.algebra, witness["vertex"]))
    if kind == "missing-injective":
        return not x.contains(rep.injective(x.algebra, witness["vertex"]))
    if kind == "tau-escapes":
        assert d is not None
        s = x.summands[witness["summand"]]
        t = (subcat.tau_d(s, d) if witness["direction"] == "tau_d"
             else subcat.tau_d_inverse(s, d))
        return not x.contains(t)
    if kind in ("coresolution-overruns", "not-cogenerating"):
        assert d is not None
        a = realize_module(x, witness["module"], declared)
        return _coresolution_witness(x, d, a, witness["module"]) is not None
    if kind in ("resolution-overruns", "not-generating"):
        assert d is not None
        side = x.op if witness.get("side") == "2b" else x
        a = realize_module(side, witness["module"], declared)
        if witness.get("side") in ("2a", "2b"):
            return _approx_sequence_witness(side, d, a, witness["module"],
                                            witness["side"]) is not None
        return _resolution_witness(side, d, a, witness["module"]) is not None
    if kind == "approx-sequence-break":
        assert d is not None
        side = x.op if witness["side"] == "2b" else x
        a = realize_module(side, witness["module"], declared)
        return _approx_sequence_witness(side, d, a, witness["module"],
                                        witness["side"]) is not None
    if kind == "perp-mismatch":
        assert d is not None
        a = realize_module(x, witness["module"], declared)
        return _perp_witness(x, d, a, witness["module"]) is not None
    if kind in ("d-kernel-missing", "d-cokernel-missing"):
        assert d is not None
        m = deserialize_xmap(x, witness["morphism"])
        return _d_kernel_witness(x, d, [m]) is not None
    if kind == "gamma-dimensions":
        assert d is not None
        gamma = x.endomorphism_algebra()
        gldim = algebra_ops.global_dimension(gamma, cap=max(20, d + 3))
        domdim = algebra_ops.dominant_dimension(gamma, cap=max(20, d + 3))
        return not (gldim.le(d + 1) and domdim.ge(d + 1))
    if kind == "precondition":
        inner = witness["inner"]
        return replay_witness(x, inner, d=d, declared=declared)
    if kind == "axiom-fails":
        return replay_witness(x, witness["inner"], d=d, declared=declared)
    raise ValueError(f"unknown witness kind {kind!r}")
