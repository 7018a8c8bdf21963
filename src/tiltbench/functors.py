"""Finitely presented functors on an additive subcategory.

A coherent functor F is stored as a presentation map f: X1 -> X0 in add(M);
F(Z) = Hom(Z, X0) / im(f o -).  Everything downstream is linear algebra on
hom coordinates: morphisms of functors are lifts between presentation
targets, the cokernel of a morphism is presented by the lift beside the
target's presentation, and the star/double-star calculus is driven by weak
kernel chains over the two sides.

The localization to modules is psi_tilde (cokernel of the presentation);
effaceable functors are exactly its kernel, which is tested definitionally
(presentation map epi relative to the subcategory).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from tiltbench import rep
from tiltbench.linalg import read_only
from tiltbench.rep import Representation
from tiltbench.subcat import (ResolutionCapExceeded, SubcategoryX, XMap, XObject,
                              concat_xmaps_cols)


# The field's entry points key every call in its memo; an empty matrix has a
# known answer, given here without a call.


@functools.cache
def _eye(n: int) -> np.ndarray:
    """The n x n identity, one read-only copy per size: nothing writes into
    the bases and evaluations built from it."""
    return read_only(np.eye(n, dtype=np.int64))


def _rank(F, m: np.ndarray) -> int:
    return F.rank(m) if m.size else 0


def _nullspace(F, m: np.ndarray) -> np.ndarray:
    return F.nullspace(m) if m.size else _eye(m.shape[1])


def _span(F, m: np.ndarray) -> np.ndarray:
    """A basis of the column space of m, column-reduced."""
    return F.column_reduce(m) if m.size else np.zeros((m.shape[0], 0), dtype=np.int64)


def _quotient(F, sub: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    if sub.size:
        return F.quotient_projection(sub, n)
    return _eye(n), _eye(n)


def _solve(F, m: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """A solution x of m @ x = b for a vector b, or None."""
    if not m.size:
        return None if b.any() else np.zeros(m.shape[1], dtype=np.int64)
    sol = F.solve_many(m, b.reshape(-1, 1))
    return None if sol is None else sol[:, 0]


class SequenceCheckFailed(Exception):
    """A unit/counit four-term sequence failed its evaluation-point check."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


@dataclass
class EvalData:
    ambient: int           # dim Hom(X_z, X0)
    proj: np.ndarray       # quotient projection onto F(z) coordinates
    reps: np.ndarray       # section of proj
    dim: int


class CoherentFunctor:
    def __init__(self, subcat: SubcategoryX, pres: XMap):
        self.subcat = subcat
        self.pres = pres
        self._evals: dict[int, EvalData] = {}
        self._star_chain: tuple[XMap, XMap] | None = None

    @classmethod
    def yoneda(cls, subcat: SubcategoryX, xobj: XObject) -> "CoherentFunctor":
        z = subcat.zero_obj()
        return cls(subcat, XMap(z, xobj, rep.zero_morphism(z.rep, xobj.rep)))

    def evaluate(self, z: int) -> EvalData:
        if z not in self._evals:
            x = self.subcat
            F = x.field
            ambient = x.hom_dim(z, self.pres.dst)
            if not ambient:  # a quotient of the zero space
                empty = np.zeros((0, 0), dtype=np.int64)
                self._evals[z] = EvalData(0, empty, empty, 0)
            else:
                proj, reps = _quotient(F, _span(F, x.post_matrix(self.pres, z)), ambient)
                self._evals[z] = EvalData(ambient, proj, reps, proj.shape[0])
        return self._evals[z]

    def eval_dim(self, z: int) -> int:
        return self.evaluate(z).dim

    def __repr__(self) -> str:
        return f"CoherentFunctor({self.pres.src.parts} -> {self.pres.dst.parts})"


class FunctorMorphism:
    """Natural transformation between coherent functors, given by a lift
    between presentation targets; the compatibility square is solved for on
    construction."""

    def __init__(self, source: CoherentFunctor, target: CoherentFunctor,
                 lift: XMap, verify: bool = True):
        self.source = source
        self.target = target
        self.lift = lift
        if verify:
            x = source.subcat
            g = target.pres
            need = lift.mor.compose(source.pres.mor)  # X1 -> Y0
            mat = x.obj_post_matrix(g, source.pres.src)
            want = x.obj_coords(source.pres.src, g.dst, need)
            if _solve(x.field, mat, want) is None:
                raise ValueError("lift does not descend to a map of functors")

    def eval_matrix(self, z: int) -> np.ndarray:
        F = self.source.subcat.field
        ef = self.source.evaluate(z)
        eg = self.target.evaluate(z)
        if not ef.dim or not eg.dim:
            return np.zeros((eg.dim, ef.dim), dtype=np.int64)
        post = self.source.subcat.post_matrix(self.lift, z)
        return (eg.proj @ ((post @ ef.reps) % F.p)) % F.p


def yoneda_morphism(x: SubcategoryX, m: XMap) -> FunctorMorphism:
    return FunctorMorphism(CoherentFunctor.yoneda(x, m.src),
                           CoherentFunctor.yoneda(x, m.dst), m, verify=False)


def hom_functors(f: CoherentFunctor, g: CoherentFunctor) -> list[FunctorMorphism]:
    """Basis of natural transformations f -> g, as coset representatives of
    {a: a o pres_f factors through pres_g} modulo {pres_g o s}."""
    x = f.subcat
    F = x.field
    pf, pg = f.pres, g.pres
    pre_f = x.obj_pre_matrix(pf, pg.dst)        # Hom(X0,Y0) -> Hom(X1,Y0)
    post_g = x.obj_post_matrix(pg, pf.src)      # Hom(X1,Y1) -> Hom(X1,Y0)
    n_a = pre_f.shape[1]
    system = np.concatenate([pre_f, (-post_g) % F.p], axis=1) % F.p
    pairs = _nullspace(F, system)
    a_space = _span(F, pairs[:n_a, :])
    denom = _span(F, x.obj_post_matrix(pg, pf.dst))
    picked = []
    seen = denom
    for j in range(a_space.shape[1]):
        cand = np.concatenate([seen, a_space[:, j:j + 1]], axis=1)
        if _rank(F, cand) > seen.shape[1]:
            seen = F.column_reduce(cand)
            picked.append(a_space[:, j])
    out = []
    for coords in picked:
        mor = x.obj_from_coords(pf.dst, pg.dst, coords)
        out.append(FunctorMorphism(f, g, XMap(pf.dst, pg.dst, mor), verify=False))
    return out


def cokernel_functor(phi: FunctorMorphism) -> tuple[CoherentFunctor, FunctorMorphism]:
    """Presented by [lift  pres_g]: X0 + Y1 -> Y0."""
    x = phi.source.subcat
    g = phi.target.pres
    pres = concat_xmaps_cols(x, [phi.lift, g], g.dst)
    c = CoherentFunctor(x, pres)
    proj = FunctorMorphism(phi.target, c,
                           XMap(g.dst, g.dst, rep.identity_morphism(g.dst.rep)),
                           verify=False)
    _check_cokernel(phi, c)
    return c, proj


def _check_cokernel(phi: FunctorMorphism, c: CoherentFunctor) -> None:
    for z in range(len(phi.source.subcat.summands)):
        m = phi.eval_matrix(z)
        want = phi.target.eval_dim(z) - _rank(phi.source.subcat.field, m)
        if c.eval_dim(z) != want:
            raise AssertionError("cokernel functor failed evaluation check")


def is_effaceable(f: CoherentFunctor) -> tuple[bool, int | None]:
    """Vanishing in the localization: presentation map epi relative to X."""
    return f.subcat.is_epi(f.pres)


def psi_tilde(f: CoherentFunctor) -> Representation:
    """The localization functor to modules: cokernel of the presentation."""
    c, _ = rep.cokernel(f.pres.mor)
    return c


def star(f: CoherentFunctor) -> CoherentFunctor:
    """F* = Ker(- o pres) in functors on the opposite side, presented by the
    second weak kernel of the dualized presentation."""
    x = f.subcat
    o = x.op
    fop = x.dual_xmap(f.pres)
    t1 = o.weak_kernel(fop)
    t2 = o.weak_kernel(t1)
    out = CoherentFunctor(o, t2)
    f._star_chain = (t1, t2)
    return out


def _double_star_data(f: CoherentFunctor):
    """(unit, F**, c1x, c2x, s1): the two dualized transpose-chain maps on
    the original side and the first weak kernel presenting F**."""
    x = f.subcat
    o = x.op
    fs = star(f)
    fss = star(fs)
    t1, t2 = f._star_chain         # over op: T1 -> DX0, T2 -> T1
    s1, s2 = fs._star_chain        # over x:  S1 -> T1x, S2 -> S1
    c1x = o.dual_xmap(t1)          # X0-parts -> T1x
    c2x = o.dual_xmap(t2)          # T1x -> T2x
    x0 = f.pres.dst
    c1 = XMap(x0, c1x.dst, c1x.mor)
    mat = x.obj_post_matrix(s1, x0)
    want = x.obj_coords(x0, s1.dst, c1.mor)
    sol = _solve(x.field, mat, want)
    if sol is None:
        raise AssertionError("unit lift does not factor through the weak kernel")
    u_mor = x.obj_from_coords(x0, s1.src, sol)
    unit = FunctorMorphism(f, fss, XMap(x0, s2.dst, u_mor))
    return unit, fss, c1, c2x, s1


def verify_star_adjunction_sequences(f: CoherentFunctor) -> dict:
    """Check the four-term exact sequence around the unit F -> F** at every
    evaluation point: the kernel of the unit matches Ext^1 of the transpose
    against the other side (and consists exactly of the classes killed by
    the chain map), the cokernel matches Ext^2 through an onto comparison
    map, and exactness holds at F**.  Returns per-summand dimensions."""
    x = f.subcat
    F = x.field
    unit, fss, c1, c2x, s1 = _double_star_data(f)
    report = {}
    for z in range(len(x.summands)):
        if not (x.hom_dim(z, f.pres.dst) or x.hom_dim(z, c1.dst) or fss.eval_dim(z)):
            # Hom(Z,X0) = Hom(Z,T1) = F**(Z) = 0: every term below is zero
            # and every check holds
            report[z] = {"F": 0, "Fss": 0, "ext1": 0, "ext2": 0}
            continue
        d0 = x.post_matrix(f.pres, z)     # Hom(Z,X1) -> Hom(Z,X0)
        d1 = x.post_matrix(c1, z)         # Hom(Z,X0) -> Hom(Z,T1)
        d2 = x.post_matrix(c2x, z)        # Hom(Z,T1) -> Hom(Z,T2)
        if ((d1 @ d0) % F.p).any() or ((d2 @ d1) % F.p).any():
            raise SequenceCheckFailed("transpose resolution is not a complex",
                                      {"summand": z})
        r0, r1, r2 = _rank(F, d0), _rank(F, d1), _rank(F, d2)
        e1 = int(d1.shape[1] - r1 - r0)
        e2 = int(d2.shape[1] - r2 - r1)
        ef = f.evaluate(z)
        ess = fss.evaluate(z)
        eta = unit.eval_matrix(z)
        r_eta = _rank(F, eta)
        k_dim = int(eta.shape[1] - r_eta)
        c_dim = int(ess.dim - r_eta)
        if k_dim != e1 or c_dim != e2:
            raise SequenceCheckFailed(
                "unit kernel/cokernel do not match the transpose Ext terms",
                {"summand": z, "ker_unit": k_dim, "ext1": e1,
                 "coker_unit": c_dim, "ext2": e2})
        # mapwise: ker(eta) = classes of {v : c1 o v = 0}
        amb_null = _nullspace(F, d1)
        killed = _span(F, (ef.proj @ amb_null) % F.p)
        eta_null = _nullspace(F, eta)
        if killed.shape[1] != k_dim or eta_null.shape[1] != k_dim or (
                k_dim and not F.column_space_contains(eta_null, killed)):
            raise SequenceCheckFailed(
                "kernel of the unit is not the classes killed by the chain map",
                {"summand": z})
        # pi: F**(Z) -> ker(d2)/im(d1), [w] -> [s1 o w]; must be onto with
        # kernel exactly the image of eta
        w_basis = _nullspace(F, d2)
        w_proj, _ = _quotient(F, _span(F, d1), d2.shape[1])
        # coordinates of ker(d2)/im(d1): project nullspace basis and reduce
        w_space = _span(F, (w_proj @ w_basis) % F.p)
        post_s1 = x.post_matrix(s1, z)    # Hom(Z,S1) -> Hom(Z,T1)
        pi = (w_proj @ ((post_s1 @ ess.reps) % F.p)) % F.p
        r_pi = _rank(F, pi)
        if r_pi != w_space.shape[1]:
            raise SequenceCheckFailed(
                "comparison map onto the Ext^2 term is not surjective",
                {"summand": z, "rank": int(r_pi),
                 "target_dim": int(w_space.shape[1])})
        pi_null = _nullspace(F, pi)
        im_eta = _span(F, eta)
        if pi_null.shape[1] != im_eta.shape[1] or (
                im_eta.shape[1] and not F.column_space_contains(pi_null, im_eta)):
            raise SequenceCheckFailed(
                "image of the unit does not match the kernel of the comparison map",
                {"summand": z})
        report[z] = {"F": ef.dim, "Fss": ess.dim, "ext1": e1, "ext2": e2}
    return report


def functor_ext_yoneda(f: CoherentFunctor, z: int, i: int, cap: int = 10) -> int:
    """dim Ext^i in the functor category from F to the functor represented
    by summand z, via a weak-kernel resolution of the presentation."""
    x = f.subcat
    F = x.field
    if i < 0:
        raise ValueError("negative Ext degree")
    if i + 1 > cap:
        raise ResolutionCapExceeded(f"needed resolution length {i + 1} > cap {cap}")
    diffs = [f.pres]
    while len(diffs) < i + 1:
        diffs.append(x.weak_kernel(diffs[-1]))

    def cochain(k: int) -> np.ndarray:
        """Hom(d_k, X_z): C^k -> C^{k+1}, read as Hom(D X_z, D d_k) over x.op."""
        return x.op.post_matrix(x.dual_xmap(diffs[k]), z)

    if i == 0:
        m = cochain(0)
        return int(m.shape[1] - _rank(F, m))
    upper, lower = cochain(i), cochain(i - 1)
    return int(upper.shape[1] - _rank(F, upper) - _rank(F, lower))
