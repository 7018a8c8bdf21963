"""Membership and isomorphism of indecomposables by splitting End(a): the
reference for `SubcategoryX._embed`, which takes the minimal right
approximation when it is bijective, and for `rep._unit_witness`, which
takes the first bijective element of the hom basis.

Here a module is decomposed, and each leaf is matched against each summand
by a pair of hom-basis elements b -> a, a -> b whose composite leaves the
radical of End(a), found by the trace form (`fitting._radical_of_ring`).
An indecomposable has a local endomorphism ring, so a composite outside
the radical is a unit, and the first f: a -> b with such a partner is the
first bijective f; both routes must give the same morphism.
"""
import numpy as np

from tiltbench import fitting, rep
from tiltbench.rep import ModuleMorphism


def unit_witness(a, b):
    """For a, b indecomposable: the first f in the hom basis a -> b with
    some g: b -> a in the other basis making g o f a unit of End(a), else
    None."""
    if a.dims.tolist() != b.dims.tolist():
        return None
    if a.total_dim == 0:
        return rep.zero_morphism(a, b)
    F = a.field
    fwd = rep.hom_space(a, b)
    if not fwd:
        return None
    bwd = rep.hom_space(b, a)
    ends = rep.hom_space(a, a)
    rad = fitting._radical_of_ring(fitting._RingData(F, [f.total_matrix() for f in ends]))
    basis_mat = np.stack([f.flatten() for f in ends], axis=1) % F.p
    for f in fwd:
        for g in bwd:
            coords = F.solve_many(basis_mat, g.compose(f).flatten().reshape(-1, 1))
            assert coords is not None, "endomorphism left its own hom space"
            in_rad = not coords.any() if rad.shape[1] == 0 else F.column_space_contains(rad, coords)
            if not in_rad:
                assert f.is_isomorphism(), "unit composite did not yield an isomorphism"
                return f
    return None


def embed(x, a, seed=42):
    """(parts, isomorphism from their sum onto a) by decomposing a and
    matching each leaf with the first summand isomorphic to it, or None
    when some leaf matches none."""
    if a.total_dim == 0:
        z = x.zero_obj()
        return (), rep.zero_morphism(z.rep, a)
    parts, comps = [], []
    for leaf in rep.decompose(a, seed):
        hit = next(((i, w) for i, s in enumerate(x.summands)
                    if (w := unit_witness(s, leaf.rep)) is not None), None)
        if hit is None:
            return None
        parts.append(hit[0])
        comps.append(leaf.incl.compose(hit[1]))
    src = x.obj(parts).rep
    iso = ModuleMorphism(src, a, [np.concatenate([f.maps[v] for f in comps], axis=1)
                                  for v in range(len(a.dims))])
    assert iso.is_isomorphism(), "assembled embedding is not an isomorphism"
    return tuple(parts), iso
