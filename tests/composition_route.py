"""Hom coordinates between X-objects by composition: the reference for
`SubcategoryX.obj_post_matrix`, `obj_coords`, `obj_from_coords` and
`obj_pre_matrix`, which read them block by block from the summand caches.

Here the basis of Hom(xa, xb) is built whole, each summand hom composed
with the inclusion and projection of its parts (in the order sp, dp, h), and
coordinates come from one left inverse of the stacked basis.  A morphism
has one set of coordinates in a basis, so both routes must give equal
arrays.  Bases and solvers are kept per subcategory, as the route once kept
them in its memo.
"""
import weakref

import numpy as np

from tiltbench import rep

_kept = weakref.WeakKeyDictionary()


def obj_hom(x, xa, xb):
    """The basis of Hom(xa, xb): incl_dp o h o proj_sp."""
    return [xb.incls[dp].compose(h).compose(xa.projs[sp])
            for sp, i in enumerate(xa.parts) for dp, j in enumerate(xb.parts)
            for h in x.hom(i, j)]


def obj_hom_solver(x, xa, xb):
    """(stacked flats, left inverse) of the basis of Hom(xa, xb)."""
    kept = _kept.setdefault(x, {})
    key = (xa.parts, xb.parts)
    if key not in kept:
        basis = obj_hom(x, xa, xb)
        p = x.field.p
        if not basis:
            n = int(np.sum(xa.rep.dims * xb.rep.dims))
            kept[key] = np.zeros((n, 0), dtype=np.int64), np.zeros((0, n), dtype=np.int64)
        else:
            stacked = np.stack([h.flatten() for h in basis], axis=1) % p
            left = x.field.solve_many(stacked.T, np.eye(stacked.shape[1], dtype=np.int64))
            assert left is not None, "hom basis is not independent"
            kept[key] = stacked, left.T % p
    return kept[key]


def obj_coords(x, xa, xb, mor):
    _, left = obj_hom_solver(x, xa, xb)
    return (left @ mor.flatten()) % x.field.p


def obj_from_coords(x, xa, xb, coords):
    stacked, _ = obj_hom_solver(x, xa, xb)
    flat = (stacked @ (np.asarray(coords, dtype=np.int64) % x.field.p)) % x.field.p
    return rep.morphism_from_flat(xa.rep, xb.rep, flat)


def obj_pre_matrix(x, m, xb):
    """Matrix of Hom(m, xb): Hom(m.dst, xb) -> Hom(m.src, xb)."""
    basis = obj_hom(x, m.dst, xb)
    _, left = obj_hom_solver(x, m.src, xb)
    if not basis:
        return np.zeros((left.shape[0], 0), dtype=np.int64)
    cols = np.stack([e.compose(m.mor).flatten() for e in basis], axis=1)
    return (left @ cols) % x.field.p


def obj_post_matrix(x, m, xa):
    """Matrix of Hom(xa, m): Hom(xa, m.src) -> Hom(xa, m.dst)."""
    basis = obj_hom(x, xa, m.src)
    _, left = obj_hom_solver(x, xa, m.dst)
    if not basis:
        return np.zeros((left.shape[0], 0), dtype=np.int64)
    cols = np.stack([m.mor.compose(e).flatten() for e in basis], axis=1)
    return (left @ cols) % x.field.p
