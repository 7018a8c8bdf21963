"""Projective covers and minimal approximations by whole path matrices:
the reference for `rep._projective_cover`, which lifts the tops of a module
path by path, sharing prefixes, and for `SubcategoryX._minimize_blocks`,
which composes a block with a whole hom basis in one product per vertex.

Here each basis element of the algebra acts on a module by the full
product of the arrow matrices along its path, started from the identity,
and a top representative is lifted by contracting those matrices with it
(`np.tensordot`); the radical of a module is rad A, read off the trace
form block by block, acting the same way; the scan composes and flattens
one hom-basis element at a time.  Integer products mod p are associative,
so both routes must give equal arrays.
"""
import numpy as np

from tiltbench import fitting, rep, subcat


def basis_actions(m):
    """The matrix on m of each basis element, in basis order."""
    out = []
    for src, arrows in m.algebra.basis_paths:
        act = np.eye(int(m.dims[src]), dtype=np.int64)
        for a in arrows:
            act = (m.maps[a] @ act) % m.field.p
        out.append(act)
    return out


def block_action(m, i, j, acts=None):
    """The basis elements of e_j A e_i acting on m, stacked into an array
    of shape (block size, dim of m at j, dim of m at i)."""
    acts, idx = acts or basis_actions(m), m.algebra.blocks[i, j]
    return np.array([acts[k] for k in idx], dtype=np.int64).reshape(
        len(idx), int(m.dims[j]), int(m.dims[i]))


def radical_blocks(alg):
    """rad A block by block, as columns in the coordinates of blocks[s, t]:
    all of e_t A e_s for s != t, and the trace-form radical of the ring
    e_s A e_s, whose unit is e_s, for s = t."""
    return {(s, t): np.eye(len(idx), dtype=np.int64) if s != t
            else fitting.radical_from_table(alg.field, alg.table[np.ix_(idx, idx, idx)],
                                            alg.unit[idx])
            for (s, t), idx in alg.blocks.items()}


def radical_subspaces(m):
    """rad(A)*m: `radical_blocks` acting through the whole-path matrices,
    without reading which arrows generate the radical."""
    F = m.field
    cols = [[] for _ in m.dims]
    acts = basis_actions(m)
    for (i, j), r in radical_blocks(m.algebra).items():
        if r.shape[1] and m.dims[i] and m.dims[j]:
            got = np.tensordot(r.T, block_action(m, i, j, acts), axes=1) % F.p
            cols[j].append(np.concatenate(list(got), axis=1))
    return [F.column_reduce(np.concatenate(c, axis=1)) if c
            else np.zeros((int(d), 0), dtype=np.int64) for c, d in zip(cols, m.dims)]


def projective_cover(m):
    """(source dims, source maps, cover maps, vertex list): the greedy loop
    of `rep.projective_cover`, each representative u lifted by
    contracting the block actions with it."""
    alg, F = m.algebra, m.field
    nv = len(m.dims)
    rad, acts = radical_subspaces(m), basis_actions(m)
    picked, cols = [], [[] for _ in m.dims]
    for i in range(nv):
        d = int(m.dims[i])
        reps = F.quotient_projection(rad[i], d)[1] if rad[i].size else np.eye(d, dtype=np.int64)
        blocks = [block_action(m, i, j, acts) for j in range(nv)]
        covered = rad[i]
        for n in range(reps.shape[1]):
            u = reps[:, n]
            if n and F.column_space_contains(covered, u.reshape(-1, 1)):
                continue
            lifts = [np.tensordot(b, u, axes=([2], [0])).T % F.p for b in blocks]
            for j in range(nv):
                cols[j].append(lifts[j])
            picked.append(i)
            covered = F.column_reduce(np.concatenate([covered, lifts[i]], axis=1))
    source = rep.sum_module(alg, [alg.projective_leaves()[i] for i in picked])
    maps = [np.concatenate(c, axis=1) if c else np.zeros((int(d), 0), dtype=np.int64)
            for c, d in zip(cols, m.dims)]
    return source.dims, source.maps, maps, picked


def injective_envelope(m):
    """(maps, vertex list): the dual of the reference cover of D m."""
    _, _, maps, verts = projective_cover(rep.dualize(m))
    return [f.T for f in maps], verts


def minimize_blocks(x, parts, blocks):
    """The forward scan, each column b o u composed and flattened alone."""
    p = x.field.p
    cols = {}
    keep = list(range(len(parts)))
    pos = 0
    while pos < len(keep):
        i, rest = parts[keep[pos]], keep[:pos] + keep[pos + 1:]
        mat = []
        for r in rest:
            if (i, r) not in cols:
                cols[i, r] = [blocks[r].compose(u).flatten() for u in x.hom(i, parts[r])]
            mat += cols[i, r]
        block = blocks[keep[pos]]
        drop = block.is_zero if not mat else x.field.solve_many(
            np.stack(mat, axis=1) % p, block.flatten().reshape(-1, 1)) is not None
        if drop:
            keep = rest
        else:
            pos += 1
    return [parts[k] for k in keep], [blocks[k] for k in keep]


def right_approximation(x, a):
    """(parts, maps) of the minimal right add(M)-approximation of a."""
    parts, blocks = [], []
    for i, s in enumerate(x.summands):
        for h in rep.hom_space(s, a):
            parts.append(i)
            blocks.append(h)
    parts, blocks = minimize_blocks(x, parts, blocks)
    return parts, subcat._side_by_side(blocks, a.dim_list)
