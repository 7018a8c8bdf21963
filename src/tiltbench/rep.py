"""Finite-dimensional left modules over a basic algebra with a quiver.

A module is stored as a representation of the quiver: one coordinate space
per vertex and one matrix per arrow, with the matrix of an arrow a: v -> w
mapping the space at v into the space at w.  Morphisms are per-vertex
matrices commuting with the arrow action.  Modules over Lambda = kQ/I and
over Gamma = End(M) (on the quiver of `algebra_ops.AbstractAlgebra`) use
the same type and the same code: kernels, cokernels, images, quotients,
direct sums, duals, projectives, radicals, projective covers, injective
envelopes and (co)syzygies read only what every `quiver.Algebra` gives.
The radical of a module is the span of the images of the arrows that
generate the algebra's radical (`Algebra.radical_arrows`: every arrow of
Lambda, Gamma's Gabriel arrows but not its top loops); every cover is
certified surjective with its kernel inside the radical of its source.
A basis element acts on a module as the product of the arrow matrices along
its path (`Algebra.basis_paths`), applied one arrow at a time to the image
of the path's prefix, which paths that share it compute once: a cover lifts
the tops of a module this way, and `path_actions` keeps the whole action
matrices, by module content, for Ext and the transpose.

Everything here is exact arithmetic over the algebra's prime field; kernels,
cokernels and images come back together with the structure maps that witness
them.

The operations are vertex-sparse.  A module's dimension vector is read once
as Python ints (`Representation.dim_list`, and `Quiver.arrow_ends` gives the
arrows' vertex indices), and numpy products, eliminations and their memo
lookups happen only at vertices where the spaces involved are non-zero and
on arrows whose two ends are non-zero.  Every other component is built
directly as the empty, identity or zero int64 array of its shape, equal to
what the dense loop would give, so every result is the same array.  An
array with no entries is one shared read-only copy per shape (`_empty`).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from tiltbench import fitting
from tiltbench.linalg import PrimeField, Rng, memo, read_only
from tiltbench.quiver import Algebra


class Representation:
    def __init__(self, algebra: Algebra, dims, maps, check: bool = False):
        self._set(algebra, np.asarray(dims, dtype=np.int64),
                  [np.asarray(m, dtype=np.int64) % algebra.field.p for m in maps])
        if self.dims.shape != (algebra.quiver.num_vertices,):
            raise ValueError("dims must list one dimension per vertex")
        if len(self.maps) != len(algebra.quiver.arrows):
            raise ValueError("maps must list one matrix per arrow")
        d = self.dim_list
        for a, (s, t), m in zip(algebra.quiver.arrows, algebra.quiver.arrow_ends, self.maps):
            if m.shape != (d[t], d[s]):
                raise ValueError(f"map for arrow {a.name!r} has shape "
                                 f"{m.shape}, wanted {(d[t], d[s])}")
        if check:
            self.check_relations()

    @classmethod
    def _of_reduced(cls, algebra: Algebra, dims, maps) -> "Representation":
        """A module whose arrow matrices are int64 arrays already reduced mod
        p and of the right shapes, taken as they are: no copy, no check."""
        m = cls.__new__(cls)
        m._set(algebra, np.asarray(dims, dtype=np.int64), list(maps))
        return m

    def _set(self, algebra: Algebra, dims: np.ndarray, maps: list[np.ndarray]) -> None:
        self.algebra = algebra
        self.dims = dims
        self.maps = maps
        self.dim_list = dims.tolist()
        self.total_dim = sum(self.dim_list)

    @property
    def field(self) -> PrimeField:
        return self.algebra.field

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def check_relations(self) -> None:
        p = self.field.p
        for terms in self.algebra.relations:
            src = self.algebra.quiver.vertex_index[self.algebra.quiver.arrows[terms[0][1][0]].source]
            tgt = self.algebra.quiver.vertex_index[self.algebra.quiver.arrows[terms[0][1][-1]].target]
            acc = np.zeros((int(self.dims[tgt]), int(self.dims[src])), dtype=np.int64)
            for coeff, arrows in terms:
                m = np.eye(int(self.dims[src]), dtype=np.int64)
                for a in arrows:
                    m = (self.maps[a] @ m) % p
                acc = (acc + coeff * m) % p
            if acc.any():
                raise ValueError("arrow matrices do not satisfy the algebra relations")

    def vertex_slice(self, v: int) -> slice:
        start = sum(self.dim_list[:v])
        return slice(start, start + self.dim_list[v])

    def __repr__(self) -> str:
        return f"Representation(dims={self.dims.tolist()})"


@functools.cache
def _empty(r: int, c: int) -> np.ndarray:
    """The int64 array of shape (r, c), r or c zero: it has no entries, so
    one read-only copy per shape serves every caller."""
    return read_only(np.zeros((r, c), dtype=np.int64))


def stored(m: Representation) -> tuple:
    """The dimensions and arrow matrices of m, made read-only: how an
    algebra's memo keeps a module, which itself would point back at the
    algebra.  `Representation._of_reduced(algebra, *stored(m))` wraps them
    again without a copy."""
    return read_only((m.dims, m.maps))


def module_key(a: Representation) -> tuple:
    """Content key of a module: its dimension vector and arrow matrices."""
    return (a.dims.tobytes(), *map(np.ndarray.tobytes, a.maps))


class ModuleMorphism:
    def __init__(self, source: Representation, target: Representation, maps):
        if source.algebra is not target.algebra:
            raise ValueError("morphism endpoints live over different algebras")
        self.source = source
        self.target = target
        p = source.field.p
        self.maps = [np.asarray(m, dtype=np.int64) % p for m in maps]
        for v, want in enumerate(zip(target.dim_list, source.dim_list)):
            if self.maps[v].shape != want:
                raise ValueError(f"component at vertex {v} has shape {self.maps[v].shape}, wanted {want}")

    @classmethod
    def _of_reduced(cls, source: Representation, target: Representation,
                    maps) -> "ModuleMorphism":
        """A morphism whose components are int64 arrays already reduced mod p
        and of the right shapes, taken as they are: no copy, no check."""
        f = cls.__new__(cls)
        f.source = source
        f.target = target
        f.maps = list(maps)
        return f

    @property
    def is_zero(self) -> bool:
        return not any(m.any() for m in self.maps)

    # compose, scale and add reduce each non-empty component once; an empty
    # one is built as it is
    def compose(self, other: "ModuleMorphism") -> "ModuleMorphism":
        """self after other."""
        if other.target is not self.source and other.target.dim_list != self.source.dim_list:
            raise ValueError("non-composable morphisms")
        p = self.source.field.p
        return ModuleMorphism._of_reduced(other.source, self.target, [
            (a @ b) % p if r and m and c else np.zeros((r, c), dtype=np.int64)
            for a, b, r, m, c in zip(self.maps, other.maps, self.target.dim_list,
                                     self.source.dim_list, other.source.dim_list)])

    def scale(self, c: int) -> "ModuleMorphism":
        p = self.source.field.p
        return ModuleMorphism._of_reduced(self.source, self.target,
                                          [(c * m) % p if m.size else m.copy() for m in self.maps])

    def add(self, other: "ModuleMorphism") -> "ModuleMorphism":
        p = self.source.field.p
        return ModuleMorphism._of_reduced(self.source, self.target, [
            (a + b) % p if a.size else a.copy() for a, b in zip(self.maps, other.maps)])

    def sub(self, other: "ModuleMorphism") -> "ModuleMorphism":
        return self.add(other.scale(-1))

    def total_matrix(self) -> np.ndarray:
        """Block matrix on the stacked coordinates, one block per vertex."""
        m = np.zeros((self.target.total_dim, self.source.total_dim), dtype=np.int64)
        for v in range(len(self.maps)):
            m[self.target.vertex_slice(v), self.source.vertex_slice(v)] = self.maps[v]
        return m

    def flatten(self) -> np.ndarray:
        """All components in one coordinate vector (for hom-space arithmetic)."""
        parts = [m.reshape(-1) for m in self.maps if m.size]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def rank(self) -> int:
        F = self.source.field
        return sum(F.rank(m) for m in self.maps if m.size)

    def is_injective(self) -> bool:
        return self.rank() == self.source.total_dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.total_dim

    def is_isomorphism(self) -> bool:
        return (self.source.total_dim == self.target.total_dim) and self.is_injective()

    def __repr__(self) -> str:
        return f"ModuleMorphism({self.source.dims.tolist()} -> {self.target.dims.tolist()})"


def zero_morphism(source: Representation, target: Representation) -> ModuleMorphism:
    return ModuleMorphism._of_reduced(
        source, target, [np.zeros(rc, dtype=np.int64)
                         for rc in zip(target.dim_list, source.dim_list)])


def identity_morphism(m: Representation) -> ModuleMorphism:
    return ModuleMorphism._of_reduced(m, m, [np.eye(d, dtype=np.int64) for d in m.dim_list])


def invert_morphism(f: ModuleMorphism) -> ModuleMorphism:
    """Inverse of an isomorphism."""
    F = f.source.field
    maps = []
    for v in range(len(f.maps)):
        m = f.maps[v]
        if m.shape[0] != m.shape[1]:
            raise ValueError("morphism is not invertible")
        sol = F.solve_many(m, np.eye(m.shape[0], dtype=np.int64))
        if sol is None:
            raise ValueError("morphism is not invertible")
        maps.append(sol)
    return ModuleMorphism(f.target, f.source, maps)


def morphism_from_flat(source: Representation, target: Representation,
                       flat: np.ndarray) -> ModuleMorphism:
    """The morphism whose flattened components are flat, an int64 vector
    reduced mod p.  The components are copies, so a morphism kept from a
    hom basis does not hold the whole basis."""
    maps = []
    at = 0
    for r, c in zip(target.dim_list, source.dim_list):
        if r and c:
            maps.append(flat[at:at + r * c].reshape(r, c).copy())
            at += r * c
        else:
            maps.append(_empty(r, c))
    return ModuleMorphism._of_reduced(source, target, maps)


def _eye_kron(n: int, a: np.ndarray) -> np.ndarray:
    """np.kron(I_n, a), written as its n diagonal blocks."""
    r, c = a.shape
    out = np.zeros((n, r, n, c), dtype=np.int64)
    idx = np.arange(n)
    out[idx, :, idx, :] = a
    return out.reshape(n * r, n * c)


def _kron_eye(b: np.ndarray, n: int) -> np.ndarray:
    """np.kron(b, I_n), each entry of b written down an n x n diagonal."""
    r, c = b.shape
    out = np.zeros((r, n, c, n), dtype=np.int64)
    idx = np.arange(n)
    out[:, idx, :, idx] = b
    return out.reshape(r * n, c * n)


def hom_space(a: Representation, b: Representation) -> list[ModuleMorphism]:
    """Basis of the space of module morphisms a -> b.  The unknowns are the
    entries of the components at the vertices where a and b are both
    non-zero; an arrow gives equations only where b at its target and a at
    its source are non-zero, and fills only its non-empty Kronecker
    slices."""
    F = a.field
    ad, bd = a.dim_list, b.dim_list
    sizes = [x * y for x, y in zip(bd, ad)]
    unknowns = sum(sizes)
    if unknowns == 0:
        return []
    starts = [0, *itertools.accumulate(sizes)]
    rows = []
    for i, (s, t) in enumerate(a.algebra.quiver.arrow_ends):
        n_eq = bd[t] * ad[s]
        if n_eq == 0:
            continue
        block = np.zeros((n_eq, unknowns), dtype=np.int64)
        # F_t @ a_maps[i] contributes (I (x) a_maps[i]^T) acting on vec(F_t)
        if sizes[t]:
            block[:, starts[t]:starts[t + 1]] = _eye_kron(bd[t], a.maps[i].T)
        # b_maps[i] @ F_s contributes (b_maps[i] (x) I) acting on vec(F_s)
        if sizes[s]:
            block[:, starts[s]:starts[s + 1]] = (block[:, starts[s]:starts[s + 1]]
                                                 - _kron_eye(b.maps[i], ad[s])) % F.p
        rows.append(block)
    if rows:
        basis = F.nullspace(np.concatenate(rows) if len(rows) > 1 else rows[0])
    else:
        basis = np.eye(unknowns, dtype=np.int64)
    out = []
    for k in range(basis.shape[1]):
        out.append(morphism_from_flat(a, b, basis[:, k]))
    return out


def kernel(f: ModuleMorphism) -> tuple[Representation, ModuleMorphism]:
    """Kernel subrepresentation with its inclusion.  Eliminates only where
    the source and target of f are both non-zero."""
    F = f.source.field
    bases = [F.nullspace(m) if r and c else np.eye(c, dtype=np.int64)
             for m, r, c in zip(f.maps, f.target.dim_list, f.source.dim_list)]
    k = _subrepresentation(f.source, bases, "kernel")
    return k, ModuleMorphism._of_reduced(k, f.source, bases)


def _subrepresentation(m: Representation, bases: list[np.ndarray],
                       what: str) -> Representation:
    """The subrepresentation of m spanned by per-vertex column bases, each
    of full column rank.  Its arrow matrices are solved only between
    non-zero subspaces; an arrow from a non-zero subspace into a zero one
    is checked to send it to zero."""
    F = m.field
    dims = [b.shape[1] for b in bases]
    maps = []
    for a, (s, t) in zip(m.maps, m.algebra.quiver.arrow_ends):
        if dims[s] and dims[t]:
            sol = F.solve_many(bases[t], (a @ bases[s]) % F.p)
        elif dims[s] and m.dim_list[t] and ((a @ bases[s]) % F.p).any():
            sol = None
        else:
            sol = _empty(dims[t], dims[s])
        if sol is None:
            raise AssertionError(f"{what} subspace is not arrow-stable")
        maps.append(sol)
    return Representation._of_reduced(m.algebra, dims, maps)


def image(f: ModuleMorphism) -> tuple[Representation, ModuleMorphism, ModuleMorphism]:
    """Image subrepresentation, its inclusion into the target, and the
    epimorphism from the source onto it (inclusion o epi == f)."""
    F = f.source.field
    bases = [F.column_reduce(m) if r and c else _empty(r, 0)
             for m, r, c in zip(f.maps, f.target.dim_list, f.source.dim_list)]
    img = _subrepresentation(f.target, bases, "image")
    incl = ModuleMorphism._of_reduced(img, f.target, bases)
    epi_maps = []
    for b, m in zip(bases, f.maps):
        # an image of dimension zero comes from a zero component
        sol = F.solve_many(b, m) if b.shape[1] else _empty(0, m.shape[1])
        if sol is None:
            raise AssertionError("factoring through the image failed")
        epi_maps.append(sol)
    epi = ModuleMorphism._of_reduced(f.source, img, epi_maps)
    return img, incl, epi


def quotient(m: Representation, subspaces: list[np.ndarray]
             ) -> tuple[Representation, ModuleMorphism]:
    """Quotient by an arrow-stable subspace, given by per-vertex column
    bases, with the projection onto it."""
    F = m.field
    projs, reps = zip(*(F.quotient_projection(sub, d) if sub.size
                        else (np.eye(d, dtype=np.int64),) * 2
                        for sub, d in zip(subspaces, m.dim_list)))
    dims = [p.shape[0] for p in projs]
    maps = [(projs[t] @ a @ reps[s]) % F.p if dims[s] and dims[t]
            else _empty(dims[t], dims[s])
            for a, (s, t) in zip(m.maps, m.algebra.quiver.arrow_ends)]
    q = Representation._of_reduced(m.algebra, dims, maps)
    return q, ModuleMorphism._of_reduced(m, q, projs)


def cokernel(f: ModuleMorphism) -> tuple[Representation, ModuleMorphism]:
    """Cokernel with the projection from the target."""
    F = f.source.field
    return quotient(f.target, [F.column_reduce(mv) if mv.size else _empty(mv.shape[0], 0)
                               for mv in f.maps])


def block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    """One matrix with the given blocks down its diagonal, in order."""
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)),
                   dtype=np.int64)
    r = c = 0
    for b in blocks:
        if b.size:
            out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def sum_module(algebra: Algebra, parts: list[Representation]) -> Representation:
    """The direct sum module alone, arrow matrices block diagonal in the
    order of parts."""
    dims = [sum(col) for col in zip(*(m.dim_list for m in parts))] \
        or [0] * algebra.quiver.num_vertices
    return Representation._of_reduced(algebra, dims, [
        block_diagonal([m.maps[i] for m in parts]) if dims[s] and dims[t]
        else _empty(dims[t], dims[s])
        for i, (s, t) in enumerate(algebra.quiver.arrow_ends)])


def direct_sum(algebra: Algebra, parts: list[Representation]
               ) -> tuple[Representation, list[ModuleMorphism], list[ModuleMorphism]]:
    """Direct sum with inclusions and projections: an identity block goes
    only where a part has dimension, and each projection is the transpose
    of its inclusion."""
    total = sum_module(algebra, parts)
    dims = total.dim_list
    incls, projs = [], []
    row_off = [0] * len(dims)
    for m in parts:
        inc = []
        for v, (n, d) in enumerate(zip(dims, m.dim_list)):
            if d:
                c = np.zeros((n, d), dtype=np.int64)
                o = row_off[v]
                c[o:o + d] = np.eye(d, dtype=np.int64)
                row_off[v] = o + d
            else:
                c = _empty(n, 0)
            inc.append(c)
        incls.append(ModuleMorphism._of_reduced(m, total, inc))
        projs.append(ModuleMorphism._of_reduced(total, m, [c.T for c in inc]))
    return total, incls, projs


def zero_rep(algebra: Algebra) -> Representation:
    zero = np.zeros((0, 0), dtype=np.int64)
    return Representation._of_reduced(algebra, [0] * algebra.quiver.num_vertices,
                                      [zero] * len(algebra.quiver.arrows))


def simple(algebra: Algebra, v: int) -> Representation:
    dims = [int(w == v) for w in range(algebra.quiver.num_vertices)]
    return Representation._of_reduced(algebra, dims, [
        _empty(dims[t], dims[s]) for s, t in algebra.quiver.arrow_ends])


def projective(algebra: Algebra, v: int) -> Representation:
    """The indecomposable projective A e_v: the space at w is e_w A e_v, with
    basis `algebra.blocks[v, w]`, and an arrow acts by left multiplication
    by its basis element.  Built once per (algebra, vertex) and kept in the
    algebra's memo, its arrow matrices read-only."""
    return Representation._of_reduced(
        algebra, *memo(algebra._memo, ("projective", v), _projective, algebra, v))


def _projective(algebra: Algebra, v: int) -> tuple:
    rows = [algebra.blocks[v, w] for w in range(algebra.quiver.num_vertices)]
    maps = [algebra.table[k][np.ix_(rows[s], rows[t])].T
            for k, (s, t) in zip(algebra.arrow_basis, algebra.quiver.arrow_ends)]
    return read_only((np.array([len(r) for r in rows], dtype=np.int64), maps))


def dualize(m: Representation) -> Representation:
    """The vector-space dual as a module over the opposite algebra."""
    op = m.algebra.opposite
    maps = [m.maps[i].T.copy() for i in range(len(m.maps))]
    return Representation._of_reduced(op, m.dims.copy(), maps)


def dualize_morphism(f: ModuleMorphism) -> ModuleMorphism:
    """Dual morphism D(target) -> D(source) over the opposite algebra."""
    return ModuleMorphism._of_reduced(dualize(f.target), dualize(f.source),
                                      [mm.T.copy() for mm in f.maps])


def injective(algebra: Algebra, v: int) -> Representation:
    """Indecomposable injective at a vertex, as the dual of the opposite
    projective."""
    return dualize(projective(algebra.opposite, v))


def path_actions(m: Representation) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per vertices i and j, the basis elements of e_j A e_i acting on m,
    stacked into an array of shape (block size, dim of m at j, dim of m at
    i): `_path_images` of the identity at each i, for the Hom complexes of
    Ext and the transpose (`subcat._hom_complex_diff`).  Kept in the
    algebra's memo by m's content, read-only."""
    return memo(m.algebra._memo, ("path_actions", module_key(m)), lambda: read_only([
        _path_images(m, i, np.eye(d, dtype=np.int64)) for i, d in enumerate(m.dim_list)]))


def _path_images(m: Representation, i: int, u: np.ndarray) -> list[np.ndarray]:
    """Per vertex j, the images of the columns u of m at vertex i under the
    basis elements of e_j A e_i (`Algebra.basis_paths`), stacked into an
    array of shape (block size, dim of m at j, columns of u).  A path's
    image is its last arrow's matrix times the image of the path without
    that arrow, kept by arrow tuple, so a prefix that paths share is
    multiplied once, whether or not it is a basis element."""
    alg, maps, p = m.algebra, m.maps, m.field.p
    seen = {(): u}

    def image(arrows: tuple) -> np.ndarray:
        got = seen.get(arrows)
        if got is None:
            got = seen[arrows] = maps[arrows[-1]] @ image(arrows[:-1]) % p
        return got

    # with no entries in u every image is empty: no product is taken
    return [np.array([image(alg.basis_paths[k][1]) for k in alg.blocks[i, j]] if u.size else [],
                     dtype=np.int64).reshape(len(alg.blocks[i, j]), d, u.shape[1])
            for j, d in enumerate(m.dim_list)]


def radical_subspaces(m: Representation) -> list[np.ndarray]:
    """Per-vertex bases of rad(A)*m, column reduced, so the basis depends
    only on the subspace: the span of the images of
    `Algebra.radical_arrows`.  Their paths span rad A, rad A = V + V^2 + ...
    for V their span, so rad(A)*m is V m."""
    F = m.field
    alg = m.algebra
    cols: list[list[np.ndarray]] = [[] for _ in m.dims]
    for a in alg.radical_arrows:
        if m.maps[a].size:
            cols[alg.quiver.arrow_ends[a][1]].append(m.maps[a])
    return [F.column_reduce(np.concatenate(c, axis=1)) if c
            else np.zeros((int(d), 0), dtype=np.int64) for c, d in zip(cols, m.dims)]


def projective_cover(m: Representation) -> tuple[ModuleMorphism, list[int]]:
    """Minimal projective cover P -> m, with the vertices of the
    indecomposable summands A e_i of P, in order.

    Vertex by vertex, each coset representative u of top(m) at i
    (`PrimeField.quotient_projection` of the radical) not yet covered
    becomes a generator A e_i -> m, a |-> a*u, adding one copy of the
    simple top at i; its images a*u are read off `_path_images` of all the
    representatives at i; u can be covered already only where that simple's
    endomorphism field is larger than F_p.  Certified surjective, with its
    kernel inside rad P, block diagonal in `Algebra.leaf_radicals`; so
    every syzygy taken through here is minimal.  Kept in the algebra's
    memo by m's content and rebuilt to end at the caller's m.
    """
    dims, source_maps, maps, verts = memo(m.algebra._memo, ("cover", module_key(m)),
                                          _projective_cover, m)
    source = Representation._of_reduced(m.algebra, dims, source_maps)
    return ModuleMorphism._of_reduced(source, m, maps), list(verts)


def _projective_cover(m: Representation):
    alg = m.algebra
    F = alg.field
    nv = len(m.dims)
    rad = radical_subspaces(m)
    picked: list[int] = []
    cols: list[list[np.ndarray]] = [[] for _ in m.dims]
    for i in range(nv):
        d = m.dim_list[i]
        reps = F.quotient_projection(rad[i], d)[1] if rad[i].size else np.eye(d, dtype=np.int64)
        images = _path_images(m, i, reps) if reps.shape[1] else []
        covered = rad[i]
        for n in range(reps.shape[1]):
            if n and F.column_space_contains(covered, reps[:, n:n + 1]):
                continue
            lifts = [img[:, :, n].T for img in images]
            for j in range(nv):
                cols[j].append(lifts[j])
            picked.append(i)
            if n + 1 < reps.shape[1]:
                covered = F.column_reduce(np.concatenate([covered, lifts[i]], axis=1))
    leaves, leaf_rads = alg.projective_leaves(), alg.leaf_radicals()
    source = sum_module(alg, [leaves[i] for i in picked])
    cover = ModuleMorphism._of_reduced(source, m, [
        np.concatenate(c, axis=1) if c else np.zeros((int(d), 0), dtype=np.int64)
        for c, d in zip(cols, m.dims)])
    if not cover.is_surjective():
        raise AssertionError("projective cover is not surjective")
    for v, f in enumerate(cover.maps):
        ker = F.nullspace(f) if f.size else np.eye(f.shape[1], dtype=np.int64)
        if ker.shape[1] and not F.column_space_contains(
                block_diagonal([leaf_rads[i][v] for i in picked]), ker):
            raise AssertionError("projective cover kernel escapes the radical")
    return read_only((source.dims, source.maps, cover.maps, picked))


def injective_envelope(m: Representation) -> tuple[ModuleMorphism, list[int]]:
    """Injective envelope m -> I, the dual of the projective cover of the
    dual module, with the vertex list of the indecomposable injective
    summands of I."""
    cover, verts = projective_cover(dualize(m))
    # D(D m) is m on the nose: transposing twice
    return ModuleMorphism._of_reduced(m, dualize(cover.source),
                                      [f.T for f in cover.maps]), verts


def syzygy(m: Representation) -> Representation:
    """Kernel of the projective cover (minimal first syzygy)."""
    return kernel(projective_cover(m)[0])[0]


def cosyzygy(m: Representation) -> Representation:
    """Cokernel of the injective envelope (minimal first cosyzygy)."""
    return cokernel(injective_envelope(m)[0])[0]


# -- splitting into indecomposables ------------------------------------------


class Leaf:
    """One indecomposable summand with the maps realizing the splitting."""

    def __init__(self, rep: Representation, incl: ModuleMorphism, proj: ModuleMorphism):
        self.rep = rep
        self.incl = incl
        self.proj = proj


def _split_by_idempotent(m: Representation, e: ModuleMorphism
                         ) -> tuple[Leaf, Leaf]:
    F = m.field
    img, incl_i, _ = image(e)
    ker, incl_k = kernel(e)
    proj_i_maps, proj_k_maps = [], []
    for v in range(len(m.dims)):
        glue = np.concatenate([incl_i.maps[v], incl_k.maps[v]], axis=1) % F.p
        if glue.shape[0] != glue.shape[1]:
            raise AssertionError("idempotent image/kernel do not decompose the space")
        inv = F.solve_many(glue, np.eye(glue.shape[0], dtype=np.int64))
        if inv is None:
            raise AssertionError("idempotent image/kernel do not decompose the space")
        di = img.dims[v]
        proj_i_maps.append(inv[:di])
        proj_k_maps.append(inv[di:])
    return (Leaf(img, incl_i, ModuleMorphism(m, img, proj_i_maps)),
            Leaf(ker, incl_k, ModuleMorphism(m, ker, proj_k_maps)))


def decompose(m: Representation, seed: int = 0) -> list[Leaf]:
    """Split into indecomposable summands, each certified by a local
    endomorphism ring (or an endomorphism ring of dimension one).

    Raises fitting.RadicalPreconditionViolated when the field is too small
    for the semisimple-quotient computation on some endomorphism ring.
    """
    if m.is_zero:
        return []
    ends = hom_space(m, m)
    if len(ends) == 1:
        ident = identity_morphism(m)
        return [Leaf(m, ident, ident)]
    mats = [f.total_matrix() for f in ends]
    rng = Rng(seed)
    e_flat = fitting.find_splitting_idempotent(m.field, mats, rng)
    if e_flat is None:
        ident = identity_morphism(m)
        return [Leaf(m, ident, ident)]
    e = ModuleMorphism(m, m, [e_flat[m.vertex_slice(v), m.vertex_slice(v)]
                              for v in range(len(m.dims))])
    half_a, half_b = _split_by_idempotent(m, e)
    out = []
    for half, sub_seed in ((half_a, seed * 2 + 1), (half_b, seed * 2 + 2)):
        for leaf in decompose(half.rep, sub_seed):
            out.append(Leaf(leaf.rep,
                            half.incl.compose(leaf.incl),
                            leaf.proj.compose(half.proj)))
    return out


def _unit_witness(a: Representation, b: Representation) -> ModuleMorphism | None:
    """For a and b indecomposable: the first bijective element of the hom
    basis a -> b, an isomorphism, or None when a and b are not isomorphic.

    Complete because End(a) is local: if u: a -> b is an isomorphism, the
    non-isomorphisms a -> b are u o rad End(a), a proper subspace of
    Hom(a, b), and no basis lies inside a proper subspace.
    """
    if a.dim_list != b.dim_list:
        return None
    return next((f for f in hom_space(a, b) if f.is_isomorphism()), None)


def is_isomorphic(a: Representation, b: Representation, seed: int = 0,
                  with_map: bool = False):
    """Module isomorphism test (and witness).

    A bijective morphism a -> b settles it at once: first each hom-basis
    element is tried, then one combination of the basis with coefficients
    drawn from `linalg.Rng(seed)`, which catches sums whose basis holds no
    bijection (a basis of idempotents and nilpotents).  When neither is
    bijective, the answer comes from matching indecomposable summands
    (`_is_isomorphic_by_matching`), which is complete.
    """
    if a.dims.tolist() == b.dims.tolist():
        basis = hom_space(a, b)
        for f in basis:
            if f.is_isomorphism():
                return (True, f) if with_map else True
        if len(basis) > 1:
            coeffs = Rng(seed).integers(0, a.field.p, size=len(basis)).tolist()
            f = ModuleMorphism._of_reduced(a, b, [
                sum(c * g.maps[v] for c, g in zip(coeffs, basis)) % a.field.p
                for v in range(len(a.dims))])
            if f.is_isomorphism():
                return (True, f) if with_map else True
    return _is_isomorphic_by_matching(a, b, seed, with_map)


def _is_isomorphic_by_matching(a: Representation, b: Representation, seed: int = 0,
                               with_map: bool = False):
    """Isomorphism test (and witness) by decomposing both modules and
    pairing their indecomposable summands."""
    if a.dims.tolist() != b.dims.tolist():
        return (False, None) if with_map else False
    if a.total_dim == 0:
        z = zero_morphism(a, b)
        return (True, z) if with_map else True
    la = decompose(a, seed)
    lb = decompose(b, seed + 1)
    used = [False] * len(lb)
    pieces: list[tuple[Leaf, Leaf, ModuleMorphism]] = []
    for leaf in la:
        found = False
        for j, cand in enumerate(lb):
            if used[j]:
                continue
            w = _unit_witness(leaf.rep, cand.rep)
            if w is not None:
                used[j] = True
                pieces.append((leaf, cand, w))
                found = True
                break
        if not found:
            return (False, None) if with_map else False
    if not with_map:
        return True
    total = zero_morphism(a, b)
    for leaf, cand, w in pieces:
        total = total.add(cand.incl.compose(w).compose(leaf.proj))
    if not total.is_isomorphism():
        raise AssertionError("assembled matching failed to be an isomorphism")
    return True, total
