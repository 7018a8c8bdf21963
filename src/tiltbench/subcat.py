"""The additive subcategory add(M) and its approximation calculus.

A SubcategoryX fixes the indecomposable summands of a module M and provides:

* formal objects of add(M) (multisets of summand indices) with their
  realizations as representations;
* cached hom spaces between summands, with block assembly and coordinate
  extraction so composition matrices never solve large systems twice;
* right/left approximations, weak kernels and weak cokernels, and the
  higher kernel/cokernel sequences whose exactness the axiom checkers test,
  the cokernel side run as the kernel side of the opposite subcategory;
* membership ("is this module in add(M)?") with an explicit isomorphism;
* End(M) of the basic module, built once from the cached summand hom
  bases, composed one block triple at a time on demand, and presented on
  its Gabriel quiver with no dense structure constants.

Module-level functions cover the algebra-side homology that does not depend
on X: minimal projective resolutions, Ext groups, the transpose, and the
higher Auslander-Reiten translates built from it.
"""

from __future__ import annotations

import functools
import itertools
import weakref

import numpy as np

from tiltbench import rep
from tiltbench.algebra_ops import AbstractAlgebra
from tiltbench.linalg import PrimeField, held, memo, read_only
from tiltbench.quiver import BoundQuiverAlgebra
from tiltbench.rep import ModuleMorphism, Representation, module_key as _module_key


class DKernelNotLeftExact(Exception):
    """A constructed higher kernel sequence failed exactness under Hom(X, -)."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


class DCokernelNotRightExact(Exception):
    """A constructed higher cokernel sequence failed exactness under Hom(-, X)."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


class ResolutionCapExceeded(Exception):
    """An iterated resolution passed its configured cap while still alive."""


class XObject:
    """A formal direct sum of subcategory summands.  It keeps the algebra
    and the summands, not the subcategory, whose memo keeps it."""

    def __init__(self, algebra: BoundQuiverAlgebra, summands: list[Representation],
                 parts: tuple[int, ...]):
        self.algebra = algebra
        self.summands = summands
        self.parts = tuple(parts)
        # dim Hom(X_z, self) by z, filled by SubcategoryX.hom_dim
        self.hom_dims: list[int | None] = [None] * len(summands)

    @functools.cached_property
    def _realize(self) -> tuple[Representation, list[ModuleMorphism], list[ModuleMorphism]]:
        """The direct sum of the parts with its inclusions and projections."""
        return rep.direct_sum(self.algebra, [self.summands[i] for i in self.parts])

    @functools.cached_property
    def rep(self) -> Representation:
        return self._realize[0]

    @functools.cached_property
    def incls(self) -> list[ModuleMorphism]:
        return self._realize[1]

    @functools.cached_property
    def projs(self) -> list[ModuleMorphism]:
        return self._realize[2]

    @functools.cached_property
    def offsets(self) -> list[list[int]]:
        """offsets[k][v]: where the k-th part starts at vertex v inside the
        realization (k = len(parts) gives the dimensions)."""
        run = [0] * self.algebra.quiver.num_vertices
        offs = [run]
        for i in self.parts:
            run = [a + int(b) for a, b in zip(run, self.summands[i].dims)]
            offs.append(run)
        return offs

    def __repr__(self) -> str:
        return f"XObject{self.parts}"


class XMap:
    """A morphism between realizations of two X-objects."""

    def __init__(self, src: XObject, dst: XObject, mor: ModuleMorphism):
        self.src = src
        self.dst = dst
        self.mor = mor
        self._dual: XMap | None = None  # see SubcategoryX.dual_xmap

    def __repr__(self) -> str:
        return f"XMap({self.src.parts} -> {self.dst.parts})"


def _xmap_key(m: XMap) -> tuple:
    """Content key of a morphism of X-objects: the parts of both ends and
    the entries of each component (the parts fix the shapes)."""
    return (m.src.parts, m.dst.parts, *map(np.ndarray.tobytes, m.mor.maps))


def concat_xmaps_cols(x: "SubcategoryX", blocks: list[XMap], dst: XObject) -> XMap:
    """[b_1 b_2 ...]: sum of sources -> common target."""
    src = x.obj(i for b in blocks for i in b.src.parts)
    return XMap(src, dst, ModuleMorphism._of_reduced(
        src.rep, dst.rep, _side_by_side([b.mor for b in blocks], dst.rep.dim_list)))


def _side_by_side(mors: list[ModuleMorphism], dims: list[int]) -> list[np.ndarray]:
    """The components of mors side by side at each vertex, into a common
    target of dimensions dims; reduced mod p as they are, not again.  Where
    the target is zero the empty block is built from the widths alone."""
    return [np.concatenate([f.maps[v] for f in mors], axis=1) if d and mors
            else np.zeros((d, sum(f.maps[v].shape[1] for f in mors)), dtype=np.int64)
            for v, d in enumerate(dims)]


class SubcategoryX:
    """add(M) for a fixed module M, with cached hom data.

    M is given as a list of parts (by default M itself).  Every part is split
    into indecomposables, and a summand isomorphic to an earlier one is
    dropped, so `summands` lists each indecomposable summand of M once, in
    the order of the parts.  Parts that are already indecomposable and
    pairwise non-isomorphic are kept as the same objects.

    Every operation on the cokernel side (left approximations, weak
    cokernels, epimorphisms, higher cokernels) is its kernel-side twin run
    on `op`, the subcategory add(D M) over the opposite algebra, through
    `dual_xmap`.  The side that built the other holds it; the built side
    holds a weak reference back (`linalg.held`) and builds a new `op` if
    that one is gone.

    Everything it caches lives in one dict, `_memo`, filled through
    `linalg.memo` under keys that start with the name of what they hold:
    the X-objects, the summand hom bases with their stacks and solvers,
    End(M), the morphisms of `axioms.sample_morphisms`, and, keyed by
    content so the sampled checks of one job share them, weak kernels, the
    matrices of Hom(X_z, f), the weak-kernel and mono tests, right
    approximations and embeddings; a module-keyed result is rebuilt to end
    at the caller's module.  Empty Hom(X_z, f) blocks are not memoized:
    they are answered from the hom dimensions dim Hom(X_z, X_parts), which
    each X-object keeps (`hom_dim`), and which also let the tests skip
    every z with Hom(X_z, source) = 0.  Hom between X-objects is read block
    by block from these: its basis is incl_dp o h o proj_sp over the parts
    sp of the source, dp of the target and h in the summand basis, in that
    order, so `obj_post_matrix` is the block diagonal of `post_matrix`
    over the source's parts.  Entries are read-only and point at no
    subcategory, so reference counting frees the memo with its owner.
    """

    def __init__(self, algebra: BoundQuiverAlgebra, module: Representation,
                 summands: list[Representation] | None = None, seed: int = 42):
        parts = [module] if summands is None else summands
        if any(s.is_zero for s in summands or ()):
            raise ValueError("zero summand in a subcategory")
        basic: list[Representation] = []
        for part in parts:
            for leaf in rep.decompose(part, seed):
                if all(rep._unit_witness(s, leaf.rep) is None for s in basic):
                    basic.append(leaf.rep)
        self._setup(algebra, module, basic)

    def _setup(self, algebra: BoundQuiverAlgebra, module: Representation,
               summands: list[Representation]) -> None:
        """Fields and caches over summands already split and deduplicated."""
        self.algebra = algebra
        self.field: PrimeField = algebra.field
        self.module = module
        self.summands = summands
        self._op = None  # op, or a weak reference to it
        self._memo: dict[tuple, object] = {}

    # -- basic structure -------------------------------------------------------

    @property
    def op(self) -> "SubcategoryX":
        o = held(self._op)
        if o is None:
            # the duals of split, pairwise non-isomorphic summands are split
            # and pairwise non-isomorphic
            o = SubcategoryX.__new__(SubcategoryX)
            o._setup(self.algebra.opposite, rep.dualize(self.module),
                     [rep.dualize(s) for s in self.summands])
            o._op, self._op = weakref.ref(self), o
        return o

    def obj(self, parts) -> XObject:
        """The X-object of a parts tuple; one object per tuple, so each is
        realized once."""
        parts = tuple(parts)
        return memo(self._memo, ("obj", parts), XObject, self.algebra, self.summands, parts)

    def zero_obj(self) -> XObject:
        return self.obj(())

    def identity(self, x: XObject) -> XMap:
        return XMap(x, x, rep.identity_morphism(x.rep))

    def hom(self, i: int, j: int) -> list[ModuleMorphism]:
        """Cached hom basis between summands i -> j, its components
        read-only (sampled morphisms share them)."""
        return memo(self._memo, ("hom", i, j), self._hom_basis, i, j)

    def _hom_basis(self, i: int, j: int) -> list[ModuleMorphism]:
        basis = rep.hom_space(self.summands[i], self.summands[j])
        for h in basis:
            read_only(h.maps)
        return basis

    def _hom_stack(self, i: int, j: int) -> list[np.ndarray]:
        """Per vertex v, the components at v of the (i, j) hom basis stacked
        into one (len(basis), dim X_j at v, dim X_i at v) array."""
        return memo(self._memo, ("hom_stack", i, j), self._stack, i, j)

    def _stack(self, i: int, j: int) -> list[np.ndarray]:
        basis = self.hom(i, j)
        return [np.stack([h.maps[v] for h in basis]) for v in range(len(self.summands[i].dims))]

    def endomorphism_algebra(self) -> AbstractAlgebra:
        """Gamma = End(M_1 (+) ... (+) M_n) of the basic module, built once
        from the cached summand hom bases and presented on its Gabriel
        quiver (`algebra_ops.AbstractAlgebra`).  The invariants read off
        downstream (global, dominant, selfinjective dimensions) are Morita
        invariant, so multiplicities in M do not matter.
        """
        return memo(self._memo, ("gamma",), self._endomorphism_algebra)

    def _endomorphism_algebra(self) -> AbstractAlgebra:
        """Gamma from its block sizes dim Hom(M_i, M_j), the coordinates of
        each e_i = id_{M_i} in the (i, i) hom basis, and `_compose`."""
        n, p = len(self.summands), self.field.p
        return AbstractAlgebra(
            self.field, {(i, j): len(self.hom(i, j)) for i in range(n) for j in range(n)},
            [self.hom_solver(i, i)[1] @ rep.identity_morphism(s).flatten() % p
             for i, s in enumerate(self.summands)], self._compose)

    def _compose(self, i: int, j: int, k: int) -> np.ndarray:
        """The products g_a o h_b of the (j, k) and (i, j) hom bases, as an
        array (a, b, coordinates in the (i, k) basis): one product of the
        stacked components per vertex, and one product with the left
        inverse of the (i, k) basis.  Each of the three bases is non-empty."""
        g, h = self._hom_stack(j, k), self._hom_stack(i, j)
        outer, inner = len(g[0]), len(h[0])
        # row (a, b): the flattened components of g_a o h_b
        flats = np.concatenate([np.einsum("axy,byz->abxz", gv, hv).reshape(outer * inner, -1)
                                for gv, hv in zip(g, h)], axis=1) % self.field.p
        return (flats @ self.hom_solver(i, k)[1].T % self.field.p).reshape(outer, inner, -1)

    def hom_solver(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(stacked flats, left inverse) of the (i, j) hom basis; the
        coordinates of any morphism X_i -> X_j are leftinv @ flatten."""
        return memo(self._memo, ("hom_solver", i, j), self._solver, i, j)

    def _solver(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        basis = self.hom(i, j)
        if not basis:
            n = int(np.sum(self.summands[i].dims * self.summands[j].dims))
            return np.zeros((n, 0), dtype=np.int64), np.zeros((0, n), dtype=np.int64)
        stacked = np.stack([h.flatten() for h in basis], axis=1) % self.field.p
        left = self.field.solve_many(stacked.T, np.eye(stacked.shape[1], dtype=np.int64))
        if left is None:
            raise AssertionError("hom basis is not independent")
        return stacked, left.T % self.field.p

    def dual_xmap(self, m: XMap) -> XMap:
        """The same map over the opposite side, endpoints swapped.  Built once
        per map and kept on it, read-only; the dual keeps no link back to m,
        which would make a reference cycle per map."""
        if m._dual is None:
            o = self.op
            src = o.obj(m.dst.parts)
            dst = o.obj(m.src.parts)
            mor = ModuleMorphism._of_reduced(src.rep, dst.rep,
                                             read_only([t.T.copy() for t in m.mor.maps]))
            m._dual = XMap(src, dst, mor)
        return m._dual

    # -- membership ------------------------------------------------------------

    def embed(self, a: Representation) -> tuple[XObject, ModuleMorphism] | None:
        """An X-object with an isomorphism onto a, or None when a is not in
        add(M)."""
        hit = memo(self._memo, ("embed", _module_key(a)), self._embed, a)
        if hit is None:
            return None
        xobj, maps = hit
        return xobj, ModuleMorphism._of_reduced(xobj.rep, a, maps)

    def _embed(self, a: Representation):
        """The minimal right approximation X_a -> a when it is bijective,
        else None (Auslander-Smalo, J. Algebra 1980).

        The approximation is right minimal: were a summand X'' of X_a in
        its kernel, some component c_k: X'' -> X_{i_k} would be an
        isomorphism (Krull-Schmidt), so the block f_k on X_{i_k} would be
        -sum_{l != k} f_l c_l c_k^-1, factoring through the others, and
        `_minimize_blocks` would have dropped it.  When a is in add(M), the
        identity of a is a right approximation too, and two minimal ones
        are isomorphic, so X_a -> a is an isomorphism.  The zero module
        gets the zero object."""
        xobj, ev = self.right_approximation(a)
        return (xobj, ev.maps) if ev.is_isomorphism() else None

    def contains(self, a: Representation) -> bool:
        """Whether a lies in add(M).  With no embedding of a kept here, an
        embedding of D a kept by `op` answers: D a is in add(D M) exactly
        when a is in add(M)."""
        key, o = ("embed", _module_key(a)), held(self._op)
        if key not in self._memo and o is not None:
            hit = o._memo.get(("embed", _module_key(rep.dualize(a))), False)
            if hit is not False:
                return hit is not None
        return self.embed(a) is not None

    # -- hom coordinates for X-objects ------------------------------------------

    def hom_dim(self, z: int, x: XObject) -> int:
        """dim Hom(X_z, x), kept on x from its first use: the sampled tests
        read it for every z, several times, so it is a list lookup there,
        not a memo call."""
        d = x.hom_dims[z]
        if d is None:
            d = x.hom_dims[z] = sum(self._summand_dim(z, i) for i in x.parts)
        return d

    def _summand_dim(self, i: int, j: int) -> int:
        """dim Hom(X_i, X_j), read off the basis of Hom(D X_j, D X_i) when
        only `op` has built that one."""
        basis, o = self._memo.get(("hom", i, j)), held(self._op)
        if basis is None and o is not None:
            basis = o._memo.get(("hom", j, i))
        return len(basis if basis is not None else self.hom(i, j))

    @staticmethod
    def _empty_block(rows: int, cols: int) -> np.ndarray:
        """A read-only rows x cols matrix with no entries (rows or cols is 0)."""
        block = np.zeros((rows, cols), dtype=np.int64)
        block.setflags(write=False)
        return block

    def post_matrix(self, m: XMap, z: int) -> np.ndarray:
        """Matrix of Hom(X_z, m): Hom(X_z, src) -> Hom(X_z, dst).  An empty
        block is answered from the hom dimensions, before the memo."""
        rows, cols = self.hom_dim(z, m.dst), self.hom_dim(z, m.src)
        if not rows or not cols:
            return self._empty_block(rows, cols)
        return memo(self._memo, ("post_matrix", z, _xmap_key(m)), self._post_matrix, m, z)

    def _post_matrix(self, m: XMap, z: int) -> np.ndarray:
        """Hom(X_z, m), assembled block by block from the summand hom
        bases; `obj_post_matrix` of a sum of parts is built from these, its
        one-part case is this matrix itself.  Block (dp, sp) holds
        the coordinates, in the basis of Hom(X_z, X_j), of m_{dp,sp} o h for
        h in the basis of Hom(X_z, X_i), where i and j are the sp-th source
        and dp-th target parts and m_{dp,sp} is m's component between them;
        coordinates in a basis are unique, so the blocks are exact."""
        p = self.field.p
        mat = np.zeros((self.hom_dim(z, m.dst), self.hom_dim(z, m.src)),
                       dtype=np.int64)
        verts = [v for v, d in enumerate(self.summands[z].dims) if d]
        so, do = m.src.offsets, m.dst.offsets
        col = 0
        for sp, i in enumerate(m.src.parts):
            k = self._summand_dim(z, i)
            if not k:
                continue
            stack = self._hom_stack(z, i)
            # per vertex: m's columns of part sp after each basis element
            comps = [np.matmul(m.mor.maps[v][:, so[sp][v]:so[sp + 1][v]], stack[v]) % p
                     for v in verts]
            row = 0
            for dp, j in enumerate(m.dst.parts):
                kj = self._summand_dim(z, j)
                if not kj:
                    continue
                flats = np.concatenate(
                    [c[:, do[dp][v]:do[dp + 1][v], :].reshape(k, -1)
                     for v, c in zip(verts, comps)], axis=1)
                if np.count_nonzero(flats):
                    _, left = self.hom_solver(z, j)
                    mat[row:row + kj, col:col + k] = (left @ flats.T) % p
                row += kj
            col += k
        mat.setflags(write=False)
        return mat

    # -- hom coordinates between two X-objects ----------------------------------

    def obj_dim(self, xa: XObject, xb: XObject) -> int:
        """dim Hom(xa, xb), from the summand dimensions."""
        return sum(self.hom_dim(i, xb) for i in xa.parts)

    def _obj_blocks(self, xa: XObject, xb: XObject):
        """(i, j, dim Hom(X_i, X_j), per-vertex (rows, cols) slices) of each
        non-zero block of Hom(xa, xb), in the order of its basis."""
        so, do = xa.offsets, xb.offsets
        for sp, i in enumerate(xa.parts):
            for dp, j in enumerate(xb.parts):
                k = self._summand_dim(i, j)
                if k:
                    yield i, j, k, [(slice(do[dp][v], do[dp + 1][v]),
                                     slice(so[sp][v], so[sp + 1][v])) for v in range(len(so[0]))]

    def obj_coords(self, xa: XObject, xb: XObject, mor: ModuleMorphism) -> np.ndarray:
        """Coordinates of mor: xa -> xb, block by block the coordinates of
        its components in the summand hom bases."""
        p = self.field.p
        out = [self.hom_solver(i, j)[1] @ np.concatenate([t[s].reshape(-1) for t, s in
                                                          zip(mor.maps, at)]) % p
               for i, j, _, at in self._obj_blocks(xa, xb)]
        return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)

    def obj_from_coords(self, xa: XObject, xb: XObject, coords: np.ndarray) -> ModuleMorphism:
        """The morphism xa -> xb with these coordinates: each component is
        the combination of the summand hom basis that its block gives."""
        p = self.field.p
        coords = np.asarray(coords, dtype=np.int64) % p
        maps = [np.zeros((r, c), dtype=np.int64) if r and c else rep._empty(r, c)
                for r, c in zip(xb.offsets[-1], xa.offsets[-1])]
        pos = 0
        for i, j, k, at in self._obj_blocks(xa, xb):
            c, pos = coords[pos:pos + k], pos + k
            for t, s, st in zip(maps, at, self._hom_stack(i, j)):
                if st.size:
                    t[s] = (c @ st.reshape(k, -1)).reshape(st.shape[1:]) % p
        return ModuleMorphism._of_reduced(xa.rep, xb.rep, maps)

    def obj_pre_matrix(self, m: XMap, xb: XObject) -> np.ndarray:
        """Matrix of Hom(m, xb): Hom(m.dst, xb) -> Hom(m.src, xb); column e
        holds the coordinates of e o m, e in the basis of Hom(m.dst, xb)."""
        cols = [self.obj_coords(m.src, xb, self.obj_from_coords(m.dst, xb, e).compose(m.mor))
                for e in np.eye(self.obj_dim(m.dst, xb), dtype=np.int64)]
        return np.stack(cols, axis=1) if cols else \
            np.zeros((self.obj_dim(m.src, xb), 0), dtype=np.int64)

    def obj_post_matrix(self, m: XMap, xa: XObject) -> np.ndarray:
        """Matrix of Hom(xa, m): Hom(xa, m.src) -> Hom(xa, m.dst), the block
        diagonal of Hom(X_z, m) over the parts z of xa; an empty block is
        answered from the hom dimensions, as post_matrix answers it."""
        shapes = [(self.hom_dim(z, m.dst), self.hom_dim(z, m.src), z) for z in xa.parts]
        return rep.block_diagonal([self.post_matrix(m, z) if r and c else self._empty_block(r, c)
                                   for r, c, z in shapes])

    # -- epis, monos, approximations --------------------------------------------

    def is_epi(self, m: XMap) -> tuple[bool, int | None]:
        """Epimorphism test relative to X: Hom(m, X_z) injective for all z,
        that is, the dual map is mono over `op`.  Returns (ok, witnessing
        summand index)."""
        return self.op.is_mono(self.dual_xmap(m))

    def is_mono(self, m: XMap) -> tuple[bool, int | None]:
        """Monomorphism test relative to X: Hom(X_z, m) injective for all z.
        Returns (ok, witnessing summand index)."""
        return memo(self._memo, ("is_mono", _xmap_key(m)), self._is_mono, m)

    def _is_mono(self, m: XMap) -> tuple[bool, int | None]:
        for z in range(len(self.summands)):
            if not self.hom_dim(z, m.src):
                continue  # a map out of the zero space is injective
            mat = self.post_matrix(m, z)
            # a non-zero space into the zero space is not injective
            if not mat.size or self.field.nullspace(mat).shape[1]:
                return False, z
        return True, None

    def right_approximation(self, a: Representation) -> tuple[XObject, ModuleMorphism]:
        """Evaluation map from a sum of summands hitting every morphism
        X_i -> a, minimal: blocks factoring through the rest are dropped
        greedily."""
        xobj, maps = memo(self._memo, ("right_approximation", _module_key(a)),
                          self._right_approximation, a)
        return xobj, ModuleMorphism._of_reduced(xobj.rep, a, maps)

    def _right_approximation(self, a: Representation):
        parts: list[int] = []
        blocks: list[ModuleMorphism] = []
        for i, s in enumerate(self.summands):
            for h in rep.hom_space(s, a):
                parts.append(i)
                blocks.append(h)
        parts, blocks = self._minimize_blocks(parts, blocks)
        return self.obj(parts), read_only(_side_by_side(blocks, a.dim_list))

    def _minimize_blocks(self, parts: list[int], blocks: list[ModuleMorphism]
                         ) -> tuple[list[int], list[ModuleMorphism]]:
        """Drop, in one forward scan, each block that factors through the
        blocks still kept.  A block kept against a rest set R is kept against
        every later rest set, since those are subsets of R; so one scan ends
        where rescanning until nothing drops would.  The columns b o u, u in
        the basis of Hom(X_i, X_j), are composed once per (summand i of the
        tested block, block b on X_j), one product with `_hom_stack(i, j)`
        per vertex, flattened as `ModuleMorphism.flatten` would, and reused
        at every later position."""
        p = self.field.p
        cols: dict[tuple[int, int], np.ndarray] = {}
        keep = list(range(len(parts)))
        pos = 0
        while pos < len(keep):
            i, rest = parts[keep[pos]], keep[:pos] + keep[pos + 1:]
            for r in rest:
                if (i, r) not in cols:
                    k = len(self.hom(i, parts[r]))
                    flats = [(np.matmul(b, st) % p).reshape(k, -1) for b, st in zip(
                        blocks[r].maps, self._hom_stack(i, parts[r]) if k else ())
                        if b.shape[0] and st.shape[2]]
                    cols[i, r] = (np.concatenate(flats, axis=1) if flats
                                  else np.zeros((k, 0), dtype=np.int64))
            mat = [cols[i, r] for r in rest if len(cols[i, r])]
            block = blocks[keep[pos]]
            drop = block.is_zero if not mat else self.field.solve_many(
                np.concatenate(mat).T, block.flatten().reshape(-1, 1)) is not None
            if drop:
                keep = rest
            else:
                pos += 1
        return [parts[k] for k in keep], [blocks[k] for k in keep]

    def left_approximation(self, a: Representation) -> tuple[XObject, ModuleMorphism]:
        """Coevaluation a -> sum of summands hitting every morphism a -> X_i,
        minimal."""
        xop, ev = self.op.right_approximation(rep.dualize(a))
        xobj = self.obj(xop.parts)
        return xobj, ModuleMorphism._of_reduced(a, xobj.rep, [m.T.copy() for m in ev.maps])

    # -- weak kernels / cokernels ------------------------------------------------

    def weak_kernel(self, m: XMap) -> XMap:
        return memo(self._memo, ("weak_kernel", _xmap_key(m)), self._weak_kernel, m)

    def _weak_kernel(self, m: XMap) -> XMap:
        k, incl = rep.kernel(m.mor)
        xobj, ev = self.right_approximation(k)
        w = incl.compose(ev)
        read_only(w.maps)
        return XMap(xobj, m.src, w)

    def weak_cokernel(self, m: XMap) -> XMap:
        """The dual of the weak kernel of the dual map over `op`."""
        o = self.op
        return o.dual_xmap(o.weak_kernel(self.dual_xmap(m)))

    def is_weak_kernel(self, w: XMap, m: XMap) -> tuple[bool, dict | None]:
        """Is w: W -> src(m) a weak kernel of m? (image of Hom(X, w) equals
        kernel of Hom(X, m) at every summand).  The info dict is the
        caller's own copy."""
        ok, info = memo(self._memo, ("is_weak_kernel", _xmap_key(w), _xmap_key(m)),
                        self._is_weak_kernel, w, m)
        return ok, None if info is None else dict(info)

    def _is_weak_kernel(self, w: XMap, m: XMap) -> tuple[bool, dict | None]:
        if not m.mor.compose(w.mor).is_zero:
            return False, {"reason": "composite-nonzero"}
        for z in range(len(self.summands)):
            if not self.hom_dim(z, m.src):
                continue  # both ranks are 0: Hom(X_z, src m) = 0
            mw = self.post_matrix(w, z)
            mm = self.post_matrix(m, z)
            rank_w = self.field.rank(mw) if mw.size else 0
            null_m = mm.shape[1] - (self.field.rank(mm) if mm.size else 0)
            if rank_w != null_m:
                return False, {"summand": z, "image_rank": rank_w,
                               "kernel_dim": null_m}
        return True, None

    def is_weak_cokernel(self, c: XMap, m: XMap) -> tuple[bool, dict | None]:
        """Is c: dst(m) -> C a weak cokernel of m? (the dual of c is a weak
        kernel of the dual of m over `op`)."""
        return self.op.is_weak_kernel(self.dual_xmap(c), self.dual_xmap(m))

    def weak_kernel_chain(self, m: XMap, length: int) -> list[XMap]:
        chain = [m]
        for _ in range(length):
            chain.append(self.weak_kernel(chain[-1]))
        return chain[1:]

    # -- higher kernels -----------------------------------------------------------

    def d_kernel(self, m: XMap, d: int) -> list[XMap]:
        """Maps (k_1, ..., k_d) with k_1 a weak kernel of m, each next a weak
        kernel of the previous, and k_d the genuine kernel inclusion; the
        full sequence is verified left exact under every Hom(X_z, -).

        Raises DKernelNotLeftExact (carrying the failing summand) when the
        genuine kernel leaves add(M) or exactness fails.
        """
        if d < 1:
            raise ValueError("d must be positive")
        chain: list[XMap] = [m]
        for _ in range(d - 1):
            chain.append(self.weak_kernel(chain[-1]))
        last = chain[-1]
        k, incl = rep.kernel(last.mor)
        emb = self.embed(k)
        if emb is None:
            raise DKernelNotLeftExact(
                "the final kernel is not in add(M)",
                {"kind": "kernel-escapes", "dims": k.dims.tolist(),
                 "after_steps": d - 1})
        xk, iso = emb
        chain.append(XMap(xk, last.src, incl.compose(iso)))
        seq = chain[1:]
        self._verify_left_exact(m, seq)
        return seq

    def _verify_left_exact(self, m: XMap, seq: list[XMap]) -> None:
        maps = [m] + list(seq)  # maps[t]: X_{t+1} -> X_t directionwise
        for z in range(len(self.summands)):
            mats = [self.post_matrix(t, z) for t in maps]
            last = mats[-1]
            if self.field.nullspace(last).shape[1]:
                raise DKernelNotLeftExact(
                    "deepest map is not mono under Hom(X, -)",
                    {"kind": "not-mono", "summand": z, "depth": len(seq)})
            for t in range(len(mats) - 1):
                outer, inner = mats[t], mats[t + 1]
                if ((outer @ inner) % self.field.p).any():
                    raise DKernelNotLeftExact(
                        "consecutive maps do not compose to zero",
                        {"kind": "nonzero-composite", "summand": z, "position": t})
                null_dim = outer.shape[1] - self.field.rank(outer)
                if self.field.rank(inner) != null_dim:
                    raise DKernelNotLeftExact(
                        "homology at an inner term",
                        {"kind": "not-exact", "summand": z, "position": t,
                         "image_rank": int(self.field.rank(inner)),
                         "kernel_dim": int(null_dim)})

    def d_cokernel(self, m: XMap, d: int) -> list[XMap]:
        """Dual of d_kernel: (c_1, ..., c_d) ending in the genuine cokernel,
        verified right exact under every Hom(-, X_z)."""
        try:
            op_seq = self.op.d_kernel(self.dual_xmap(m), d)
        except DKernelNotLeftExact as e:
            raise DCokernelNotRightExact(str(e), e.witness) from None
        return [self.op.dual_xmap(t) for t in op_seq]


# -- algebra-side resolutions, Ext, transpose, translates ----------------------


def _resolution_data(a: Representation) -> dict:
    """Resolution data of a, shared by every module equal to a in content:
    it is kept in the memo of a's algebra, keyed by `_module_key`.
    "parts" and "diffs": the vertices of each P_k and the read-only
    components of each P_{k+1} -> P_k; "syzygy" (`rep.stored`) and "incl":
    the last syzygy and its inclusion's components; "coboundaries": (b's
    _module_key, k) -> (columns, rank) of Hom(d_k, b), filled by ext_dim."""
    return memo(a.algebra._memo, ("resolution", _module_key(a)), lambda: {
        "parts": [], "diffs": [], "coboundaries": {}})


def extend_resolution(a: Representation, length: int) -> dict:
    """Minimal projective resolution data out to P_length."""
    data = _resolution_data(a)
    p = a.field.p
    while len(data["parts"]) <= length:
        k = len(data["parts"])
        term = Representation._of_reduced(a.algebra, *data["syzygy"]) if k else a
        cover, verts = rep.projective_cover(term)
        data["parts"].append(verts)
        ker, incl = rep.kernel(cover)
        if k > 0:
            data["diffs"].append(read_only([(i @ c) % p for i, c in zip(data["incl"], cover.maps)]))
        data["syzygy"], data["incl"] = rep.stored(ker), read_only(incl.maps)
    return data


def _hom_complex_diff(diff: tuple[np.ndarray, ...], parts_hi: list[int],
                      parts_lo: list[int], b: Representation) -> np.ndarray:
    """Matrix of Hom(diff, b): Hom(P_lo, b) -> Hom(P_hi, b), diff: P_hi ->
    P_lo given by its components.  Hom(A e_v, b) = e_v b, so coordinates are
    values at part generators, and block (j, i) is the action on b of the
    element of e_u A e_v (u, v the j-th and i-th parts) that diff sends
    generator j to, read in part i.  Only the generator's vertex u is read,
    and only where b is non-zero at both ends."""
    algebra, p = b.algebra, b.field.p
    dims, blocks = b.dim_list, algebra.blocks
    cols = [0, *itertools.accumulate(dims[v] for v in parts_lo)]
    out = np.zeros((sum(dims[u] for u in parts_hi), cols[-1]), dtype=np.int64)
    if not out.size:
        return out
    acts = rep.path_actions(b)
    r0 = 0
    for j, u in enumerate(parts_hi):
        r1 = r0 + dims[u]
        if r1 > r0:
            # generator j: e_u in part j, the first basis element of the
            # block e_u A e_u, so its column in diff[u] is where part j starts
            x = diff[u][:, sum(len(blocks[w, u]) for w in parts_hi[:j])].tolist()
            local = 0
            for c0, c1, v in zip(cols, cols[1:], parts_lo):
                for act in acts[v][u]:
                    if x[local] and c1 > c0:
                        out[r0:r1, c0:c1] = (out[r0:r1, c0:c1] + x[local] * act) % p
                    local += 1
        r0 = r1
    return out


def ext_dim(a: Representation, b: Representation, i: int) -> int:
    """dim Ext^i(a, b) from a minimal projective resolution of a."""
    if i < 0:
        raise ValueError("negative Ext degree")
    if a.total_dim == 0 or b.total_dim == 0:
        return 0
    if i == 0:
        return len(rep.hom_space(a, b))
    data = extend_resolution(a, i + 1)
    known = data["coboundaries"]
    bkey = _module_key(b)

    def delta(k: int) -> tuple[int, int]:
        # (columns, rank) of Hom(P_k, b) -> Hom(P_{k+1}, b), from the
        # differential P_{k+1} -> P_k; built once per (a, b, k)
        got = known.get((bkey, k))
        if got is None:
            mat = _hom_complex_diff(data["diffs"][k], data["parts"][k + 1],
                                    data["parts"][k], b)
            got = known[bkey, k] = (mat.shape[1], a.field.rank(mat) if mat.size else 0)
        return got

    cols_upper, rank_upper = delta(i)  # C^i -> C^{i+1}
    _, rank_lower = delta(i - 1)       # C^{i-1} -> C^i
    return int(cols_upper - rank_upper - rank_lower)


def _min_presentation(a: Representation):
    data = extend_resolution(a, 1)
    return data["diffs"][0], data["parts"][1], data["parts"][0]


def transpose(a: Representation) -> Representation:
    """Tr a = Cok Hom(d_1, A) over the opposite algebra, for d_1: P_1 -> P_0
    a minimal presentation (Auslander-Reiten-Smalo, Representation theory
    of Artin algebras, IV.1), read by `_hom_complex_diff` as Ext reads its
    complexes.  Hom(A e_v, A) = e_v A is the opposite projective at v: its
    component at w is e_v A e_w, the rows of the regular module at v that
    its summand A e_w holds, put in the opposite's basis order.  Projective
    summands of the input die here, so the result feeds straight into the
    translate."""
    algebra = a.algebra
    op = algebra.opposite
    diff, parts1, parts0 = _min_presentation(a)
    if not parts0:
        return rep.zero_rep(op)
    regular = algebra.regular_module()
    dual = _hom_complex_diff(diff, parts1, parts0, regular)
    at = op._opposite_basis  # at[k]: the index in op of basis element k

    def rows(parts: list[int], w: int) -> list[int]:
        """Where, among the rows of Hom(P, A) for P the sum over parts, the
        components at w of the op projectives sit, in their basis order."""
        out, start = [], 0
        for v in parts:
            lo = start + sum(len(algebra.blocks[u, v]) for u in range(w))
            out += (lo + np.argsort(at[algebra.blocks[w, v]])).tolist()
            start += regular.dim_list[v]
        return out

    maps = [dual[np.ix_(rows(parts1, w), rows(parts0, w))]
            for w in range(algebra.quiver.num_vertices)]
    src, dst = (rep.sum_module(op, [rep.projective(op, v) for v in parts])
                for parts in (parts0, parts1))
    return rep.cokernel(ModuleMorphism._of_reduced(src, dst, maps))[0]


def tau(a: Representation) -> Representation:
    """Auslander-Reiten translate (dual of the transpose)."""
    return rep.dualize(transpose(a))


def tau_inverse(a: Representation) -> Representation:
    return transpose(rep.dualize(a))


def tau_d(a: Representation, d: int) -> Representation:
    """Higher translate: tau after d-1 minimal syzygies."""
    cur = a
    for _ in range(d - 1):
        cur = rep.syzygy(cur)
    return tau(cur)


def tau_d_inverse(a: Representation, d: int) -> Representation:
    cur = a
    for _ in range(d - 1):
        cur = rep.cosyzygy(cur)
    return tau_inverse(cur)
