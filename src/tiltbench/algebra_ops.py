"""Homological invariants of Gamma = End(M), with exact certificates: the
radical, and the projective, injective, global, dominant and selfinjective
dimensions.

Gamma is assembled from the hom blocks between the pairwise non-isomorphic
indecomposable summands M_i of M, so it comes with its idempotents
e_i = id_{M_i}, and each basis element lies in one block
e_j Gamma e_i = Hom(M_i, M_j).  A Gamma-module N is then a representation of
the block quiver, with the space e_i N at vertex i and one arrow i -> j per
basis element of e_j Gamma e_i (the Peirce decomposition; Assem-Simson-
Skowronski, Elements vol. 1, ch. I-III).  Gamma is a `quiver.Algebra` like
Lambda, with the same opposite (the transposed table), so Gamma-modules are
plain `rep.Representation`s, and their projective covers, injective
envelopes and (co)syzygies are rep's, the same code as over Lambda.  What
stays Gamma's own is its radical: read block by block and certified
nilpotent, independent of Lambda's, which its arrows generate.  Every cover
is certified surjective with its kernel inside the radical, on either
algebra.

Resolution-length answers come back as DimBound values: exact, "at least n"
(a resolution passed the configured cap while still alive), or infinite (a
coresolution closed up, which certifies infinity rather than guessing it).
"""

from __future__ import annotations

import functools

import numpy as np

from tiltbench import fitting, rep
from tiltbench.linalg import PrimeField, held, memo
from tiltbench.quiver import Algebra, Quiver
from tiltbench.rep import Representation


class DimBound:
    """An exact, lower-bounded, or infinite homological dimension."""

    def __init__(self, kind: str, value: int | None):
        if kind not in ("exact", "at_least", "infinite"):
            raise ValueError(f"bad DimBound kind {kind!r}")
        self.kind = kind
        self.value = value

    @classmethod
    def exact(cls, n: int) -> "DimBound":
        return cls("exact", n)

    @classmethod
    def at_least(cls, n: int) -> "DimBound":
        return cls("at_least", n)

    @classmethod
    def infinite(cls) -> "DimBound":
        return cls("infinite", None)

    def ge(self, n: int) -> bool:
        """True when the dimension is certainly >= n."""
        return self.kind == "infinite" or self.value >= n

    def le(self, n: int) -> bool:
        """True/False when decidable; raises if the cap hid the answer."""
        if self.kind == "infinite":
            return False
        assert self.value is not None
        if self.kind == "exact":
            return self.value <= n
        if self.value > n:
            return False
        raise ValueError(f"cannot decide <= {n} from a lower bound of {self.value}; "
                         "raise the resolution cap")

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.kind == "exact" and self.value == other
        if isinstance(other, DimBound):
            return self.kind == other.kind and self.value == other.value
        return NotImplemented

    def __str__(self) -> str:
        if self.kind == "infinite":
            return "inf"
        if self.kind == "at_least":
            return f">= {self.value}"
        return str(self.value)

    def __repr__(self) -> str:
        return f"DimBound({self})"

    def to_json(self):
        return {"kind": self.kind, "value": self.value}


class AbstractAlgebra(Algebra):
    """Basic associative unital algebra from structure constants, with its
    block quiver.

    idempotents is a complete set of primitive orthogonal idempotents e_i
    (coordinate vectors summing to the unit) whose projectives A*e_i are
    pairwise non-isomorphic.  Every basis element must lie in a single block
    e_j A e_i (ValueError otherwise); it becomes the arrow i -> j of
    `quiver`, named b<k> for basis element k, and `blocks[i, j]` lists the
    basis elements of that block.  The opposite keeps the basis and the
    idempotents.
    """

    def __init__(self, field: PrimeField, table: np.ndarray, unit: np.ndarray,
                 idempotents: list[np.ndarray]):
        table = np.asarray(table, dtype=np.int64) % field.p
        dim = table.shape[0]
        if table.shape != (dim, dim, dim):
            raise ValueError("structure constants must be a cube")
        unit = np.asarray(unit, dtype=np.int64) % field.p
        self.idempotents = [np.asarray(e, dtype=np.int64) % field.p for e in idempotents]
        n = len(self.idempotents)
        ids = np.stack(self.idempotents)
        # right[i, k] = b_k * e_i and left[j, k] = e_j * b_k, as coordinates
        right = np.einsum("ib,kbc->ikc", ids, table) % field.p
        left = np.einsum("ja,akc->jkc", ids, table) % field.p
        # e_i * e_j = sum_k (e_j)_k (e_i * b_k), which is e_i when i = j, else 0
        products = np.einsum("jk,ikc->ijc", ids, left) % field.p
        if not np.array_equal(products, np.eye(n, dtype=np.int64)[:, :, None] * ids):
            raise ValueError("idempotents are not orthogonal")
        if not np.array_equal(sum(self.idempotents) % field.p, unit):
            raise ValueError("idempotents do not sum to the unit")
        # in_source[i, k]: b_k * e_i = b_k; in_target[j, k]: e_j * b_k = b_k
        eye = np.eye(dim, dtype=np.int64)
        in_source = (right == eye).all(axis=2)
        in_target = (left == eye).all(axis=2)
        blocks: dict[tuple[int, int], list[int]] = {(i, j): [] for i in range(n) for j in range(n)}
        arrows = []
        for k in range(dim):
            src, dst = np.flatnonzero(in_source[:, k]), np.flatnonzero(in_target[:, k])
            if len(src) != 1 or len(dst) != 1:
                raise ValueError(f"basis element {k} lies in no single block e_j A e_i")
            blocks[int(src[0]), int(dst[0])].append(k)
            arrows.append((f"b{k}", str(src[0]), str(dst[0])))
        super().__init__(field, Quiver([str(i) for i in range(n)], arrows), table, unit,
                         blocks, list(range(dim)))

    def _reverse_into(self, op: "AbstractAlgebra") -> list[int]:
        op.idempotents = self.idempotents
        return list(range(self.dim))

    @functools.cached_property
    def basis_paths(self) -> list[tuple[int, tuple[int, ...]]]:
        """Basis element k as the one-arrow path b<k> from its source."""
        return [(self.quiver.vertex_index[a.source], (k,))
                for k, a in enumerate(self.quiver.arrows)]

    def radical_generators(self) -> dict[tuple[int, int], np.ndarray]:
        """The whole radical, `radical_blocks`: every basis element is an
        arrow of the block quiver, radical or not."""
        return self.radical_blocks()

    def radical_blocks(self) -> dict[tuple[int, int], np.ndarray]:
        """rad A block by block: for each (i, j), a column basis, in the
        coordinates of blocks[i, j], of rad A meet e_j A e_i.

        A map between non-isomorphic indecomposables is radical, so every
        off-diagonal block lies in rad A; a diagonal block contributes
        rad End(M_i), from the trace form of that block alone.  The assembled
        ideal is certified nilpotent.  The opposite algebra has the same
        radical, with each block's ends swapped.
        """
        return memo(self._memo, ("radical",), self._radical_blocks)

    def _radical_blocks(self) -> dict[tuple[int, int], np.ndarray]:
        op = held(self._opposite)
        if op is not None and ("radical",) in op._memo:
            return {(j, i): r for (i, j), r in op._memo["radical",].items()}
        F = self.field
        rad: dict[tuple[int, int], np.ndarray] = {}
        cols = []
        for (i, j), idx in self.blocks.items():
            if i != j:
                rad[i, j] = np.eye(len(idx), dtype=np.int64)
            else:
                rad[i, j] = fitting.radical_from_table(
                    F, self.table[np.ix_(idx, idx, idx)], self.idempotents[i][idx])
            full = np.zeros((self.dim, rad[i, j].shape[1]), dtype=np.int64)
            full[idx] = rad[i, j]
            cols.append(full)
        fitting.certify_nilpotent(F, self.table, np.concatenate(cols, axis=1))
        return rad


def is_projective(m: Representation) -> bool:
    """dim m against the dimension of its projective cover, the sum over i
    of dim Gamma e_i times the multiplicity of its simple top in top(m)."""
    alg = m.algebra
    rad = rep.radical_subspaces(m)
    cover_dim = 0
    for i, (leaf, leaf_rad) in enumerate(zip(alg.projective_leaves(), alg.leaf_radicals())):
        top_m = int(m.dims[i]) - rad[i].shape[1]
        top_leaf = int(leaf.dims[i]) - leaf_rad[i].shape[1]
        cover_dim += top_m // top_leaf * leaf.total_dim
    return cover_dim == m.total_dim


def _resolution_length(m: Representation, step, cap: int) -> DimBound:
    """Steps until the module vanishes, less one; -1 for the zero module."""
    count = -1
    while not m.is_zero:
        count += 1
        if count > cap:
            return DimBound.at_least(cap + 1)
        m = step(m)
    return DimBound.exact(count)


def projective_dimension(m: Representation, cap: int = 20) -> DimBound:
    return _resolution_length(m, rep.syzygy, cap)


def injective_dimension(m: Representation, cap: int = 20) -> DimBound:
    return _resolution_length(m, rep.cosyzygy, cap)


def _once_per_algebra(fn):
    """Keep fn(alg, cap) in the algebra's memo, keyed by (function, cap)."""
    @functools.wraps(fn)
    def cached(alg: AbstractAlgebra, cap: int = 20):
        return memo(alg._memo, (fn.__name__, cap), fn, alg, cap)
    return cached


@_once_per_algebra
def global_dimension(alg: AbstractAlgebra, cap: int = 20) -> DimBound:
    pds = [projective_dimension(s, cap) for s in alg.simples()]
    top_val = max(pd.value for pd in pds)
    if any(pd.kind == "at_least" for pd in pds):
        return DimBound.at_least(max(top_val, cap + 1))
    return DimBound.exact(top_val)


@_once_per_algebra
def dominant_dimension(alg: AbstractAlgebra, cap: int = 20) -> DimBound:
    """Length of the initial projective segment of the minimal injective
    coresolution of the regular module (infinite when the coresolution
    closes up while still projective)."""
    cur = alg.regular_module()
    count = 0
    while True:
        if count > cap:
            return DimBound.at_least(cap + 1)
        if cur.is_zero:
            return DimBound.infinite()
        env = rep.injective_envelope(cur)[0]
        if not is_projective(env.target):
            return DimBound.exact(count)
        cur = rep.cokernel(env)[0]
        count += 1


@_once_per_algebra
def selfinjective_dimensions(alg: AbstractAlgebra, cap: int = 20) -> tuple[DimBound, DimBound]:
    """Injective dimension of the regular module on each side."""
    left = injective_dimension(alg.regular_module(), cap)
    right = injective_dimension(alg.opposite.regular_module(), cap)
    return left, right
