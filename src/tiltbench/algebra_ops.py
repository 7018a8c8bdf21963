"""Homological invariants of a basic finite-dimensional algebra given by
structure constants and its primitive idempotents: radical, projectives,
simples, projective covers, syzygies, and the global, dominant, and
selfinjective dimensions, all with exact certificates.

The algebra here is typically End(M) assembled from the hom blocks between
the indecomposable summands of M, so the idempotents e_i = id_{M_i} come
with it and nothing assumes a quiver presentation.  The projectives are the
left ideals A*e_i, the simples their tops, and a projective cover takes one
copy of A*e_i per generator it needs.  Modules are plain coordinate spaces
with one action matrix per algebra basis element.

Resolution-length answers come back as DimBound values: exact, "at least n"
(a resolution passed the configured cap while still alive), or infinite (a
coresolution closed up, which certifies infinity rather than guessing it).
"""

from __future__ import annotations

import numpy as np

from tiltbench import fitting
from tiltbench.linalg import PrimeField


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
        if self.kind == "infinite":
            return True
        assert self.value is not None
        if self.kind == "exact":
            return self.value >= n
        return self.value >= n  # lower bound semantics

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


class AbstractAlgebra:
    """Basic associative unital algebra from structure constants.

    table[i, j, k] is the coefficient of basis element k in b_i * b_j.
    idempotents is a complete set of primitive orthogonal idempotents e_i
    (coordinate vectors summing to the unit) whose projectives A*e_i are
    pairwise non-isomorphic; the opposite algebra shares them.
    """

    def __init__(self, field: PrimeField, table: np.ndarray, unit: np.ndarray,
                 idempotents: list[np.ndarray]):
        self.field = field
        self.table = np.asarray(table, dtype=np.int64) % field.p
        self.dim = self.table.shape[0]
        if self.table.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure constants must be a cube")
        self.unit = np.asarray(unit, dtype=np.int64) % field.p
        self.idempotents = [np.asarray(e, dtype=np.int64) % field.p for e in idempotents]
        for i, e in enumerate(self.idempotents):
            for j, f in enumerate(self.idempotents):
                if not np.array_equal(self.multiply(e, f), e if i == j else np.zeros_like(e)):
                    raise ValueError("idempotents are not orthogonal")
        if not np.array_equal(sum(self.idempotents) % field.p, self.unit):
            raise ValueError("idempotents do not sum to the unit")
        self._opposite: AbstractAlgebra | None = None
        self._radical: np.ndarray | None = None
        self._regular: AbstractModule | None = None
        self._proj_leaves: list["ProjectiveLeaf"] | None = None
        self._simples: list["AbstractModule"] | None = None

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.table) % self.field.p

    def left_mult(self, i: int) -> np.ndarray:
        return self.table[i].T

    @property
    def opposite(self) -> "AbstractAlgebra":
        if self._opposite is None:
            op = AbstractAlgebra(self.field, np.transpose(self.table, (1, 0, 2)).copy(),
                                 self.unit.copy(), self.idempotents)
            op._opposite = self
            self._opposite = op
        return self._opposite

    def radical(self) -> np.ndarray:
        """Column basis of the Jacobson radical (certified nilpotent ideal)."""
        if self._radical is None:
            self._radical = fitting.radical_from_table(self.field, self.table, self.unit)
        return self._radical

    def regular_module(self) -> "AbstractModule":
        if self._regular is None:
            action = np.stack([self.left_mult(i) for i in range(self.dim)]) % self.field.p
            self._regular = AbstractModule(self, self.dim, action)
        return self._regular

    # -- projectives and simples ---------------------------------------------

    def projective_leaves(self) -> list["ProjectiveLeaf"]:
        """The indecomposable projectives A*e_i, one per idempotent."""
        if self._proj_leaves is None:
            reg = self.regular_module()
            self._proj_leaves = []
            for e in self.idempotents:
                right_e = np.einsum("c,ack->ka", e, self.table) % self.field.p
                mod, incl = submodule(reg, right_e)
                self._proj_leaves.append(ProjectiveLeaf(mod, incl, e))
        return self._proj_leaves

    def simples(self) -> list["AbstractModule"]:
        """The simple tops of the projective leaves, in the same order; they
        are pairwise non-isomorphic because the algebra is basic."""
        if self._simples is None:
            self._simples = [top_module(leaf.module)[0]
                             for leaf in self.projective_leaves()]
        return self._simples


class AbstractModule:
    def __init__(self, algebra: AbstractAlgebra, dim: int, action: np.ndarray):
        self.algebra = algebra
        self.dim = int(dim)
        self.action = np.asarray(action, dtype=np.int64) % algebra.field.p
        if self.action.shape != (algebra.dim, self.dim, self.dim):
            raise ValueError("action must be one square matrix per basis element")

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def act(self, coeffs: np.ndarray) -> np.ndarray:
        """Matrix of the algebra element with the given coordinates."""
        return np.tensordot(coeffs % self.algebra.field.p, self.action, axes=1) % self.algebra.field.p

    def act_many(self, coeff_cols: np.ndarray) -> np.ndarray:
        """Stacked action matrices for each column of coefficients."""
        return np.tensordot(coeff_cols.T % self.algebra.field.p, self.action,
                            axes=([1], [0])) % self.algebra.field.p

    def __repr__(self) -> str:
        return f"AbstractModule(dim={self.dim})"


class ProjectiveLeaf:
    """An indecomposable projective summand A*e of the regular module."""

    def __init__(self, module: AbstractModule, incl: np.ndarray, idempotent: np.ndarray):
        self.module = module
        self.incl = incl  # columns: leaf basis as algebra coordinates
        self.idempotent = idempotent


def submodule(m: AbstractModule, basis: np.ndarray) -> tuple[AbstractModule, np.ndarray]:
    """Module structure on an action-stable column span, with its inclusion."""
    F = m.algebra.field
    basis = F.column_reduce(basis)
    k = basis.shape[1]
    rhs = (np.matmul(m.action, basis) % F.p).transpose(1, 0, 2).reshape(m.dim, -1)
    sol = F.solve_many(basis, rhs)
    if sol is None:
        raise AssertionError("subspace is not action-stable")
    action = sol.reshape(k, m.algebra.dim, k).transpose(1, 0, 2)
    return AbstractModule(m.algebra, k, action), basis


def quotient_module(m: AbstractModule, sub_basis: np.ndarray
                    ) -> tuple[AbstractModule, np.ndarray]:
    """Quotient by an action-stable subspace, with the projection."""
    F = m.algebra.field
    proj, reps = F.quotient_projection(sub_basis, m.dim)
    q = proj.shape[0]
    action = np.matmul(np.matmul(proj, m.action) % F.p, reps) % F.p
    return AbstractModule(m.algebra, q, action), proj


def kernel_module(f: np.ndarray, m: AbstractModule, n: AbstractModule
                  ) -> tuple[AbstractModule, np.ndarray]:
    F = m.algebra.field
    basis = F.nullspace(f)
    return submodule(m, basis)


def cokernel_module(f: np.ndarray, m: AbstractModule, n: AbstractModule
                    ) -> tuple[AbstractModule, np.ndarray]:
    F = m.algebra.field
    return quotient_module(n, F.column_reduce(f))


def direct_sum_modules(algebra: AbstractAlgebra, parts: list[AbstractModule]
                       ) -> tuple[AbstractModule, list[np.ndarray], list[np.ndarray]]:
    dims = [p.dim for p in parts]
    total = sum(dims)
    action = np.zeros((algebra.dim, total, total), dtype=np.int64)
    at = 0
    incls, projs = [], []
    for part in parts:
        action[:, at:at + part.dim, at:at + part.dim] = part.action
        inc = np.zeros((total, part.dim), dtype=np.int64)
        inc[at:at + part.dim] = np.eye(part.dim, dtype=np.int64)
        prj = np.zeros((part.dim, total), dtype=np.int64)
        prj[:, at:at + part.dim] = np.eye(part.dim, dtype=np.int64)
        incls.append(inc)
        projs.append(prj)
        at += part.dim
    return AbstractModule(algebra, total, action), incls, projs


def dual_module(m: AbstractModule) -> AbstractModule:
    """Vector-space dual over the opposite algebra."""
    action = np.transpose(m.action, (0, 2, 1)).copy()
    return AbstractModule(m.algebra.opposite, m.dim, action)


def radical_subspace(m: AbstractModule) -> np.ndarray:
    """Column basis of rad(A) * m."""
    F = m.algebra.field
    rad = m.algebra.radical()
    if rad.shape[1] == 0 or m.dim == 0:
        return np.zeros((m.dim, 0), dtype=np.int64)
    acts = m.act_many(rad)
    cols = np.concatenate(list(acts), axis=1) % F.p
    return F.column_reduce(cols)


def top_module(m: AbstractModule) -> tuple[AbstractModule, np.ndarray]:
    return quotient_module(m, radical_subspace(m))


class CoverData:
    def __init__(self, cover: np.ndarray, source: AbstractModule):
        self.cover = cover
        self.source = source


def projective_cover_module(m: AbstractModule) -> CoverData:
    """Minimal projective cover, one leaf per generator.

    Leaf by leaf, each basis vector u of e*m outside rad(m) plus the image
    so far becomes a generator: the map A*e -> m, a |-> a*u, whose image A*u
    adds one copy of the simple top of A*e to the covered part of top(m).
    """
    alg = m.algebra
    F = alg.field
    if m.dim == 0:
        zero = AbstractModule(alg, 0, np.zeros((alg.dim, 0, 0), dtype=np.int64))
        return CoverData(np.zeros((0, 0), dtype=np.int64), zero)
    covered = radical_subspace(m)
    blocks: list[np.ndarray] = []
    parts: list[AbstractModule] = []
    for leaf in alg.projective_leaves():
        basis_acts = m.act_many(leaf.incl)  # one action matrix per leaf basis vector
        for u in F.column_reduce(m.act(leaf.idempotent)).T:
            if F.column_space_contains(covered, u.reshape(-1, 1)):
                continue
            lift = np.tensordot(basis_acts, u, axes=([2], [0])).T % F.p
            covered = F.column_reduce(np.concatenate([covered, lift], axis=1))
            blocks.append(lift)
            parts.append(leaf.module)
    total, _, _ = direct_sum_modules(alg, parts)
    cover = np.concatenate(blocks, axis=1) % F.p
    if F.rank(cover) != m.dim:
        raise AssertionError("projective cover is not surjective")
    ker = F.nullspace(cover)
    if ker.shape[1]:
        rad_p = radical_subspace(total)
        if not F.column_space_contains(rad_p, ker):
            raise AssertionError("projective cover kernel escapes the radical")
    return CoverData(cover, total)


def syzygy_module(m: AbstractModule) -> AbstractModule:
    cd = projective_cover_module(m)
    k, _ = kernel_module(cd.cover, cd.source, m)
    return k


def is_projective(m: AbstractModule) -> bool:
    if m.dim == 0:
        return True
    cd = projective_cover_module(m)
    return cd.source.dim == m.dim


def injective_envelope_module(m: AbstractModule) -> tuple[np.ndarray, AbstractModule]:
    """Envelope map and its target, via the cover of the dual module."""
    cd = projective_cover_module(dual_module(m))
    env_target = dual_module(cd.source)
    return cd.cover.T.copy() % m.algebra.field.p, env_target


def cosyzygy_module(m: AbstractModule) -> AbstractModule:
    env, target = injective_envelope_module(m)
    c, _ = cokernel_module(env, m, target)
    return c


def projective_dimension(m: AbstractModule, cap: int = 20) -> DimBound:
    if m.dim == 0:
        return DimBound.exact(-1)
    cur = m
    count = 0
    while cur.dim > 0:
        if count > cap:
            return DimBound.at_least(cap + 1)
        cur = syzygy_module(cur)
        count += 1
    return DimBound.exact(count - 1)


def injective_dimension(m: AbstractModule, cap: int = 20) -> DimBound:
    if m.dim == 0:
        return DimBound.exact(-1)
    cur = m
    count = 0
    while cur.dim > 0:
        if count > cap:
            return DimBound.at_least(cap + 1)
        cur = cosyzygy_module(cur)
        count += 1
    return DimBound.exact(count - 1)


def global_dimension(alg: AbstractAlgebra, cap: int = 20) -> DimBound:
    best = DimBound.exact(0)
    capped = False
    top_val = 0
    for s in alg.simples():
        pd = projective_dimension(s, cap)
        if pd.kind == "at_least":
            capped = True
            top_val = max(top_val, pd.value)
        else:
            assert pd.kind == "exact" and pd.value is not None
            top_val = max(top_val, pd.value)
    return DimBound.at_least(max(top_val, cap + 1)) if capped else DimBound.exact(top_val)


def dominant_dimension(alg: AbstractAlgebra, cap: int = 20) -> DimBound:
    """Length of the initial projective segment of the minimal injective
    coresolution of the regular module (infinite when the coresolution
    closes up while still projective)."""
    cur = alg.regular_module()
    count = 0
    while True:
        if count > cap:
            return DimBound.at_least(cap + 1)
        if cur.dim == 0:
            return DimBound.infinite()
        env, target = injective_envelope_module(cur)
        if not is_projective(target):
            return DimBound.exact(count)
        c, _ = cokernel_module(env, cur, target)
        cur = c
        count += 1


def selfinjective_dimensions(alg: AbstractAlgebra, cap: int = 20) -> tuple[DimBound, DimBound]:
    """Injective dimension of the regular module on each side."""
    left = injective_dimension(alg.regular_module(), cap)
    right = injective_dimension(alg.opposite.regular_module(), cap)
    return left, right
