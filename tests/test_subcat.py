"""Additive subcategory machinery: membership, approximations, weak
(co)kernels, and the higher kernel/cokernel constructions."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltbench import axioms, jobspec, rep, subcat

import composition_route
import matching_route
from conftest import CORPUS_DIR, corpus_paths, make_x


def as_xmap(x, mor):
    """Recast a module morphism between members as a map between X-objects."""
    xs, iso_s = x.embed(mor.source)
    xd, iso_d = x.embed(mor.target)
    assert xs is not None and xd is not None
    return subcat.XMap(xs, xd,
                       rep.invert_morphism(iso_d).compose(mor).compose(iso_s))


@pytest.fixture(scope="module")
def x_a2(a2):
    parts = [rep.projective(a2, 0), rep.projective(a2, 1), rep.simple(a2, 0)]
    return make_x(a2, parts)


class TestMembership:
    def test_summand_identification(self, x_a2):
        assert len(x_a2.summands) == 3

    def test_embed_direct_sum(self, a2, x_a2):
        P1, S1 = rep.projective(a2, 0), rep.simple(a2, 0)
        xo, iso = x_a2.embed(rep.direct_sum(a2, [S1, P1])[0])
        assert xo is not None and iso.is_isomorphism()
        assert len(xo.parts) == 2

    def test_embed_rejects_non_member(self, a2):
        xl = make_x(a2, [rep.projective(a2, 0), rep.projective(a2, 1)])
        assert xl.embed(rep.simple(a2, 0)) is None
        assert not xl.contains(rep.simple(a2, 0))

    def test_zero_module_is_member(self, a2, x_a2):
        z = rep.zero_rep(a2)
        assert x_a2.contains(z)


def _membership_modules(x):
    """The zero module, the test modules of the classifiers, the simples,
    projectives and injectives, and tau, tau^-, tau_2 and tau_2^- of every
    summand."""
    alg = x.algebra
    verts = range(alg.quiver.num_vertices)
    mods = [rep.zero_rep(alg)]
    mods += [a for a, _ in axioms.generate_test_modules(x, 20, 42)]
    mods += [make(alg, v) for make in (rep.simple, rep.projective, rep.injective) for v in verts]
    mods += [t(s) for s in x.summands for t in (subcat.tau, subcat.tau_inverse)]
    mods += [t(s, 2) for s in x.summands for t in (subcat.tau_d, subcat.tau_d_inverse)]
    return mods


def _commutes(f):
    """f is a module morphism: each component commutes with the arrows."""
    p = f.source.field.p
    return all(np.array_equal(f.maps[t] @ f.source.maps[i] % p, f.target.maps[i] @ f.maps[s] % p)
               for i, (s, t) in enumerate(f.source.algebra.quiver.arrow_ends))


@pytest.mark.parametrize("side", ["x", "op"])
@pytest.mark.parametrize("name", [p.stem for p in corpus_paths()])
def test_membership_equals_the_matching_route(name, side, monkeypatch):
    """`contains` agrees with decomposing and matching leaves
    (`matching_route`), and `embed` of a member is a bijective module map
    whose parts are a permutation of the matched summands.  Membership
    reads the approximation and decomposes nothing."""
    x = jobspec.ingest(CORPUS_DIR / f"{name}.json").realize().x
    x = x if side == "x" else x.op
    mods = _membership_modules(x)
    want = [matching_route.embed(x, a) for a in mods]
    calls = []
    for fn in ("decompose", "_unit_witness"):
        real = getattr(rep, fn)
        monkeypatch.setattr(rep, fn, lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    for a, ref in zip(mods, want):
        assert x.contains(a) == (ref is not None)
        if ref is not None:
            xobj, iso = x.embed(a)
            assert iso.source is xobj.rep and iso.target is a
            assert iso.is_isomorphism() and _commutes(iso)
            assert sorted(xobj.parts) == sorted(ref[0])
    assert calls == []
    assert any(ref is not None for ref in want[1:])


class TestApproximations:
    def test_right_approximation_surjective_when_generating(self, a2):
        xl = make_x(a2, [rep.projective(a2, 0), rep.projective(a2, 1)])
        xa, ev = xl.right_approximation(rep.simple(a2, 0))
        assert ev.is_surjective()
        assert len(xa.parts) == 1  # minimal: just the cover P1

    def test_left_approximation(self, a2):
        xl = make_x(a2, [rep.projective(a2, 0), rep.projective(a2, 1)])
        S2 = rep.simple(a2, 1)  # = P2, so the coevaluation is split
        xa, coev = xl.left_approximation(S2)
        assert coev.is_injective()

    def test_approximation_property(self, a2, x_a2):
        from tiltbench.axioms import is_right_approximation
        _, ev = x_a2.right_approximation(rep.simple(a2, 1))
        ok, _ = is_right_approximation(x_a2, ev)
        assert ok


class TestWeakKernels:
    def test_weak_kernel_verifies(self, a2, x_a2):
        cover = rep.projective_cover(rep.simple(a2, 0))[0]
        f = as_xmap(x_a2, cover)
        wk = x_a2.weak_kernel(f)
        ok, _ = x_a2.is_weak_kernel(wk, f)
        assert ok

    def test_weak_cokernel_verifies(self, a2, x_a2):
        incl = rep.hom_space(rep.projective(a2, 1), rep.projective(a2, 0))[0]
        g = as_xmap(x_a2, incl)
        wc = x_a2.weak_cokernel(g)
        ok, _ = x_a2.is_weak_cokernel(wc, g)
        assert ok

    def test_epi_mono_relative_to_x(self, a2, x_a2):
        cover = rep.projective_cover(rep.simple(a2, 0))[0]
        f = as_xmap(x_a2, cover)
        assert x_a2.is_epi(f)[0]
        assert not x_a2.is_mono(f)[0]

    def test_epi_without_surjectivity(self, a2):
        # relative epis see only X: the radical inclusion P2 -> P1 is epi
        # in add(Lambda) because no member receives a map killing it
        xl = make_x(a2, [rep.projective(a2, 0), rep.projective(a2, 1)])
        incl = rep.hom_space(rep.projective(a2, 1), rep.projective(a2, 0))[0]
        f = as_xmap(xl, incl)
        assert not f.mor.is_surjective()
        assert xl.is_epi(f)[0]
        # adding the missing top to X restores detection
        x_full = make_x(a2, [rep.projective(a2, 0), rep.projective(a2, 1),
                             rep.simple(a2, 0)])
        assert not x_full.is_epi(as_xmap(x_full, incl))[0]


class TestHigherKernels:
    def test_d_kernel_on_cluster_tilting(self, a2, x_a2):
        cover = rep.projective_cover(rep.simple(a2, 0))[0]
        f = as_xmap(x_a2, cover)
        seq = x_a2.d_kernel(f, 1)
        assert len(seq) == 1
        kparts = seq[0].src.parts
        assert len(kparts) == 1
        assert rep.is_isomorphic(x_a2.summands[kparts[0]],
                                 rep.projective(a2, 1))
        ok, _ = x_a2.is_weak_kernel(seq[0], f)
        assert ok

    def test_d_cokernel_on_cluster_tilting(self, a2, x_a2):
        incl = rep.hom_space(rep.projective(a2, 1), rep.projective(a2, 0))[0]
        g = as_xmap(x_a2, incl)
        seq = x_a2.d_cokernel(g, 1)
        assert len(seq) == 1
        cparts = seq[0].dst.parts
        assert len(cparts) == 1
        assert rep.is_isomorphic(x_a2.summands[cparts[0]], rep.simple(a2, 0))
        ok, _ = x_a2.is_weak_cokernel(seq[0], g)
        assert ok

    def test_kernel_escape_detected(self, a2):
        # add(P1 + S1): the kernel of the cover P1 -> S1 is P2, outside
        xb = make_x(a2, [rep.projective(a2, 0), rep.simple(a2, 0)])
        cover = rep.projective_cover(rep.simple(a2, 0))[0]
        f = as_xmap(xb, cover)
        with pytest.raises(subcat.DKernelNotLeftExact) as ei:
            xb.d_kernel(f, 1)
        assert "kind" in ei.value.witness
        # the weak kernel still exists and verifies
        wk = xb.weak_kernel(f)
        assert xb.is_weak_kernel(wk, f)[0]

    def test_d2_kernel_over_a3_rad2(self, a3rad2):
        parts = [rep.projective(a3rad2, v) for v in range(3)]
        parts.append(rep.simple(a3rad2, 0))
        x2 = make_x(a3rad2, parts)
        cover = rep.projective_cover(rep.simple(a3rad2, 0))[0]
        f = as_xmap(x2, cover)
        seq = x2.d_kernel(f, 2)
        assert len(seq) == 2
        # composition through the pair is exact at the middle object
        ok, _ = x2.is_weak_kernel(seq[0], f)
        assert ok


class TestXMapPlumbing:
    def test_concat_blocks(self, a2, x_a2):
        cover = rep.projective_cover(rep.simple(a2, 0))[0]
        f = as_xmap(x_a2, cover)
        z = subcat.XMap(x_a2.obj((1,)), f.dst,
                        rep.zero_morphism(x_a2.obj((1,)).rep, f.dst.rep))
        wide = subcat.concat_xmaps_cols(x_a2, [f, z], f.dst)
        assert wide.src.parts == f.src.parts + (1,)
        assert x_a2.is_epi(wide)[0]

    def test_negate(self, a2, x_a2):
        cover = rep.projective_cover(rep.simple(a2, 0))[0]
        f = as_xmap(x_a2, cover)
        assert f.mor.add(f.mor.scale(-1)).is_zero

    def test_objects_are_interned(self, x_a2):
        assert x_a2.obj((0, 2)) is x_a2.obj([0, 2])
        assert x_a2.obj((0, 2)).rep is x_a2.obj((0, 2)).rep
        assert x_a2.zero_obj() is x_a2.obj(())
        assert x_a2.obj((0, 2)) is not x_a2.obj((2, 0))


class TestOpposite:
    def test_op_reuses_the_split_summands(self, a3rad2, monkeypatch):
        parts = [rep.projective(a3rad2, v) for v in range(3)] + [rep.simple(a3rad2, 1)]
        x = make_x(a3rad2, parts)
        calls = []
        for name in ("decompose", "_unit_witness"):
            real = getattr(rep, name)
            monkeypatch.setattr(rep, name, lambda *a, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*a, **k))
        o = x.op
        assert calls == []
        assert o.op is x
        assert len(o.summands) == len(x.summands)
        for s, t in zip(x.summands, o.summands):
            assert t.algebra is a3rad2.opposite
            assert t.dims.tolist() == s.dims.tolist()
            assert all((u == v.T).all() for u, v in zip(t.maps, s.maps))


def _factors_through(x, part, block, parts, blocks):
    """Whether block: X_part -> A factors through the blocks on parts,
    composing every column afresh."""
    cols = []
    for j, bj in zip(parts, blocks):
        for u in x.hom(part, j):
            cols.append(bj.compose(u).flatten())
    if not cols:
        return block.is_zero
    mat = np.stack(cols, axis=1) % x.field.p
    return x.field.solve_many(mat, block.flatten().reshape(-1, 1)) is not None


def _restart_minimize(x, parts, blocks):
    """The greedy minimization as it was before the one-scan version:
    rescan from the first block after every drop, until a pass drops
    nothing, composing afresh at each test.  Kept as the reference for
    `_minimize_blocks`."""
    changed = True
    while changed:
        changed = False
        for drop in range(len(parts)):
            if len(parts) == 1 and blocks[drop].is_zero:
                return [], []
            rest_parts = parts[:drop] + parts[drop + 1:]
            rest_blocks = blocks[:drop] + blocks[drop + 1:]
            if _factors_through(x, parts[drop], blocks[drop], rest_parts, rest_blocks):
                parts, blocks = rest_parts, rest_blocks
                changed = True
                break
    return parts, blocks


_MINIMIZE_JOBS = ("linear_a2_generator", "nakayama_a3_rad2_bimodule",
                  "serial_x3_generator", "hereditary_a3_proj_inj")
_minimize_cases = {}


def _minimize_case(name):
    """A corpus subcategory and the modules its approximations meet: the
    kernels and cokernels of its sampled morphisms, and every simple."""
    if name not in _minimize_cases:
        x = jobspec.ingest(CORPUS_DIR / f"{name}.json").realize().x
        mods = [rep.simple(x.algebra, v) for v in range(x.algebra.quiver.num_vertices)]
        for m in axioms.sample_morphisms(x, 25, 42):
            mods += [rep.kernel(m.mor)[0], rep.cokernel(m.mor)[0]]
        _minimize_cases[name] = (x, mods)
    return _minimize_cases[name]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_minimize_blocks_matches_restart_loop(data):
    """Random block lists X_i -> A (random combinations of hom bases, zero
    and repeated blocks included) minimize to the same parts and blocks in
    one forward scan as in the rescanning loop."""
    x, mods = _minimize_case(data.draw(st.sampled_from(_MINIMIZE_JOBS)))
    a = data.draw(st.sampled_from(mods))
    n = len(x.summands)
    parts, blocks = [], []
    for _ in range(data.draw(st.integers(0, 7))):
        i = data.draw(st.integers(0, n - 1))
        basis = rep.hom_space(x.summands[i], a)
        block = rep.zero_morphism(x.summands[i], a)
        for h in basis:
            block = block.add(h.scale(data.draw(st.integers(0, 3))))
        parts.append(i)
        blocks.append(block)
    got_parts, got_blocks = x._minimize_blocks(parts, blocks)
    want_parts, want_blocks = _restart_minimize(x, parts, blocks)
    assert got_parts == want_parts
    assert [b.flatten().tolist() for b in got_blocks] == \
        [b.flatten().tolist() for b in want_blocks]


class TestMemo:
    """The approximation calculus is memoized by content, per subcategory."""

    def test_post_matrix_is_read_only(self, a2):
        x = make_x(a2, [rep.projective(a2, 0), rep.projective(a2, 1)])
        f = x.identity(x.obj((0, 1)))
        mat = x.post_matrix(f, 0)
        assert mat.size
        with pytest.raises(ValueError):
            mat[0, 0] = 1
        assert x.post_matrix(f, 0) is mat

    def test_weak_kernel_arrays_are_read_only(self, a2, x_a2):
        f = x_a2.identity(x_a2.obj((0,)))
        w = x_a2.weak_kernel(subcat.XMap(f.src, f.dst, f.mor.scale(-1)))
        assert all(not t.flags.writeable for t in w.mor.maps)

    def test_embed_hit_ends_at_the_module_passed_in(self, a2, monkeypatch):
        x = make_x(a2, [rep.projective(a2, 0), rep.simple(a2, 0)])
        computed = []
        real = subcat.SubcategoryX._embed
        monkeypatch.setattr(subcat.SubcategoryX, "_embed",
                            lambda self, a: computed.append(a) or real(self, a))
        parts = [rep.simple(a2, 0), rep.projective(a2, 0)]
        first, again = (rep.direct_sum(a2, parts)[0] for _ in range(2))
        xo1, iso1 = x.embed(first)
        xo2, iso2 = x.embed(again)
        assert len(computed) == 1
        assert xo1 is xo2
        assert iso1.target is first and iso2.target is again
        assert iso2.source is xo2.rep and iso2.is_isomorphism()
        assert iso2.flatten().tolist() == iso1.flatten().tolist()

    def test_right_approximation_hit_ends_at_the_module_passed_in(self, a2, monkeypatch):
        x = make_x(a2, [rep.projective(a2, 0), rep.projective(a2, 1)])
        computed = []
        real = subcat.SubcategoryX._right_approximation
        monkeypatch.setattr(subcat.SubcategoryX, "_right_approximation",
                            lambda self, a: computed.append(a) or real(self, a))
        first, again = rep.simple(a2, 0), rep.simple(a2, 0)
        xo1, ev1 = x.right_approximation(first)
        xo2, ev2 = x.right_approximation(again)
        assert len(computed) == 1
        assert xo1 is xo2 and ev2.source is xo2.rep
        assert ev1.target is first and ev2.target is again

    def test_a2_after_a1_computes_no_weak_kernel(self, corpus, monkeypatch):
        x = corpus.fresh_x("nakayama_a3_rad2_bimodule").x
        computed = []
        real = subcat.SubcategoryX._weak_kernel
        monkeypatch.setattr(subcat.SubcategoryX, "_weak_kernel",
                            lambda self, m: computed.append(m) or real(self, m))
        axioms.check_A1_A1op(x, 40, 42)
        assert computed  # A1 built its weak kernels
        before = len(computed)
        axioms.check_A2_A2op(x, 40, 42)
        assert len(computed) == before

    @pytest.mark.parametrize("name", ["hereditary_a3_proj_inj",
                                      "nakayama_a3_rad2_bimodule"])
    def test_check_order_does_not_change_verdicts(self, name):
        """A4 before or after A1-A3 on one subcategory gives the verdicts
        each check gives on a fresh realization."""
        path = CORPUS_DIR / f"{name}.json"
        d = next(c.d for c in jobspec.parse(json.loads(path.read_text())).checks
                 if c.check == "A4")
        checks = {"A1": lambda x: axioms.check_A1_A1op(x, 30, 42),
                  "A2": lambda x: axioms.check_A2_A2op(x, 30, 42),
                  "A3": lambda x: axioms.check_A3_A3op(x, 30, 42),
                  "A4": lambda x: axioms.check_A4d(x, d, 30, 42)}

        def fresh():
            return jobspec.ingest(path).realize().x

        want = {k: json.dumps(check(fresh()).to_json(), sort_keys=True)
                for k, check in checks.items()}
        for order in (["A4", "A1", "A2", "A3"], ["A1", "A2", "A3", "A4"]):
            x = fresh()
            got = {k: json.dumps(checks[k](x).to_json(), sort_keys=True) for k in order}
            assert got == want, order


class TestEmptyBlocks:
    """Zero-size hom blocks are answered before the memo and never reach an
    elimination loop (counts, not times)."""

    def test_sampled_checks_on_counters(self, corpus, monkeypatch):
        from tiltbench.linalg import PrimeField
        x = corpus.fresh_x("nakayama_a3_rad2_bimodule").x
        eliminated = []
        for name in ("_rref_lists", "_rref_numpy"):
            real = getattr(PrimeField, name)
            monkeypatch.setattr(PrimeField, name,
                                lambda self, a, real=real:
                                eliminated.append(np.shape(a)) or real(self, a))
        keys = []
        real_key = subcat._xmap_key
        monkeypatch.setattr(subcat, "_xmap_key",
                            lambda m: keys.append(m) or real_key(m))
        empty, full = [], []
        real = subcat.SubcategoryX.post_matrix

        def counted(self, m, z):
            before = len(keys)
            mat = real(self, m, z)
            (full if mat.size else empty).append((self, z, m, before, len(keys), mat))
            return mat
        monkeypatch.setattr(subcat.SubcategoryX, "post_matrix", counted)

        axioms.check_A1_A1op(x, 30, 42)
        axioms.check_A2_A2op(x, 30, 42)
        axioms.check_A3_A3op(x, 30, 42)
        axioms.check_A4d(x, 2, 30, 42)
        axioms.check_d_rigid(x, 3, 30, 42)

        assert eliminated and all(r * c for r, c in eliminated)
        assert empty and full
        for *_, before, after, mat in empty:
            assert after == before  # no _xmap_key call
            assert not mat.flags.writeable
        # each side's memo holds a post_matrix key for every non-empty block
        # asked of it and for nothing else
        for side in (x, x.op):
            stored = {key for key in side._memo if key[0] == "post_matrix"}
            assert stored == {("post_matrix", z, real_key(m))
                              for s, z, m, *_ in full if s is side}

    def test_empty_blocks_match_the_general_routine(self, a2):
        # over 1 -> 2: Hom(P1, P2) = 0, so the inclusion P2 -> P1 has an
        # empty block of shape (1, 0) at z = P1
        x = make_x(a2, [rep.projective(a2, 0), rep.projective(a2, 1)])
        p1, p2 = x.obj((0,)), x.obj((1,))
        incl = subcat.XMap(p2, p1, x.obj_from_coords(p2, p1, [1]))
        assert x.post_matrix(incl, 0).shape == (1, 0)
        for f in (incl, x.identity(x.obj((0, 1, 1)))):
            for z in range(2):
                got, want = x.post_matrix(f, z), composition_route.obj_post_matrix(
                    x, f, x.obj((z,)))
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert x.post_matrix(f, z).shape[1] == x.hom_dim(z, f.src)


@pytest.mark.parametrize("name", ["hereditary_a3_regular_only", "nakayama_a3_rad2_bimodule",
                                  "hereditary_a3_proj_inj"])
def test_membership_peeks_the_other_side(name, monkeypatch):
    """`contains` answered from the other side's embedding of the dual
    equals `embed(...) is not None`, on both sides, for every test module
    of the d-cluster-tilting classifier, and decomposes nothing."""
    def realize():
        """A fresh realization, so fresh memos, with its test modules over
        x and their duals over x.op."""
        x = jobspec.ingest(CORPUS_DIR / f"{name}.json").realize().x
        mods = [a for a, _ in axioms.generate_test_modules(x, trials=10, seed=42)]
        return x, mods, [rep.dualize(a) for a in mods]

    decomposed = []
    real = rep.decompose
    monkeypatch.setattr(rep, "decompose", lambda *a, **k: decomposed.append(1) or real(*a, **k))
    members = set()
    for side in ("x", "op"):
        x, mods, duals = realize()
        fresh, fresh_mods, fresh_duals = realize()
        if side == "x":
            own, other, ins, outs = x, x.op, mods, duals
            fresh_other, fresh_outs = fresh.op, fresh_duals
        else:
            own, other, ins, outs = x.op, x, duals, mods
            fresh_other, fresh_outs = fresh, fresh_mods
        assert ins
        for a, da, fresh_da in zip(ins, outs, fresh_outs):
            want = own.embed(a) is not None
            before = len(decomposed)
            assert other.contains(da) == want
            assert len(decomposed) == before
            # the other side's own embedding, with nothing to peek at
            assert (fresh_other.embed(fresh_da) is not None) == want
            members.add(want)
    assert members == {True, False}
