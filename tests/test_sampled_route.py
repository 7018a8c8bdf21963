"""The sampled route does each piece of Hom(X_z, -) work once and skips the
pieces whose spaces are zero.

* `SubcategoryX._post_matrix` assembles Hom(X_z, m) block by block from
  the summand hom bases; it must equal Hom(X_z, m) by composition
  (`composition_route.obj_post_matrix`).
* `CoherentFunctor.evaluate`, `FunctorMorphism.eval_matrix`,
  `verify_star_adjunction_sequences`, `is_mono` and `is_weak_kernel` skip
  zero spaces; the unskipped loops are kept here as the reference.
* `is_weak_kernel`, `is_mono` and `sample_morphisms` are computed once per
  content, and the arrays they share are read-only.

Counts only, never wall-clock times.
"""
import numpy as np
import pytest

from tiltbench import axioms, functors as fun, jobspec, rep, subcat
from tiltbench.subcat import SubcategoryX, XMap

import composition_route
from conftest import CORPUS_DIR, rad2_x

BLOCK_JOBS = ("hereditary_a3_regular_only", "regular_only_a2", "hereditary_a3_proj_inj",
              "nakayama_a3_rad2_bimodule", "serial_x3_generator")
SKIP_JOBS = ("nakayama_a4_rad2_bimodule", "hereditary_a3_proj_inj")
SEED = 42


def fresh_x(name):
    return jobspec.ingest(CORPUS_DIR / f"{name}.json").realize().x


def copy_xmap(m):
    """A new map equal to m in content, sharing no array with it."""
    return XMap(m.src, m.dst, rep.ModuleMorphism(m.src.rep, m.dst.rep,
                                                 [t.copy() for t in m.mor.maps]))


# -- the reference: the loops without short-cuts, by composition ----------------


def ref_post(x, m, z):
    return composition_route.obj_post_matrix(x, m, x.obj((z,)))


def ref_is_mono(x, m):
    for z in range(len(x.summands)):
        if x.field.nullspace(ref_post(x, m, z)).shape[1]:
            return False, z
    return True, None


def ref_is_weak_kernel(x, w, m):
    if not m.mor.compose(w.mor).is_zero:
        return False, {"reason": "composite-nonzero"}
    for z in range(len(x.summands)):
        mw, mm = ref_post(x, w, z), ref_post(x, m, z)
        rank_w = x.field.rank(mw)
        null_m = mm.shape[1] - x.field.rank(mm)
        if rank_w != null_m:
            return False, {"summand": z, "image_rank": rank_w, "kernel_dim": null_m}
    return True, None


def ref_evaluate(f, z):
    x = f.subcat
    F = x.field
    ambient = x.hom_dim(z, f.pres.dst)
    basis = F.column_reduce(ref_post(x, f.pres, z))
    proj, reps = F.quotient_projection(basis, ambient)
    return fun.EvalData(ambient, proj, reps, proj.shape[0])


def ref_eval_matrix(phi, z):
    x = phi.source.subcat
    p = x.field.p
    ef, eg = ref_evaluate(phi.source, z), ref_evaluate(phi.target, z)
    return (eg.proj @ ((ref_post(x, phi.lift, z) @ ef.reps) % p)) % p


def ref_check_cokernel(phi, c):
    x = phi.source.subcat
    for z in range(len(x.summands)):
        m = ref_eval_matrix(phi, z)
        if ref_evaluate(c, z).dim != ref_evaluate(phi.target, z).dim - x.field.rank(m):
            raise AssertionError("cokernel functor failed evaluation check")


def ref_verify_star_adjunction_sequences(f):
    """The four-term check at every z, with no z skipped."""
    x = f.subcat
    F = x.field
    unit, fss, c1, c2x, s1 = fun._double_star_data(f)
    report = {}
    for z in range(len(x.summands)):
        d0, d1, d2 = ref_post(x, f.pres, z), ref_post(x, c1, z), ref_post(x, c2x, z)
        if ((d1 @ d0) % F.p).any() or ((d2 @ d1) % F.p).any():
            raise fun.SequenceCheckFailed("transpose resolution is not a complex",
                                          {"summand": z})
        e1 = int(d1.shape[1] - F.rank(d1) - F.rank(d0))
        e2 = int(d2.shape[1] - F.rank(d2) - F.rank(d1))
        ef, ess = ref_evaluate(f, z), ref_evaluate(fss, z)
        eta = ref_eval_matrix(unit, z)
        k_dim = int(eta.shape[1] - F.rank(eta))
        c_dim = int(ess.dim - F.rank(eta))
        if k_dim != e1 or c_dim != e2:
            raise fun.SequenceCheckFailed(
                "unit kernel/cokernel do not match the transpose Ext terms",
                {"summand": z, "ker_unit": k_dim, "ext1": e1,
                 "coker_unit": c_dim, "ext2": e2})
        amb_null = F.nullspace(d1)
        killed = (ef.proj @ amb_null) % F.p if amb_null.size else \
            np.zeros((ef.dim, 0), dtype=np.int64)
        killed = F.column_reduce(killed)
        eta_null = F.nullspace(eta)
        if killed.shape[1] != k_dim or eta_null.shape[1] != k_dim or (
                k_dim and not F.column_space_contains(eta_null, killed)):
            raise fun.SequenceCheckFailed(
                "kernel of the unit is not the classes killed by the chain map",
                {"summand": z})
        w_basis = F.nullspace(d2)
        w_proj, _ = F.quotient_projection(F.column_reduce(d1), d2.shape[1])
        w_amb = (w_proj @ w_basis) % F.p if w_basis.size else \
            np.zeros((w_proj.shape[0], 0), dtype=np.int64)
        w_space = F.column_reduce(w_amb)
        pi = (w_proj @ ((ref_post(x, s1, z) @ ess.reps) % F.p)) % F.p
        if F.rank(pi) != w_space.shape[1]:
            raise fun.SequenceCheckFailed(
                "comparison map onto the Ext^2 term is not surjective",
                {"summand": z, "rank": int(F.rank(pi)),
                 "target_dim": int(w_space.shape[1])})
        pi_null = F.nullspace(pi)
        im_eta = F.column_reduce(eta)
        if pi_null.shape[1] != im_eta.shape[1] or (
                im_eta.shape[1] and not F.column_space_contains(pi_null, im_eta)):
            raise fun.SequenceCheckFailed(
                "image of the unit does not match the kernel of the comparison map",
                {"summand": z})
        report[z] = {"F": ef.dim, "Fss": ess.dim, "ext1": e1, "ext2": e2}
    return report


def outcome(fn, *args):
    """What a check returns, or the type, message and witness it raises."""
    try:
        return ("returned", fn(*args))
    except (AssertionError, fun.SequenceCheckFailed) as e:
        return ("raised", type(e).__name__, str(e), getattr(e, "witness", None))


def same_array(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)


# -- Hom(X_z, m) block by block --------------------------------------------------


def _block_cases(x, trials):
    maps = axioms.sample_morphisms(x, trials, SEED)
    return maps + [x.weak_kernel(m) for m in maps]


@pytest.mark.parametrize("name", BLOCK_JOBS)
@pytest.mark.parametrize("side", ["x", "op"])
def test_block_post_matrix_equals_the_general_routine(name, side):
    x = fresh_x(name)
    x = x.op if side == "op" else x
    full = 0
    for m in _block_cases(x, 30):
        for z in range(len(x.summands)):
            got, want = x._post_matrix(m, z), ref_post(x, m, z)
            assert same_array(got, want), (m, z)
            assert not got.flags.writeable
            full += bool(want.any())
    assert full  # some block holds entries


@pytest.mark.parametrize("side", ["x", "op"])
def test_block_post_matrix_on_a_rad2_family(side):
    x = rad2_x(7, 2)
    x = x.op if side == "op" else x
    fam = len(axioms.spanning_family(x))
    maps = axioms.sample_morphisms(x, fam + 30, SEED)[fam:]  # 30 random combinations
    assert len(maps) == 30 and any(len(m.src.parts) > 1 for m in maps)
    for m in maps + [x.weak_kernel(m) for m in maps]:
        for z in range(len(x.summands)):
            assert same_array(x._post_matrix(m, z), ref_post(x, m, z)), (m, z)


# -- the zero short-cuts against the unskipped loops ------------------------------


_skip_cases = {}


def _skip_case(name):
    """Test 5's localization suite on one job: the 50 sampled maps and the
    cokernel functor of each one's Yoneda image."""
    if name not in _skip_cases:
        x = fresh_x(name)
        maps = axioms.sample_morphisms(x, 50, SEED)
        phis = [fun.yoneda_morphism(x, m) for m in maps]
        cokers = [fun.cokernel_functor(phi)[0] for phi in phis]
        _skip_cases[name] = (x, maps, phis, cokers)
    return _skip_cases[name]


@pytest.mark.parametrize("name", SKIP_JOBS)
def test_star_adjunction_and_cokernel_checks_match_the_unskipped_loops(name):
    x, maps, phis, cokers = _skip_case(name)
    zero_at = 0
    for phi, c in zip(phis, cokers):
        assert outcome(fun.verify_star_adjunction_sequences, c) == \
            outcome(ref_verify_star_adjunction_sequences, c)
        assert outcome(fun._check_cokernel, phi, c) == outcome(ref_check_cokernel, phi, c)
        for f in (phi.source, phi.target, c):
            for z in range(len(x.summands)):
                got, want = f.evaluate(z), ref_evaluate(f, z)
                assert (got.ambient, got.dim) == (want.ambient, want.dim)
                assert same_array(got.proj, want.proj) and same_array(got.reps, want.reps)
                zero_at += not got.ambient
        for z in range(len(x.summands)):
            assert same_array(phi.eval_matrix(z), ref_eval_matrix(phi, z))
    assert zero_at  # the short-cuts were reached


@pytest.mark.parametrize("name", SKIP_JOBS)
@pytest.mark.parametrize("side", ["x", "op"])
def test_mono_and_weak_kernel_tests_match_the_unskipped_loops(name, side):
    x, maps, _, _ = _skip_case(name)
    if side == "op":
        x = x.op
        maps = axioms.sample_morphisms(x, 50, SEED)
    fails = set()
    for m in maps:
        assert x.is_mono(m) == ref_is_mono(x, m)
        into = m.src
        for w in (x.weak_kernel(m), x.identity(into),
                  XMap(x.obj((0,)), into, rep.zero_morphism(x.obj((0,)).rep, into.rep))):
            got = x.is_weak_kernel(w, m)
            assert got == ref_is_weak_kernel(x, w, m)
            if not got[0]:
                fails.add(tuple(sorted(got[1])))
    # both kinds of failure were compared
    assert ("reason",) in fails and ("image_rank", "kernel_dim", "summand") in fails


def test_a_skipped_z_reaches_post_matrix_zero_times(monkeypatch):
    x = fresh_x("nakayama_a4_rad2_bimodule")
    calls = []
    real = SubcategoryX.post_matrix
    monkeypatch.setattr(SubcategoryX, "post_matrix",
                        lambda self, m, z: calls.append((subcat._xmap_key(m), z))
                        or real(self, m, z))
    n = len(x.summands)
    skipped = 0
    for m in axioms.sample_morphisms(x, 50, SEED):
        zeros = {z for z in range(n) if not x.hom_dim(z, m.src)}
        skipped += len(zeros)
        w = x.weak_kernel(m)
        del calls[:]
        x.is_mono(m)
        x.is_weak_kernel(w, m)
        assert not [z for _, z in calls if z in zeros]

        fc, _ = fun.cokernel_functor(fun.yoneda_morphism(x, m))
        del calls[:]
        got = fun.verify_star_adjunction_sequences(fc)
        during = list(calls)
        unit, fss, c1, c2x, s1 = fun._double_star_data(fc)
        loop_maps = {subcat._xmap_key(t) for t in (fc.pres, c1, c2x, s1, unit.lift)}
        for z in range(n):
            if not (x.hom_dim(z, fc.pres.dst) or x.hom_dim(z, c1.dst)
                    or fss.eval_dim(z)):
                skipped += 1
                assert got[z] == {"F": 0, "Fss": 0, "ext1": 0, "ext2": 0}
                assert not [k for k, at in during if at == z and k in loop_maps]
        for z in range(n):
            if not x.hom_dim(z, fc.pres.dst):
                del calls[:]
                fun.CoherentFunctor(x, fc.pres).evaluate(z)
                assert calls == []
    assert skipped


# -- computed once -------------------------------------------------------------------


def _counted(monkeypatch, owner, names):
    calls = []
    for name in names:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    return calls


def test_second_weak_kernel_and_epi_tests_compute_nothing(monkeypatch):
    x = fresh_x("nakayama_a3_rad2_bimodule")
    maps = axioms.sample_morphisms(x, 30, SEED)
    m = next(m for m in maps if not x.is_epi(m)[0] and not m.mor.is_zero)
    w, c = x.weak_kernel(m), x.weak_cokernel(m)
    bad = x.identity(m.src)
    first = {"wk": x.is_weak_kernel(w, m), "bad": x.is_weak_kernel(bad, m),
             "wc": x.is_weak_cokernel(c, m), "epi": x.is_epi(m), "mono": x.is_mono(m)}
    assert first["bad"][1] is not None

    calls = _counted(monkeypatch, SubcategoryX,
                     ["post_matrix", "_is_weak_kernel", "_is_mono", "_post_matrix"])
    again = {"wk": x.is_weak_kernel(copy_xmap(w), copy_xmap(m)),
             "bad": x.is_weak_kernel(copy_xmap(bad), copy_xmap(m)),
             "wc": x.is_weak_cokernel(copy_xmap(c), copy_xmap(m)),
             "epi": x.is_epi(copy_xmap(m)), "mono": x.is_mono(copy_xmap(m))}
    assert calls == []
    assert again == first
    # the info dict is the caller's own copy
    want = dict(first["bad"][1])
    again["bad"][1]["summand"] = -1
    assert x.is_weak_kernel(bad, m)[1] == want


def test_sample_morphisms_is_computed_once_per_arguments(monkeypatch):
    x = fresh_x("serial_x3_generator")
    calls = _counted(monkeypatch, axioms, ["spanning_family"])
    a = axioms.sample_morphisms(x, 20, SEED)
    b = axioms.sample_morphisms(x, 20, SEED)
    assert len(calls) == 1
    assert a is not b and len(a) == len(b) == 20
    assert all(s is t for s, t in zip(a, b))
    b.pop()  # a caller's list is its own
    assert len(axioms.sample_morphisms(x, 20, SEED)) == 20
    axioms.sample_morphisms(x, 20, 7)
    axioms.sample_morphisms(x, 25, SEED)
    axioms.sample_morphisms(x.op, 20, SEED)
    assert len(calls) == 4


def test_shared_hom_basis_arrays_are_read_only():
    x = fresh_x("serial_x3_generator")
    h = x.hom(0, 1)[0]
    with pytest.raises(ValueError):
        h.maps[0][0, 0] = 1
    maps = axioms.sample_morphisms(x, 40, SEED)
    shared = [m for m in maps
              if m.src.parts == (0,) and m.dst.parts == (1,) and m.mor.maps[0] is h.maps[0]]
    assert shared  # spanning_family shares the basis arrays
    for m in maps:
        for t in m.mor.maps:
            assert not t.flags.writeable


@pytest.mark.parametrize("name", ["nakayama_a3_rad2_bimodule", "serial_x3_generator"])
def test_unchecked_constructions_are_reduced_and_shaped(name):
    """Morphisms built without re-reducing equal the checked constructor's."""
    x = fresh_x(name)
    maps = axioms.sample_morphisms(x, 30, SEED)
    built = [m.mor for m in maps]
    for m in maps:
        built += [x.dual_xmap(m).mor, rep.kernel(m.mor)[1],
                  rep.zero_morphism(m.src.rep, m.dst.rep), rep.identity_morphism(m.dst.rep),
                  x.right_approximation(rep.cokernel(m.mor)[0])[1]]
        built += rep.hom_space(m.src.rep, m.dst.rep)
    for f in built:
        checked = rep.ModuleMorphism(f.source, f.target, f.maps)
        assert all(same_array(a, b) for a, b in zip(f.maps, checked.maps))
