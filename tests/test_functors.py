"""Finitely presented functors on add(M): Yoneda embedding, cokernels,
effaceability, evaluation of the localization, and the
four-term comparison sequences."""
import numpy as np
import pytest

from tiltbench import functors as fun
from tiltbench import rep, subcat

from conftest import make_x


def as_xmap(x, mor):
    xs, iso_s = x.embed(mor.source)
    xd, iso_d = x.embed(mor.target)
    return subcat.XMap(xs, xd,
                       rep.invert_morphism(iso_d).compose(mor).compose(iso_s))


def functor_vanishes(f):
    return all(f.eval_dim(z) == 0 for z in range(len(f.subcat.summands)))


def morphism_vanishes(phi):
    """phi is zero when its lift factors through the target's presentation."""
    x = phi.source.subcat
    g = phi.target.pres
    mat = x.obj_post_matrix(g, phi.source.pres.dst)
    want = x.obj_coords(phi.source.pres.dst, g.dst, phi.lift.mor)
    return x.field.solve_many(mat, want.reshape(-1, 1)) is not None


def yoneda_at(x, i):
    return fun.CoherentFunctor.yoneda(x, x.obj((i,)))


def assert_localization_hom_identity(x, fc):
    """dim Hom(F, Yoneda X_i) must equal dim Hom(psi F, X_i), and agree
    with the degree-0 functor Ext."""
    m = fun.psi_tilde(fc)
    for i in range(len(x.summands)):
        lhs = len(fun.hom_functors(fc, yoneda_at(x, i)))
        rhs = len(rep.hom_space(m, x.summands[i]))
        assert lhs == rhs, (i, lhs, rhs)
        assert fun.functor_ext_yoneda(fc, i, 0) == lhs


@pytest.fixture(scope="module")
def x_ct(a2):
    return make_x(a2, [rep.projective(a2, 0), rep.projective(a2, 1),
                       rep.simple(a2, 0)])


@pytest.fixture(scope="module")
def funcs(a2, x_ct):
    """F = coker Yoneda(radical inclusion), G = coker Yoneda(cover)."""
    incl = rep.hom_space(rep.projective(a2, 1), rep.projective(a2, 0))[0]
    fq, proj_f = fun.cokernel_functor(fun.yoneda_morphism(x_ct, as_xmap(x_ct, incl)))
    cover = rep.projective_cover(rep.simple(a2, 0))[0]
    gq, _ = fun.cokernel_functor(fun.yoneda_morphism(x_ct, as_xmap(x_ct, cover)))
    return fq, proj_f, gq


class TestYoneda:
    def test_evaluation_is_hom(self, x_ct):
        for i in range(3):
            yi = yoneda_at(x_ct, i)
            for z in range(3):
                assert yi.eval_dim(z) == len(x_ct.hom(z, i))

    def test_yoneda_lemma(self, x_ct, funcs):
        fq, _, gq = funcs
        for fc in (fq, gq):
            for z in range(3):
                assert len(fun.hom_functors(yoneda_at(x_ct, z), fc)) == \
                    fc.eval_dim(z)

    def test_projectives_have_no_higher_ext(self, x_ct):
        y0 = yoneda_at(x_ct, 0)
        for z in range(3):
            assert fun.functor_ext_yoneda(y0, z, 1) == 0
            assert fun.functor_ext_yoneda(y0, z, 2) == 0


class TestCokernelAndLocalization:
    def test_cokernel_of_radical_map(self, a2, x_ct, funcs):
        fq, proj_f, _ = funcs
        assert [fq.eval_dim(z) for z in range(3)] == [1, 0, 0]
        assert functor_vanishes(fun.cokernel_functor(proj_f)[0])  # the projection is epi
        assert rep.is_isomorphic(fun.psi_tilde(fq), rep.simple(a2, 0))
        eff, witness = fun.is_effaceable(fq)
        assert not eff and witness is not None

    def test_effaceable_functor(self, x_ct, funcs):
        _, _, gq = funcs
        assert [gq.eval_dim(z) for z in range(3)] == [0, 0, 1]
        assert fun.is_effaceable(gq)[0]
        assert fun.psi_tilde(gq).is_zero

    def test_localization_hom_identity(self, x_ct, funcs):
        fq, _, gq = funcs
        assert_localization_hom_identity(x_ct, fq)
        assert_localization_hom_identity(x_ct, gq)
        assert_localization_hom_identity(x_ct, yoneda_at(x_ct, 0))
        assert len(fun.hom_functors(fq, fq)) == 1

    def test_identity_morphism(self, x_ct, funcs):
        fq, _, _ = funcs
        x0 = fq.pres.dst
        idm = fun.FunctorMorphism(fq, fq, subcat.XMap(x0, x0, rep.identity_morphism(x0.rep)),
                                  verify=False)
        assert not morphism_vanishes(idm)
        for z in range(3):
            got = idm.eval_matrix(z)
            n = fq.eval_dim(z)
            assert np.array_equal(got, np.eye(n, dtype=np.int64))

    def test_effaceability_ignores_presentation(self, x_ct, funcs):
        fq, _, gq = funcs
        for orig in (fq, gq):
            z = subcat.XMap(x_ct.obj((1,)), orig.pres.dst,
                            rep.zero_morphism(x_ct.obj((1,)).rep,
                                              orig.pres.dst.rep))
            padded = fun.CoherentFunctor(
                x_ct, fun.concat_xmaps_cols(x_ct, [orig.pres, z], orig.pres.dst))
            assert [padded.eval_dim(v) for v in range(3)] == \
                [orig.eval_dim(v) for v in range(3)]
            assert fun.is_effaceable(padded)[0] == fun.is_effaceable(orig)[0]


class TestStarAndFourTerm:
    def test_star_of_yoneda_is_opposite_yoneda(self, x_ct):
        y0s = fun.star(yoneda_at(x_ct, 0))
        assert [y0s.eval_dim(z) for z in range(3)] == \
            [len(x_ct.hom(0, z)) for z in range(3)]

    def test_unit_iso_on_projectives(self, x_ct):
        for i in range(3):
            report = fun.verify_star_adjunction_sequences(yoneda_at(x_ct, i))
            for z, d in report.items():
                assert d["ext1"] == 0 and d["ext2"] == 0
                assert d["F"] == d["Fss"]

    def test_four_term_on_effaceable(self, x_ct, funcs):
        _, _, gq = funcs
        report = fun.verify_star_adjunction_sequences(gq)
        for z, d in report.items():
            # the star of an effaceable functor vanishes
            assert d["Fss"] == 0 and d["ext1"] == d["F"] and d["ext2"] == 0

    def test_four_term_on_star_side(self, funcs):
        fq, _, gq = funcs
        fun.verify_star_adjunction_sequences(fun.star(fq))
        fun.verify_star_adjunction_sequences(fun.star(gq))

    def test_zero_functor(self, x_ct):
        z0 = x_ct.zero_obj()
        z = fun.CoherentFunctor(x_ct, subcat.XMap(z0, z0, rep.zero_morphism(z0.rep, z0.rep)))
        assert functor_vanishes(z)
        fun.verify_star_adjunction_sequences(z)

    def test_effaceables_have_no_low_ext(self, x_ct, funcs):
        _, _, gq = funcs
        for z in range(3):
            assert fun.functor_ext_yoneda(gq, z, 0) == 0
            assert fun.functor_ext_yoneda(gq, z, 1) == 0


@pytest.fixture(scope="module")
def xk(kx2):
    return make_x(kx2, [rep.projective(kx2, 0), rep.simple(kx2, 0)])


class TestSelfinjectiveBase:
    def test_multiplication_cokernel(self, kx2, xk):
        L = rep.projective(kx2, 0)
        xmul = rep.ModuleMorphism(L, L, [L.maps[0]])
        h, _ = fun.cokernel_functor(fun.yoneda_morphism(xk, as_xmap(xk, xmul)))
        assert [h.eval_dim(z) for z in range(2)] == [1, 1]
        assert rep.is_isomorphic(fun.psi_tilde(h), rep.simple(kx2, 0))
        assert not fun.is_effaceable(h)[0]
        assert_localization_hom_identity(xk, h)

    def test_effaceable_matches_vanishing(self, kx2, xk):
        L = rep.projective(kx2, 0)
        xmul = rep.ModuleMorphism(L, L, [L.maps[0]])
        cover = rep.projective_cover(rep.simple(kx2, 0))[0]
        for m in (xmul, cover):
            fc, _ = fun.cokernel_functor(fun.yoneda_morphism(xk, as_xmap(xk, m)))
            eff, _ = fun.is_effaceable(fc)
            assert eff == fun.psi_tilde(fc).is_zero
            fun.verify_star_adjunction_sequences(fc)


class TestNonCogeneratingCaveat:
    def test_effaceable_no_longer_implies_vanishing(self, a2):
        # over add(Lambda) the radical inclusion is a relative epi, so its
        # cokernel functor is effaceable while the localization is S1
        xl = make_x(a2, [rep.projective(a2, 0), rep.projective(a2, 1)])
        incl = rep.hom_space(rep.projective(a2, 1), rep.projective(a2, 0))[0]
        fs, _ = fun.cokernel_functor(fun.yoneda_morphism(xl, as_xmap(xl, incl)))
        assert fun.is_effaceable(fs)[0]
        assert rep.is_isomorphic(fun.psi_tilde(fs), rep.simple(a2, 0))
        # the hom identity and the four-term sequences hold regardless
        assert_localization_hom_identity(xl, fs)
        fun.verify_star_adjunction_sequences(fs)

    def test_vanishing_still_implies_effaceable(self, a2):
        xl = make_x(a2, [rep.projective(a2, 0), rep.projective(a2, 1)])
        cov = rep.projective_cover(rep.projective(a2, 0))[0]
        t0, _ = fun.cokernel_functor(fun.yoneda_morphism(xl, as_xmap(xl, cov)))
        assert fun.psi_tilde(t0).is_zero
        assert fun.is_effaceable(t0)[0]
