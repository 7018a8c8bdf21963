"""The add(M) coordinate layer reads the per-summand caches.

* Hom between X-objects is block diagonal over the parts: `obj_post_matrix`,
  `obj_coords`, `obj_from_coords` and `obj_pre_matrix` must give the arrays
  of the composition route (`composition_route`), on x and x.op.
* Ext^k(M_i, -) is additive: `_ext_vanishing_witness` and `_perp_witness`
  test against the sum of the summands first and must name the witness the
  per-pair loops (kept here) name.
* No empty matrix reaches the field's memoized entry points from `functors`
  or from `subcat`'s `delta`, `_is_weak_kernel` and `_is_mono`, nor
  `solve_many` from the sampled checks.

Counts only, never wall-clock times.
"""
import random
import sys

import numpy as np
import pytest

from tiltbench import axioms, functors as fun, jobspec, subcat
from tiltbench.linalg import PrimeField
from tiltbench.subcat import XMap

import composition_route as ref
from conftest import CORPUS_DIR, corpus_paths, rad2_x

SEED = 42


def fresh_x(name):
    return rad2_x(9, 2) if name == "kA9_rad2" else \
        jobspec.ingest(CORPUS_DIR / f"{name}.json").realize().x


def same_array(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)


# -- X-object coordinates against the composition route ------------------------


def _objects(x, rng, count):
    """count X-objects: the zero object, a repeated part, the first three
    summands, then random tuples of one to three parts, repeats allowed."""
    n = len(x.summands)
    parts = [(), (n - 1, n - 1), tuple(range(min(n, 3)))]
    parts += [tuple(rng.randrange(n) for _ in range(rng.randrange(1, 4)))
              for _ in range(count - 3)]
    return [x.obj(p) for p in parts]


@pytest.mark.parametrize("name", [p.stem for p in corpus_paths()] + ["kA9_rad2"])
@pytest.mark.parametrize("side", ["x", "op"])
def test_xobject_coordinates_equal_the_composition_route(name, side):
    x = fresh_x(name)
    x = x.op if side == "op" else x
    p = x.field.p
    rng = random.Random(SEED)
    objs = _objects(x, rng, 7)
    nonzero = 0
    for xa in objs:
        for xb in objs:
            dim = x.obj_dim(xa, xb)
            assert dim == len(ref.obj_hom(x, xa, xb))
            coords = np.array([rng.randrange(p) for _ in range(dim)], dtype=np.int64)
            got = x.obj_from_coords(xa, xb, coords)
            want = ref.obj_from_coords(x, xa, xb, coords)
            assert all(same_array(s, t) for s, t in zip(got.maps, want.maps))
            assert same_array(x.obj_coords(xa, xb, got), ref.obj_coords(x, xa, xb, want))
            assert np.array_equal(x.obj_coords(xa, xb, got), coords)
            m = XMap(xa, xb, got)
            for xc in objs[:4] + [xa, xb]:
                assert same_array(x.obj_post_matrix(m, xc), ref.obj_post_matrix(x, m, xc))
                assert same_array(x.obj_pre_matrix(m, xc), ref.obj_pre_matrix(x, m, xc))
            nonzero += bool(coords.any())
    assert nonzero


# -- Ext against the sum of the summands -------------------------------------------


def ref_ext_vanishing_witness(x, d):
    for i in range(len(x.summands)):
        for j in range(len(x.summands)):
            for k in range(1, d):
                dim = subcat.ext_dim(x.summands[i], x.summands[j], k)
                if dim:
                    return {"kind": "ext-nonvanishing", "source_summand": i,
                            "target_summand": j, "degree": k, "dim": dim}
    return None


def ref_perp_witness(x, d, a, desc):
    member = x.contains(a)
    left = right = True
    left_detail = right_detail = None
    for j in range(len(x.summands)):
        for i in range(1, d):
            if subcat.ext_dim(a, x.summands[j], i):
                left = False
                left_detail = {"degree": i, "summand": j, "side": "Ext(A, M)"}
                break
        if not left:
            break
    for j in range(len(x.summands)):
        for i in range(1, d):
            if subcat.ext_dim(x.summands[j], a, i):
                right = False
                right_detail = {"degree": i, "summand": j, "side": "Ext(M, A)"}
                break
        if not right:
            break
    if member == left and member == right:
        return None
    detail = (left_detail if member != left else right_detail)
    return {"kind": "perp-mismatch", "module": desc, "member": member,
            "in_left_perp": left, "in_right_perp": right,
            "perp_detail": detail}


@pytest.mark.parametrize("name", [p.stem for p in corpus_paths()])
def test_ext_vanishing_witness_equals_the_per_pair_loop(name):
    x = fresh_x(name)
    for d in range(1, 5):
        for side in (x, x.op):
            assert axioms._ext_vanishing_witness(side, d) == ref_ext_vanishing_witness(side, d)


@pytest.mark.parametrize("name", ["linear_a2_generator", "nakayama_a3_rad2_bimodule",
                                  "hereditary_a3_proj_inj", "serial_x3_generator"])
def test_perp_witness_equals_the_per_pair_loop(name):
    x = fresh_x(name)
    mods = axioms.generate_test_modules(x, trials=10, seed=SEED)
    left_fails = 0
    for d in range(1, 5):
        for a, desc in mods:
            assert axioms._perp_witness(x, d, a, desc) == ref_perp_witness(x, d, a, desc)
            left_fails += any(subcat.ext_dim(a, s, i) for s in x.summands for i in range(1, d))
    assert left_fails  # the sum was non-zero somewhere, so the pair loop ran


def test_ext_vanishing_builds_one_complex_per_summand_and_degree(monkeypatch):
    """On a d-rigid pass whose Ext vanishes, each (i, k) builds one Hom
    complex, against the sum of the summands (the per-pair loop builds one
    per (i, j, k))."""
    x = fresh_x("nakayama_a4_rad2_bimodule")
    d = 3
    targets = []
    real = subcat._hom_complex_diff
    monkeypatch.setattr(subcat, "_hom_complex_diff", lambda diff, hi, lo, b:
                        targets.append(b.total_dim) or real(diff, hi, lo, b))
    verdict = axioms.check_d_rigid(x, d, 10, SEED)
    assert verdict.status == "certified-pass"
    total = sum(s.total_dim for s in x.summands)
    assert len(targets) == len(x.summands) * d
    assert set(targets) == {total}


# -- no empty matrix reaches the field from the skipping routines -------------------


_ENTRY_POINTS = ("rank", "nullspace", "solve_many", "column_reduce", "quotient_projection")
_SUBCAT_TESTS = ("delta", "_is_weak_kernel", "_is_mono")


def test_no_empty_matrix_reaches_the_field_from_functors_or_subcat_tests(monkeypatch):
    calls = {"functors": 0, **{name: 0 for name in _SUBCAT_TESTS}}
    empty = []
    for entry in _ENTRY_POINTS:
        real = getattr(PrimeField, entry)

        def counted(self, *args, _real=real, _entry=entry):
            code = sys._getframe(1).f_code
            where = ("functors" if code.co_filename == fun.__file__
                     else code.co_name if code.co_filename == subcat.__file__
                     and code.co_name in _SUBCAT_TESTS else None)
            if where is not None:
                calls[where] += 1
                if any(isinstance(a, np.ndarray) and not a.size for a in args):
                    empty.append((where, _entry))
            return _real(self, *args)
        monkeypatch.setattr(PrimeField, entry, counted)
    # empty blocks do occur: the functor helpers meet them
    met = []
    for helper in ("_rank", "_nullspace", "_span", "_quotient", "_solve"):
        real = getattr(fun, helper)
        monkeypatch.setattr(fun, helper, lambda F, m, *rest, _real=real:
                            met.append(not m.size) or _real(F, m, *rest))

    x = fresh_x("nakayama_a4_rad2_bimodule")
    for m in axioms.sample_morphisms(x, 20, SEED):
        fc, _ = fun.cokernel_functor(fun.yoneda_morphism(x, m))
        fun.psi_tilde(fc)
        fun.is_effaceable(fc)
        fun.verify_star_adjunction_sequences(fc)
        fun.hom_functors(fc, fun.CoherentFunctor.yoneda(x, m.dst))
        fun.functor_ext_yoneda(fc, 0, 1)
    axioms.check_A2_A2op(x, 20, SEED)
    axioms.check_d_rigid(x, 3, 20, SEED)
    assert all(calls.values()), calls
    assert any(met) and not all(met)
    assert empty == []


@pytest.mark.parametrize("name", ["nakayama_a4_rad2_bimodule", "semisimple_pair", "kA9_rad2"])
def test_no_empty_matrix_reaches_solve_many_from_the_sampled_checks(name, monkeypatch):
    """A3 factors f through the weak kernel h by solving Hom(f's source, h);
    that system is empty when Hom from f's source to an end of h is 0,
    which the checks meet on every job, and it is answered without the
    field."""
    solved, empty, met = [], [], []
    real = PrimeField.solve_many

    def counted(self, *args):
        solved.append(sys._getframe(1).f_code.co_name)
        if any(isinstance(a, np.ndarray) and not a.size for a in args):
            empty.append(solved[-1])
        return real(self, *args)
    monkeypatch.setattr(PrimeField, "solve_many", counted)
    real_post = subcat.SubcategoryX.obj_post_matrix

    def post(self, m, xa):
        out = real_post(self, m, xa)
        if sys._getframe(1).f_code.co_name == "_a3_witness":
            met.append(not out.size)
        return out
    monkeypatch.setattr(subcat.SubcategoryX, "obj_post_matrix", post)

    x = fresh_x(name)
    for check in (axioms.check_A1_A1op, axioms.check_A2_A2op, axioms.check_A3_A3op):
        check(x, 20, SEED)
    axioms.check_d_rigid(x, 2, 20, SEED)
    axioms.check_A4d(x, 2, 20, SEED)
    assert "_a3_witness" in solved and any(met) and not all(met)
    assert empty == []


def _localization_calls(x):
    """The functor layer over sampled morphisms, as the benchmark's
    localization jobs drive it."""
    for m in axioms.sample_morphisms(x, 20, SEED):
        fc, _ = fun.cokernel_functor(fun.yoneda_morphism(x, m))
        fun.psi_tilde(fc)
        fun.is_effaceable(fc)
        fun.verify_star_adjunction_sequences(fc)


def test_functors_build_no_identity_for_an_empty_matrix(monkeypatch):
    """The empty-matrix answers of `functors` hand back one shared
    read-only identity per size: once a pass has met each size, a second
    pass calls numpy.eye from `functors` not once."""
    x = fresh_x("nakayama_a4_rad2_bimodule")
    _localization_calls(x)
    eyes, met = [], []
    real_eye = np.eye
    monkeypatch.setattr(np, "eye", lambda *a, **k: eyes.append(
        sys._getframe(1).f_code.co_filename) or real_eye(*a, **k))
    for helper in ("_nullspace", "_quotient"):
        real = getattr(fun, helper)
        monkeypatch.setattr(fun, helper, lambda F, m, *rest, _real=real:
                            met.append(_real(F, m, *rest)) or met[-1])
    _localization_calls(x)
    identities = [a for got in met for a in (got if isinstance(got, tuple) else (got,))
                  if a.shape[0] == a.shape[1] and np.array_equal(a, np.identity(len(a)))]
    assert identities  # the empty answers were met
    assert not any(a.flags.writeable for a in identities)
    assert fun.__file__ not in eyes

