"""Projective covers, injective envelopes, radicals and minimal right
approximations against the whole-path-matrix route of `cover_route`, array
for array, and the counts that say which route ran."""
import numpy as np
import pytest

from tiltbench import axioms, rep, subcat
from tiltbench.linalg import PrimeField
from tiltbench.quiver import build_algebra

import cover_route
from conftest import corpus_paths
from test_homological import (_SQUARE, _SQUARE_RELATIONS, _gamma_test_modules,
                              _non_split_gamma, _realize)


def _same(got, want, read_only=True):
    """Equal arrays: shape, dtype and entries; got read-only."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        b = np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
        assert not read_only or not a.flags.writeable


def _check_cover(m):
    cover, verts = rep.projective_cover(m)
    dims, source_maps, maps, want_verts = cover_route.projective_cover(m)
    assert verts == want_verts
    _same([cover.source.dims], [dims])
    _same(cover.source.maps, source_maps)
    _same(cover.maps, maps)
    env, env_verts = rep.injective_envelope(m)
    want_maps, want_verts = cover_route.injective_envelope(m)
    assert env_verts == want_verts
    _same(env.maps, want_maps)
    _same(rep.radical_subspaces(m), cover_route.radical_subspaces(m), read_only=False)


def _check_approximation(x, a):
    xobj, ev = x.right_approximation(a)
    parts, maps = cover_route.right_approximation(x, a)
    assert list(xobj.parts) == parts
    _same(ev.maps, maps)


def _with_resolutions(mods):
    return mods + [rep.syzygy(a) for a in mods] + [rep.cosyzygy(a) for a in mods]


def _generator_cogenerator(alg):
    """add of the projectives and injectives over alg."""
    verts = range(alg.quiver.num_vertices)
    parts = alg.projective_leaves() + [rep.injective(alg, v) for v in verts]
    return subcat.SubcategoryX(alg, rep.sum_module(alg, parts))


@pytest.mark.parametrize("name", [p.stem for p in corpus_paths()])
def test_lambda_covers_and_approximations_equal_the_path_matrix_route(name):
    """On x and x.op: the test modules at 10 trials and seed 42, their
    syzygies and cosyzygies, and the kernels of the sampled morphisms."""
    x = _realize(name)
    for side in (x, x.op):
        mods = _with_resolutions(
            [a for a, _ in axioms.generate_test_modules(side, trials=10, seed=42)])
        mods += [rep.kernel(f.mor)[0] for f in axioms.sample_morphisms(side, 10, 42)]
        for a in mods:
            _check_cover(a)
            _check_approximation(side, a)


_GAMMA_JOBS = ["serial_x3_generator", "nakayama_a3_rad2_bimodule", "hereditary_a3_proj_inj"]


def _algebra_case(case):
    """(algebra, test modules): Gamma or Gamma^op, presented, of a corpus
    job; the non-split Gamma over F_101 (a simple with End F_{101^2}) or its
    opposite; a square algebra."""
    if case in _SQUARE_RELATIONS:
        alg = build_algebra(_SQUARE, _SQUARE_RELATIONS[case], PrimeField(101))
        verts = range(alg.quiver.num_vertices)
        base = ([rep.simple(alg, v) for v in verts] + alg.projective_leaves()
                + [rep.injective(alg, v) for v in verts])
        return alg, _with_resolutions(base + [rep.sum_module(alg, base)])
    side, job = case.split(":")
    g = _non_split_gamma() if job == "non-split" else _realize(job).endomorphism_algebra()
    assert (g.radical_arrows != list(range(len(g.quiver.arrows)))) == (job == "non-split")
    g = g.opposite if side == "op" else g
    return g, _gamma_test_modules(g)


@pytest.mark.parametrize("case", [f"{side}:{job}" for job in [*_GAMMA_JOBS, "non-split"]
                                  for side in ("gamma", "op")] + list(_SQUARE_RELATIONS))
def test_gamma_and_square_covers_equal_the_path_matrix_route(case):
    """Over each algebra its test modules, covered, and approximated by the
    add of its projectives and injectives."""
    alg, mods = _algebra_case(case)
    x = _generator_cogenerator(alg)
    for a in mods:
        _check_cover(a)
        _check_approximation(x, a)


@pytest.mark.parametrize("name, d", [("serial_x4_generator", 1),
                                     ("nakayama_a3_rad2_bimodule", 2)])
def test_covers_contract_nothing_and_the_scan_composes_nothing(name, d, monkeypatch):
    """Counts, not times: inside `rep._projective_cover` no `np.tensordot`,
    inside `SubcategoryX._minimize_blocks` no `ModuleMorphism.compose`."""
    x = _realize(name)
    counts = {"covers": 0, "tensordot": 0, "scans": 0, "compose": 0}
    inside = {"cover": 0, "scan": 0}
    real_cover, real_scan = rep._projective_cover, subcat.SubcategoryX._minimize_blocks
    real_tensordot, real_compose = np.tensordot, rep.ModuleMorphism.compose

    def projective_cover(m):
        counts["covers"] += 1
        inside["cover"] += 1
        try:
            return real_cover(m)
        finally:
            inside["cover"] -= 1

    def minimize_blocks(self, parts, blocks):
        counts["scans"] += 1
        inside["scan"] += 1
        try:
            return real_scan(self, parts, blocks)
        finally:
            inside["scan"] -= 1

    def tensordot(*args, **kwargs):
        counts["tensordot"] += inside["cover"] > 0
        return real_tensordot(*args, **kwargs)

    def compose(self, other):
        counts["compose"] += inside["scan"] > 0
        return real_compose(self, other)

    monkeypatch.setattr(rep, "_projective_cover", projective_cover)
    monkeypatch.setattr(subcat.SubcategoryX, "_minimize_blocks", minimize_blocks)
    monkeypatch.setattr(np, "tensordot", tensordot)
    monkeypatch.setattr(rep.ModuleMorphism, "compose", compose)
    assert axioms.classify_d_precluster(x, d, trials=10, seed=42).status == "certified-pass"
    assert axioms.classify_d_cluster_tilting(x, d, trials=10, seed=42).status == "certified-pass"
    assert counts["covers"] and counts["scans"]
    assert counts["tensordot"] == 0 and counts["compose"] == 0
