"""Frozen verdicts for the bundled job corpus.

Every entry's report at the default seed/trials is pinned below:
(check name, status, witness kind).  A change here means either a corpus
edit or a behavioral change in a checker — both deserve a close look.

The two Nakayama entries carry declared indecomposable lists; the oracle
class at the bottom certifies those lists really enumerate the
indecomposables (local endomorphism rings, pairwise non-isomorphic, and
closed under kernels and cokernels of sampled maps between projectives).
"""
import hashlib

import numpy as np
import pytest

from tiltbench import jobspec, rep, report

from conftest import projectives

EXPECTED = {
    "hereditary_a3_proj_inj": ("fail", [
        ("A0", "certified-pass", None),
        ("A1+A1op", "certified-pass", None),
        ("A2+A2op", "certified-pass", None),
        ("A3+A3op", "sampled-pass", None),
        ("gen-cogen-ff", "certified-pass", None),
        ("1-Rigid", "certified-pass", None),
        ("A4.1+op", "fail", "a4-chain-end"),
        ("1-precluster-tilting", "fail", "tau-escapes"),
        ("1-cluster-tilting", "fail", "coresolution-overruns"),
        ("1-abelian", "fail", "d-cokernel-missing"),
    ]),
    "hereditary_a3_regular_only": ("fail", [
        ("A1+A1op", "certified-pass", None),
        ("A2+A2op", "fail", "epi-not-weak-cokernel"),
        ("A3+A3op", "sampled-pass", None),
        ("gen-cogen-ff", "fail", "missing-injective"),
        ("1-cluster-tilting", "fail", "missing-injective"),
        ("1-abelian", "fail", "axiom-fails"),
    ]),
    "linear_a2_generator": ("pass", [
        ("A0", "certified-pass", None),
        ("A1+A1op", "certified-pass", None),
        ("A2+A2op", "certified-pass", None),
        ("A3+A3op", "sampled-pass", None),
        ("gen-cogen-ff", "certified-pass", None),
        ("1-Rigid", "certified-pass", None),
        ("A4.1+op", "sampled-pass", None),
        ("1-precluster-tilting", "certified-pass", None),
        ("1-cluster-tilting", "certified-pass", None),
        ("1-abelian", "sampled-pass", None),
    ]),
    "nakayama_a3_rad2_bimodule": ("fail", [
        ("A0", "certified-pass", None),
        ("A1+A1op", "certified-pass", None),
        ("A2+A2op", "certified-pass", None),
        ("A3+A3op", "sampled-pass", None),
        ("gen-cogen-ff", "certified-pass", None),
        ("1-Rigid", "certified-pass", None),
        ("2-Rigid", "certified-pass", None),
        ("3-Rigid", "fail", "ext-nonvanishing"),
        ("A4.2+op", "sampled-pass", None),
        ("2-precluster-tilting", "certified-pass", None),
        ("1-cluster-tilting", "fail", "coresolution-overruns"),
        ("2-cluster-tilting", "certified-pass", None),
        ("1-abelian", "fail", "d-kernel-missing"),
        ("2-abelian", "sampled-pass", None),
    ]),
    "nakayama_a3_rad2_regular_only": ("fail", [
        ("A1+A1op", "certified-pass", None),
        ("A2+A2op", "sampled-pass", None),
        ("A3+A3op", "sampled-pass", None),
        ("gen-cogen-ff", "fail", "missing-injective"),
        ("1-Rigid", "sampled-pass", None),
        ("1-cluster-tilting", "fail", "missing-injective"),
        ("1-abelian", "fail", "d-cokernel-missing"),
    ]),
    "nakayama_a4_rad2_bimodule": ("fail", [
        ("A0", "certified-pass", None),
        ("A1+A1op", "certified-pass", None),
        ("A2+A2op", "certified-pass", None),
        ("A3+A3op", "sampled-pass", None),
        ("gen-cogen-ff", "certified-pass", None),
        ("2-Rigid", "certified-pass", None),
        ("3-Rigid", "certified-pass", None),
        ("A4.3+op", "sampled-pass", None),
        ("3-precluster-tilting", "certified-pass", None),
        ("2-cluster-tilting", "fail", "resolution-overruns"),
        ("3-cluster-tilting", "certified-pass", None),
        ("2-abelian", "fail", "d-kernel-missing"),
        ("3-abelian", "sampled-pass", None),
    ]),
    "regular_only_a2": ("fail", [
        ("A1+A1op", "certified-pass", None),
        ("A2+A2op", "fail", "epi-not-weak-cokernel"),
        ("A3+A3op", "sampled-pass", None),
        ("gen-cogen-ff", "fail", "missing-injective"),
        ("1-Rigid", "fail", "chain-breaks"),
        ("1-cluster-tilting", "fail", "missing-injective"),
        ("1-abelian", "fail", "axiom-fails"),
    ]),
    "semisimple_pair": ("pass", [
        ("A0", "certified-pass", None),
        ("A1+A1op", "certified-pass", None),
        ("A2+A2op", "certified-pass", None),
        ("A3+A3op", "sampled-pass", None),
        ("gen-cogen-ff", "certified-pass", None),
        ("1-Rigid", "certified-pass", None),
        ("2-Rigid", "certified-pass", None),
        ("3-Rigid", "certified-pass", None),
        ("A4.1+op", "sampled-pass", None),
        ("A4.2+op", "sampled-pass", None),
        ("1-precluster-tilting", "certified-pass", None),
        ("2-precluster-tilting", "certified-pass", None),
        ("1-cluster-tilting", "certified-pass", None),
        ("2-cluster-tilting", "certified-pass", None),
        ("1-abelian", "sampled-pass", None),
        ("2-abelian", "sampled-pass", None),
    ]),
    "serial_x2_generator": ("fail", [
        ("A0", "certified-pass", None),
        ("A1+A1op", "certified-pass", None),
        ("A2+A2op", "certified-pass", None),
        ("A3+A3op", "sampled-pass", None),
        ("gen-cogen-ff", "certified-pass", None),
        ("1-Rigid", "certified-pass", None),
        ("2-Rigid", "fail", "ext-nonvanishing"),
        ("3-Rigid", "fail", "ext-nonvanishing"),
        ("A4.1+op", "sampled-pass", None),
        ("1-precluster-tilting", "certified-pass", None),
        ("1-cluster-tilting", "certified-pass", None),
        ("1-abelian", "sampled-pass", None),
    ]),
    "serial_x2_regular": ("fail", [
        ("A0", "certified-pass", None),
        ("A1+A1op", "certified-pass", None),
        ("A2+A2op", "certified-pass", None),
        ("A3+A3op", "sampled-pass", None),
        ("gen-cogen-ff", "certified-pass", None),
        ("1-Rigid", "certified-pass", None),
        ("A4.1+op", "sampled-pass", None),
        ("1-precluster-tilting", "certified-pass", None),
        ("1-cluster-tilting", "fail", "coresolution-overruns"),
        ("1-abelian", "fail", "d-kernel-missing"),
    ]),
    "serial_x3_generator": ("fail", [
        ("A0", "certified-pass", None),
        ("A1+A1op", "certified-pass", None),
        ("A2+A2op", "certified-pass", None),
        ("A3+A3op", "sampled-pass", None),
        ("gen-cogen-ff", "certified-pass", None),
        ("1-Rigid", "certified-pass", None),
        ("2-Rigid", "fail", "ext-nonvanishing"),
        ("3-Rigid", "fail", "ext-nonvanishing"),
        ("A4.1+op", "sampled-pass", None),
        ("1-precluster-tilting", "certified-pass", None),
        ("1-cluster-tilting", "certified-pass", None),
        ("1-abelian", "sampled-pass", None),
    ]),
    "serial_x4_generator": ("fail", [
        ("A0", "certified-pass", None),
        ("A1+A1op", "certified-pass", None),
        ("A2+A2op", "certified-pass", None),
        ("A3+A3op", "sampled-pass", None),
        ("gen-cogen-ff", "certified-pass", None),
        ("1-Rigid", "certified-pass", None),
        ("2-Rigid", "fail", "ext-nonvanishing"),
        ("A4.1+op", "sampled-pass", None),
        ("1-precluster-tilting", "certified-pass", None),
        ("1-cluster-tilting", "certified-pass", None),
        ("1-abelian", "sampled-pass", None),
    ]),
}


def test_inventory(corpus):
    assert sorted(corpus.names()) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_frozen_verdicts(corpus, name):
    status, rows = EXPECTED[name]
    rpt = corpus.report(name)
    assert rpt.status == status
    got = [(v.name,
            v.status,
            v.witness.get("kind") if isinstance(v.witness, dict) else None)
           for v in rpt.verdicts]
    assert got == rows


# sha256 of each entry's `--report json` text at seed 42 and 100 trials.  The
# report is a pure function of (job, seed, trials), so these hold across
# refactors and speed-ups; only a verdict change or a report-format change
# (both to be named in CHANGES.md) may move them.
GOLDEN_REPORT_SHA256 = {
    "hereditary_a3_proj_inj":
        "cd2257c2959cd97e06e9dd90da5948031b924bd0ef4a7026e1927f1b04b53839",
    "hereditary_a3_regular_only":
        "3d956e564985c264f6a627e36d258c00f2d6a39beacef5b5ee29ec1074ddd41e",
    "linear_a2_generator":
        "c4e3a0e089419ad0ea20f38a3427459d3cd684bb65e014203ed7458f16bdae2e",
    "nakayama_a3_rad2_bimodule":
        "43b09483c6b5fb73680eaad872a4ff9b98d422ab347580b67a2da60c0e1f3537",
    "nakayama_a3_rad2_regular_only":
        "9014258971059f325a05dd03880cb797adf17d83eb7eca33b6602e253069539a",
    "nakayama_a4_rad2_bimodule":
        "cd2939cde61dc747f0be76de692fad39a2c09ff0df9998d641b154aed59c7f4e",
    "regular_only_a2":
        "7ea526912043cbc2cbd353442694b423b5058071e13a6bf8b8221d61409e8dfd",
    "semisimple_pair":
        "3524d31386d3672f904b782dce2fb6baf28f81cda10f2571d79f6a5597450ab5",
    "serial_x2_generator":
        "f8272b401c55bb6eb0273cb41ff0bf4e261e516861dd6c02b14ef388c92e82ce",
    "serial_x2_regular":
        "65e67b87d8f9bb8796480820013ae8bce7739b49f5dbd60bd98f9000602121a9",
    "serial_x3_generator":
        "df8fc7ab4f27e3ccdfe7ae519b15bfc589f00052e3dfc2d1fe0d9df4a63613bd",
    "serial_x4_generator":
        "b3e2154116ea3ad1e72c4b81c0486cd4924169bbbb54305c14425ca7a5caaf50",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_golden_report_bytes(corpus, name):
    text = report.emit_json(corpus.report(name))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORT_SHA256[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_reports_are_wired_to_their_jobs(corpus, name):
    rpt = corpus.report(name)
    assert rpt.name == name
    assert rpt.seed == 42 and rpt.trials == 100
    assert rpt.disagreement is None


def test_certified_gen_cogen_reads_both_theorems_true(corpus):
    """Where membership certifies gen-cogen, the sampled axioms and the
    dominant dimension agree (a disagreement would be exit 3); nine corpus
    jobs carry the certificate."""
    certified = [name for name in sorted(EXPECTED)
                 if corpus.verdict(name, "gen-cogen-ff").status == "certified-pass"]
    assert len(certified) == 9
    for name in certified:
        details = corpus.verdict(name, "gen-cogen-ff").details
        assert details["axioms_consistent"] is True, name
        assert details["morita_tachikawa_consistent"] is True, name


class TestDeclaredListsAreComplete:
    """For a serial radical-square-zero path algebra on n vertices the
    indecomposables are exactly the n projectives and the n-1 simples at
    non-sink vertices; the corpus declares precisely those."""

    @pytest.fixture(params=["nakayama_a3_rad2_bimodule",
                            "nakayama_a4_rad2_bimodule"])
    def realized(self, request, corpus):
        job = corpus.spec(request.param).realize()
        n = len(job.algebra.quiver.vertices)
        return job, n

    def test_count_and_distinctness(self, realized):
        job, n = realized
        decl = job.declared
        assert len(decl) == 2 * n - 1
        for m in decl:
            leaves = rep.decompose(m)
            assert len(leaves) == 1  # indecomposable
        for i in range(len(decl)):
            for j in range(i + 1, len(decl)):
                assert not rep.is_isomorphic(decl[i], decl[j])

    def test_closed_under_kernels_and_cokernels(self, realized):
        job, n = realized
        decl = job.declared
        projs = projectives(job.algebra)
        rng = np.random.default_rng(7)
        field = job.algebra.field
        seen_nonsplit = 0
        for _ in range(120):
            i, j = rng.integers(0, len(projs), size=2)
            src, tgt = projs[i], projs[j]
            basis = rep.hom_space(src, tgt)
            if not basis:
                continue
            coeffs = rng.integers(0, field.p, size=(1, len(basis)), dtype=np.int64)[0]
            mats = [sum(int(c) * b.maps[v] for c, b in zip(coeffs, basis)) % field.p
                    for v in range(n)]
            f = rep.ModuleMorphism(src, tgt, mats)
            for part, _ in (rep.kernel(f), rep.cokernel(f)):
                if int(sum(part.dims)) == 0:
                    continue
                seen_nonsplit += 1
                for leaf in rep.decompose(part):
                    assert any(rep.is_isomorphic(leaf.rep, m) for m in decl)
        assert seen_nonsplit > 20  # the sweep actually exercised the closure
