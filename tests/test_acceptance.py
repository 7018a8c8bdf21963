"""Top-level acceptance battery.

Eight independent checks, each printing exactly one PASS/FAIL line to the
terminal (bypassing capture) so a plain pytest run yields a readable
scorecard.  Everything here goes through public entry points and recomputes
reference quantities with primitives independent of the classifier under
test wherever the design provides two routes.

Two corpus entries are deliberate scope probes and are asserted as such
rather than excluded silently:

* ``nakayama_a3_rad2_regular_only`` — M = Λ over the serial radical-square
  algebra on three vertices.  End(M) ≅ Λ^op has dominant dimension 2 even
  though M fails to cogenerate, so the "dominant dimension ≥ 2" invariant
  detects the *existence* of a generator-cogenerator with this endomorphism
  algebra, not that this particular M is one.  The membership certificate is
  authoritative there; the biconditional is asserted on the other eleven
  entries.
* the first-order axiom battery holds verbatim on that same add(Λ) (its
  epis genuinely are weak cokernels), so the axioms⟺gen-cogen equivalence
  is likewise asserted both-ways on the other eleven entries and
  one-way (certificate ⟹ axioms, axiom failure ⟹ certificate failure)
  everywhere.
"""
import json
import re
from time import perf_counter

import pytest

from tiltbench import algebra_ops, axioms, functors as fun, jobspec
from tiltbench import rep, report, subcat

from conftest import projectives

# entries whose fixed module is not a generator-cogenerator yet has an
# endomorphism algebra of dominant dimension >= 2 (see module docstring)
CONVERSE_GAP = {"nakayama_a3_rad2_regular_only"}


def emit(capsys, label, ok, detail=""):
    with capsys.disabled():
        tail = f"  [{detail}]" if detail and not ok else ""
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}{tail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def fresh(corpus):
    """One fresh realization per entry, shared across the battery."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = corpus.spec(name).realize()
        return cache[name]

    return get


def verdicts_by_name(rpt):
    return {v.name: v for v in rpt.verdicts}


def d_of(check_name):
    m = re.match(r"(\d+)-", check_name) or re.match(r"A4\.(\d+)", check_name)
    return int(m.group(1)) if m else None


def test_1_serial_generators_have_auslander_endomorphism_algebras(corpus, capsys):
    """k[x]/(x^n), n=2..4, with the full chain of truncations as module:
    certified 1-cluster-tilting, and End(M) independently shows global
    dimension exactly 2 with dominant dimension at least 2, under 5s each."""
    problems = []
    for name, n in [("serial_x2_generator", 2), ("serial_x3_generator", 3),
                    ("serial_x4_generator", 4)]:
        t0 = perf_counter()
        x = corpus.spec(name).realize().x
        verdict = axioms.classify_d_cluster_tilting(x, 1, None, 60, 42)
        gamma = x.endomorphism_algebra()
        gldim = algebra_ops.global_dimension(gamma, cap=8)
        domdim = algebra_ops.dominant_dimension(gamma, cap=8)
        dt = perf_counter() - t0
        for claim, ok in [("certified", verdict.status == "certified-pass"),
                          ("gldim=2", gldim == 2),
                          ("domdim>=2", domdim.ge(2)),
                          ("<5s", dt < 5.0)]:
            if not ok:
                problems.append(f"x^{n}: {claim} (got {verdict.status}, "
                                f"gldim={gldim}, domdim={domdim}, {dt:.1f}s)")
    emit(capsys, "1/8 serial truncation generators: certified 1-cluster-tilting,"
         " End has gldim 2 and domdim >= 2, each case < 5s",
         not problems, "; ".join(problems))


def test_2_generator_cogenerator_matches_dominant_dimension(fresh, corpus, capsys):
    """Λ ∈ add M and DΛ ∈ add M  ⟺  domdim End(M) ≥ 2, with membership and
    dominant dimension computed by unrelated routines."""
    problems, checked_both_ways = [], 0
    for name in corpus.names():
        job = fresh(name)
        alg, x = job.algebra, job.x
        nverts = len(alg.quiver.vertices)
        gen_cogen = (all(x.contains(p) for p in projectives(alg))
                     and all(x.contains(rep.injective(alg, v))
                             for v in range(nverts)))
        domdim = algebra_ops.dominant_dimension(
            x.endomorphism_algebra(), cap=8)
        if gen_cogen and not domdim.ge(2):
            problems.append(f"{name}: gen-cogen but domdim={domdim}")
        if name not in CONVERSE_GAP:
            checked_both_ways += 1
            if gen_cogen != domdim.ge(2):
                problems.append(f"{name}: gen-cogen={gen_cogen} vs domdim={domdim}")
    if checked_both_ways < 6:
        problems.append(f"only {checked_both_ways} biconditional entries")
    emit(capsys, f"2/8 generator-cogenerator membership matches domdim End >= 2 "
         f"(both ways on {checked_both_ways} entries, forward on all)",
         not problems, "; ".join(problems))


def test_3_axiom_battery_matches_gen_cogen_certificate(fresh, corpus, capsys):
    """Sampled A1/A1op/A2/A2op/A3/A3op at seed 42, 100 trials vs the
    projective-injective membership certificate; at least two engineered
    negatives must fail with witnesses that replay on a fresh realization."""
    problems, replayable_negatives = [], 0
    axiom_names = ("A1+A1op", "A2+A2op", "A3+A3op")
    for name in corpus.names():
        vs = verdicts_by_name(corpus.report(name))
        batch = [vs[a] for a in axiom_names]
        gcff = vs["gen-cogen-ff"]
        found_violation = any(v.status == "fail" for v in batch)
        all_pass = all(v.passed for v in batch)
        if found_violation and gcff.passed:
            problems.append(f"{name}: axiom witness against passing certificate")
        if gcff.passed and not all_pass:
            problems.append(f"{name}: certificate passes but axioms do not")
        if name not in CONVERSE_GAP and all_pass != gcff.passed:
            problems.append(f"{name}: axioms={all_pass} certificate={gcff.passed}")
        if found_violation and not gcff.passed:
            witness = next(v.witness for v in batch if v.status == "fail")
            if axioms.replay_witness(fresh(name).x, witness):
                replayable_negatives += 1
            else:
                problems.append(f"{name}: axiom witness does not replay")
    if replayable_negatives < 2:
        problems.append(f"only {replayable_negatives} replayable negatives")
    emit(capsys, f"3/8 sampled axiom battery agrees with the gen-cogen "
         f"certificate ({replayable_negatives} replayable negatives)",
         not problems, "; ".join(problems))


def test_4_d_rigid_matches_ext_vanishing(fresh, corpus, capsys):
    """Sampled d-Rigid vs Ext^i(M,M)=0 for 0<i<d recomputed summand-by-
    summand; at least 4 entries per d in 1..3, and at least one entry where
    nonvanishing Ext^1 is caught by a concrete sampled chain break."""
    problems, per_d, concrete = [], {1: 0, 2: 0, 3: 0}, 0
    for name in corpus.names():
        for v in corpus.report(name).verdicts:
            if not v.name.endswith("-Rigid"):
                continue
            d = d_of(v.name)
            x = fresh(name).x
            parts = x.summands
            ext1_nonzero = any(subcat.ext_dim(a, b, 1) > 0
                               for a in parts for b in parts)
            ext_ok = all(subcat.ext_dim(a, b, i) == 0
                         for a in parts for b in parts for i in range(1, d))
            if v.details["gen_cogen_certificate"]:
                per_d[d] += 1
                if v.passed != ext_ok:
                    problems.append(f"{name} d={d}: verdict={v.status} ext={ext_ok}")
            elif (v.details["chain_route"] == "fail") == v.passed:
                problems.append(f"{name} d={d}: chain route inconsistent")
            if d > 1 and ext1_nonzero and v.details["chain_route"] == "fail":
                concrete += 1
    for d, count in per_d.items():
        if count < 4:
            problems.append(f"only {count} certified-scope entries at d={d}")
    if concrete < 1:
        problems.append("no concrete chain break against nonzero Ext^1")
    emit(capsys, f"4/8 d-Rigid verdicts match independent Ext vanishing "
         f"(entries per d: {per_d[1]}/{per_d[2]}/{per_d[3]}, "
         f"{concrete} concrete chain breaks)", not problems, "; ".join(problems))


def test_5_localization_suite(fresh, corpus, capsys):
    """Per entry, >= 50 generated coherent functors: vanishing collapse
    matches effaceability (biconditionally wherever X generates and
    cogenerates, one-way always), the Hom identity onto representables holds
    summand-by-summand, and both four-term star-adjunction sequences verify
    exactly at every evaluation vertex.  Zero violations allowed."""
    problems, eff_seen, noneff_seen = [], 0, 0
    for name in corpus.names():
        job = fresh(name)
        x = job.x
        gen_cogen = verdicts_by_name(corpus.report(name))["gen-cogen-ff"].passed
        maps = axioms.sample_morphisms(x, 50, 42)
        if len(maps) < 50:
            problems.append(f"{name}: only {len(maps)} functors")
        for k, m in enumerate(maps):
            fc, _ = fun.cokernel_functor(fun.yoneda_morphism(x, m))
            collapsed = int(sum(fun.psi_tilde(fc).dims)) == 0
            effaceable, _ = fun.is_effaceable(fc)
            eff_seen += effaceable
            noneff_seen += not effaceable
            if collapsed and not effaceable:
                problems.append(f"{name}#{k}: collapses but not effaceable")
            if gen_cogen and collapsed != effaceable:
                problems.append(f"{name}#{k}: collapse {collapsed} != "
                                f"effaceable {effaceable}")
            psi = fun.psi_tilde(fc)
            for i in range(len(x.summands)):
                yon = fun.CoherentFunctor.yoneda(x, x.obj((i,)))
                if len(fun.hom_functors(fc, yon)) != len(
                        rep.hom_space(psi, x.summands[i])):
                    problems.append(f"{name}#{k}: Hom identity fails at {i}")
            try:
                fun.verify_star_adjunction_sequences(fc)
            except fun.SequenceCheckFailed as e:
                problems.append(f"{name}#{k}: {e}")
        if problems and len(problems) > 8:
            break  # enough signal
    if not (eff_seen and noneff_seen):
        problems.append("sample never exercised both effaceability classes")
    emit(capsys, f"5/8 localization suite over {50 * len(corpus.names())} "
         f"functors: vanishing vs effaceable, Hom identity, four-term "
         f"sequences ({eff_seen} effaceable / {noneff_seen} not)",
         not problems, "; ".join(problems[:4]))


def test_6_precluster_routes_agree(fresh, corpus, capsys):
    """On the dual-numbers generator entry and every certified d-cluster-
    tilting entry, all three precluster routes concur, and the endomorphism
    algebra independently satisfies domdim >= d+1 with selfinjective
    dimensions <= d+1 on both sides."""
    problems, audited = [], []
    for name in corpus.names():
        vs = verdicts_by_name(corpus.report(name))
        for v in list(vs.values()):
            if not v.name.endswith("-cluster-tilting") or v.status != "certified-pass":
                continue
            d = d_of(v.name)
            pre = vs.get(f"{d}-precluster-tilting")
            if pre is None:
                problems.append(f"{name}: no precluster verdict at d={d}")
                continue
            audited.append((name, d))
            if pre.details["routes"] != {"tau_membership": "pass",
                                         "gamma_dimensions": "pass",
                                         "approx_sequences":
                                             "no-counterexample-in-sample"}:
                problems.append(f"{name} d={d}: routes {pre.details['routes']}")
            gamma = fresh(name).x.endomorphism_algebra()
            domdim = algebra_ops.dominant_dimension(gamma, cap=10)
            inj_l, inj_r = algebra_ops.selfinjective_dimensions(gamma, cap=10)
            if not (domdim.ge(d + 1) and inj_l.le(d + 1) and inj_r.le(d + 1)):
                problems.append(f"{name} d={d}: Gamma dims {domdim}/{inj_l}/{inj_r}")
    if ("serial_x2_generator", 1) not in audited:
        problems.append("dual-numbers generator entry missing from audit")
    emit(capsys, f"6/8 precluster routes concur on {len(audited)} certified "
         "cluster-tilting entries incl. the dual-numbers generator",
         not problems, "; ".join(problems))


def test_7_d_abelian_iff_d_cluster_tilting(corpus, capsys):
    """Wherever both classifiers run, their verdicts coincide."""
    problems, pairs = [], 0
    for name in corpus.names():
        vs = verdicts_by_name(corpus.report(name))
        ds_ab = {d_of(n) for n in vs if n.endswith("-abelian")}
        ds_ct = {d_of(n) for n in vs if n.endswith("-cluster-tilting")}
        if ds_ab != ds_ct:
            problems.append(f"{name}: abelian at {ds_ab} vs cluster-tilting {ds_ct}")
        for d in ds_ab & ds_ct:
            pairs += 1
            ab, ct = vs[f"{d}-abelian"], vs[f"{d}-cluster-tilting"]
            if ab.passed != ct.passed:
                problems.append(f"{name} d={d}: abelian={ab.status} ct={ct.status}")
    emit(capsys, f"7/8 d-abelian coincides with d-cluster-tilting on all "
         f"{pairs} requested (entry, d) pairs", not problems, "; ".join(problems))


def test_8_determinism_and_witness_replay(fresh, corpus, capsys):
    """Same seed, fresh process state: byte-identical JSON.  Every fail
    witness replays to its definitional failure on a fresh realization."""
    problems, replayed = [], 0
    for name in corpus.names():
        first = report.emit_json(corpus.report(name))
        again = report.emit_json(report.run(corpus.spec(name)))
        if first != again:
            problems.append(f"{name}: reports differ between runs")
        if json.loads(first)["seed"] != 42:
            problems.append(f"{name}: unexpected seed")
        job = fresh(name)
        for v in corpus.report(name).verdicts:
            if v.passed or v.witness is None:
                continue
            if axioms.replay_witness(job.x, v.witness, d=d_of(v.name),
                                     declared=job.declared):
                replayed += 1
            else:
                problems.append(f"{name}: {v.name} witness does not replay")
    if replayed < 10:
        problems.append(f"only {replayed} witnesses replayed")
    emit(capsys, f"8/8 byte-identical reports at fixed seed; all {replayed} "
         "fail witnesses replay in isolation", not problems, "; ".join(problems))
