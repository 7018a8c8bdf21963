"""Job-file schema validation, realization and the realized job's lifetime."""
import contextlib
import gc
import json
import weakref

import pytest

from conftest import CORPUS_DIR
from tiltbench import algebra_ops, axioms, functors, jobspec, linalg, quiver, rep, report, subcat
from tiltbench.fitting import RadicalPreconditionViolated
from tiltbench.jobspec import SchemaError


def base_job(**over):
    data = {
        "name": "t",
        "characteristic": 101,
        "quiver": {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]]},
        "relations": [],
        "module": ["regular"],
        "checks": ["gen-cogen-ff"],
    }
    data.update(over)
    return data


class TestValidation:
    def test_minimal_job_parses(self):
        spec = jobspec.parse(base_job())
        assert spec.characteristic == 101
        assert spec.checks[0].check == "gen-cogen-ff"

    def test_non_prime_characteristic(self):
        with pytest.raises(SchemaError) as ei:
            jobspec.parse(base_job(characteristic=4))
        assert ei.value.field == "characteristic"

    def test_unknown_vertex_in_arrow(self):
        bad = base_job(quiver={"vertices": ["1"], "arrows": [["a", "1", "2"]]})
        with pytest.raises(SchemaError) as ei:
            jobspec.parse(bad)
        assert ei.value.field == "quiver.arrows[0][2]"

    def test_duplicate_arrow_name(self):
        bad = base_job(quiver={"vertices": ["1", "2"],
                               "arrows": [["a", "1", "2"], ["a", "2", "1"]]})
        with pytest.raises(SchemaError) as ei:
            jobspec.parse(bad)
        assert "duplicate" in ei.value.message

    def test_malformed_relation_term(self):
        with pytest.raises(SchemaError) as ei:
            jobspec.parse(base_job(relations=[[["one", ["a"]]]]))
        assert ei.value.field == "relations[0][0]"
        with pytest.raises(SchemaError) as ei:
            jobspec.parse(base_job(relations=[[[1, ["z", "z"]]]]))
        assert "unknown arrow" in ei.value.message

    def test_empty_module_rejected(self):
        with pytest.raises(SchemaError) as ei:
            jobspec.parse(base_job(module=[]))
        assert ei.value.field == "module"

    def test_unknown_check(self):
        with pytest.raises(SchemaError) as ei:
            jobspec.parse(base_job(checks=["A9"]))
        assert ei.value.field == "checks[0].check"

    def test_check_requires_d(self):
        with pytest.raises(SchemaError) as ei:
            jobspec.parse(base_job(checks=[{"check": "d-rigid"}]))
        assert ei.value.field == "checks[0].d"
        with pytest.raises(SchemaError):
            jobspec.parse(base_job(checks=[{"check": "d-rigid", "d": 0}]))

    def test_check_rejects_stray_fields(self):
        with pytest.raises(SchemaError) as ei:
            jobspec.parse(base_job(checks=[{"check": "A0", "mode": "fast"}]))
        assert "unknown fields" in ei.value.message

    def test_empty_check_list_is_fine(self):
        spec = jobspec.parse(base_job(checks=[]))
        assert spec.checks == []

    def test_unknown_option(self):
        with pytest.raises(SchemaError) as ei:
            jobspec.parse(base_job(options={"speed": 9}))
        assert ei.value.field == "options.speed"

    def test_unknown_top_level_field(self):
        with pytest.raises(SchemaError):
            jobspec.parse(base_job(extra_field=1))

    def test_bool_is_not_an_int(self):
        for data, field in [(base_job(options={"seed": True}), "options.seed"),
                            (base_job(checks=[{"check": "d-rigid", "d": True}]),
                             "checks[0].d"),
                            (base_job(characteristic=True), "characteristic")]:
            with pytest.raises(SchemaError) as ei:
                jobspec.parse(data)
            assert ei.value.field == field

    def test_bool_in_explicit_dims(self):
        job = jobspec.parse(base_job(module=[{"explicit": {"dims": [True, 0]}}]))
        with pytest.raises(SchemaError) as ei:
            job.realize()
        assert ei.value.field == "module[0].explicit.dims"

    def test_negative_check_trials(self):
        with pytest.raises(SchemaError) as ei:
            jobspec.parse(base_job(checks=[{"check": "A0", "trials": -5}]))
        assert ei.value.field == "checks[0].trials"

    def test_option_precedence(self):
        spec = jobspec.parse(base_job(options={"trials": 17}))
        assert spec.option("trials") == 17
        assert spec.option("trials", override=3) == 3
        assert spec.option("seed") == 42  # default


class TestRealization:
    def test_regular_expands_to_all_projectives(self):
        job = jobspec.parse(base_job())
        realized = job.realize()
        assert len(realized.x.summands) == 2

    def test_named_summands(self):
        job = jobspec.parse(base_job(module=[
            {"projective": "2"}, {"injective": "2"}, {"simple": "1"}]))
        realized = job.realize()
        dims = sorted(tuple(s.dims.tolist()) for s in realized.x.summands)
        # over this quiver the injective at "2" coincides with P(1)
        assert dims == [(0, 1), (1, 0), (1, 1)]

    def test_unknown_vertex_in_summand(self):
        job = jobspec.parse(base_job(module=[{"simple": "9"}]))
        with pytest.raises(SchemaError) as ei:
            job.realize()
        assert ei.value.field == "module[0].simple"

    def test_derived_summands(self):
        data = base_job(
            quiver={"vertices": ["*"], "arrows": [["x", "*", "*"]]},
            relations=[[[1, ["x", "x", "x"]]]],
            module=[{"syzygy": {"simple": "*"}}, {"tau": {"simple": "*"}}])
        realized = jobspec.parse(data).realize()
        assert sorted(int(sum(s.dims)) for s in realized.x.summands) == [1, 2]

    def test_dual_summand(self):
        job = jobspec.parse(base_job(module=[{"dual": {"projective": "1"}}]))
        realized = job.realize()
        (summand,) = realized.x.summands
        assert rep.is_isomorphic(summand, rep.injective(realized.algebra, 0))

    def test_syzygy_of_projective_is_zero_and_rejected(self):
        job = jobspec.parse(base_job(module=[{"syzygy": {"projective": "1"}}]))
        with pytest.raises(SchemaError) as ei:
            job.realize()
        assert "zero module" in ei.value.message

    def test_explicit_summand(self):
        data = base_job(
            quiver={"vertices": ["*"], "arrows": [["x", "*", "*"]]},
            relations=[[[1, ["x", "x", "x", "x"]]]],
            module=[{"explicit": {"dims": [2], "arrows": {"x": [[0, 0], [1, 0]]}}}])
        realized = jobspec.parse(data).realize()
        assert realized.x.summands[0].dims.tolist() == [2]

    def test_explicit_rejects_bad_shape(self):
        data = base_job(module=[{"explicit": {"dims": [1, 1],
                                              "arrows": {"a": [[1, 2]]}}}])
        job = jobspec.parse(data)
        with pytest.raises(SchemaError) as ei:
            job.realize()
        assert "1x1" in ei.value.message

    def test_explicit_checks_relations(self):
        data = base_job(
            quiver={"vertices": ["*"], "arrows": [["x", "*", "*"]]},
            relations=[[[1, ["x", "x"]]]],
            module=[{"explicit": {"dims": [1], "arrows": {"x": [[1]]}}}])
        job = jobspec.parse(data)
        with pytest.raises(SchemaError):
            job.realize()  # x acts invertibly, violating x^2 = 0

    def test_declared_indecomposables(self):
        job = jobspec.parse(base_job(
            declared_indecomposables=["regular", {"simple": "1"}]))
        realized = job.realize()
        assert realized.declared is not None
        assert len(realized.declared) == 3

    def test_small_prime_rejected_with_suggestion(self):
        data = base_job(
            characteristic=3,
            quiver={"vertices": ["*"], "arrows": [["x", "*", "*"]]},
            relations=[[[1, ["x", "x", "x"]]]])
        job = jobspec.parse(data)
        with pytest.raises(RadicalPreconditionViolated) as ei:
            job.realize()
        assert "p=" in str(ei.value)


class TestIngest:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "job.json"
        p.write_text(json.dumps(base_job()))
        spec = jobspec.ingest(p)
        assert spec.name == "t"

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "name": "x",\n  "oops\n}')
        with pytest.raises(SchemaError) as ei:
            jobspec.ingest(p)
        assert ei.value.field.startswith("line ")

    def test_ingest_realizes_eagerly(self, tmp_path):
        p = tmp_path / "job.json"
        p.write_text(json.dumps(base_job(module=[{"simple": "9"}])))
        with pytest.raises(SchemaError):
            jobspec.ingest(p)

    def test_corpus_files_all_ingest(self):
        from conftest import corpus_paths
        paths = corpus_paths()
        assert len(paths) == 12
        for p in paths:
            spec = jobspec.ingest(p)
            assert spec.name == p.stem


# over k[x]/(x^3), add(Λ ⊕ S) misses k[x]/(x^2): d-abelian finds the declared
# list incomplete mid-run and raises an input error (see test_cli)
_INCOMPLETE_DECLARED = {
    "name": "incomplete-declared", "characteristic": 101,
    "quiver": {"vertices": ["1"], "arrows": [["x", "1", "1"]]},
    "relations": [[[1, ["x"] * 3]]], "module": ["regular", {"simple": "1"}],
    "declared_indecomposables": ["regular", {"simple": "1"}],
    "checks": [{"check": "d-abelian", "d": 1}]}


def _instances(monkeypatch, cls, method):
    """(class name, weak reference) of every object that runs cls.method
    from now on."""
    seen = []
    original = getattr(cls, method)

    def tracked(self, *args, **kwargs):
        seen.append((type(self).__name__, weakref.ref(self)))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, tracked)
    return seen


def _counted(monkeypatch, owner, name):
    """A list that gets one entry per call of owner.name from now on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestJobLifetime:
    @pytest.mark.parametrize("job, outcome", [
        ("linear_a2_generator", "pass"),
        ("regular_only_a2", "fail"),
        (None, "input-error"),
    ], ids=["passing", "failing", "raising"])
    def test_report_run_frees_the_whole_job(self, tmp_path, monkeypatch, job, outcome):
        # with the collector off, only reference counting can free the job:
        # no cycle may survive report.run, however it ends
        if job is None:
            path = tmp_path / "job.json"
            path.write_text(json.dumps(_INCOMPLETE_DECLARED))
        else:
            path = CORPUS_DIR / f"{job}.json"
        algebras = _instances(monkeypatch, quiver.Algebra, "__init__")
        subcats = _instances(monkeypatch, subcat.SubcategoryX, "_setup")
        fields = _instances(monkeypatch, linalg.PrimeField, "__init__")
        gc.collect()
        gc.disable()
        try:
            spec = jobspec.ingest(path)
            try:
                got = report.run(spec, trials=5).status
            except SchemaError:
                got = "input-error"
            alive = [name for name, ref in algebras + subcats + fields if ref() is not None]
        finally:
            gc.enable()
        assert got == outcome
        assert alive == []
        # what was tracked: Λ and Λ^op, x and x.op, each realized once, the
        # field, and Γ from the End(M) checks
        kinds = [name for name, _ in algebras + subcats + fields]
        assert kinds.count("BoundQuiverAlgebra") == 2
        assert kinds.count("SubcategoryX") == 2
        assert "AbstractAlgebra" in kinds and "PrimeField" in kinds

    def test_ingest_and_run_build_the_algebra_once(self, monkeypatch):
        builds = _counted(monkeypatch, jobspec, "build_algebra")
        spec = jobspec.ingest(CORPUS_DIR / "regular_only_a2.json")
        first = report.emit(report.run(spec, trials=5), "json")
        assert len(builds) == 1
        # a second run realizes afresh, on a spec the first run left usable
        assert report.emit(report.run(spec, trials=5), "json") == first
        assert len(builds) == 2

    def test_a_second_realize_is_a_fresh_working_job(self):
        spec = jobspec.ingest(CORPUS_DIR / "serial_x2_generator.json")
        handed_over, fresh = spec.realize(), spec.realize()
        assert fresh is not handed_over
        assert fresh.x is not handed_over.x and fresh.algebra is not handed_over.algebra
        del handed_over
        verdict = axioms.check_A1_A1op(fresh.x, 5, 42)
        assert verdict.passed
        assert verdict.to_json() == axioms.check_A1_A1op(spec.realize().x, 5, 42).to_json()

    @pytest.mark.parametrize("name, with_gamma", [
        ("linear_a2_generator", False),
        ("serial_x3_generator", True),
    ])
    def test_dropping_x_frees_the_localization_path(self, monkeypatch, name, with_gamma):
        # the benchmark's functor jobs keep spec.realize().x and nothing else:
        # with the collector off, dropping x must free the whole job
        algebras = _instances(monkeypatch, quiver.Algebra, "__init__")
        subcats = _instances(monkeypatch, subcat.SubcategoryX, "_setup")
        fields = _instances(monkeypatch, linalg.PrimeField, "__init__")
        gc.collect()
        gc.disable()
        try:
            x = jobspec.ingest(CORPUS_DIR / f"{name}.json").realize().x
            for m in axioms.sample_morphisms(x, 6, 42):
                fc = functors.cokernel_functor(functors.yoneda_morphism(x, m))[0]
                with contextlib.suppress(functors.SequenceCheckFailed):
                    functors.verify_star_adjunction_sequences(fc)
            if with_gamma:
                # End(M) and, through the injective envelopes, its opposite
                algebra_ops.dominant_dimension(x.endomorphism_algebra())
            del x, m, fc
            alive = [kind for kind, ref in algebras + subcats + fields if ref() is not None]
        finally:
            gc.enable()
        assert alive == []
        kinds = [kind for kind, _ in algebras + subcats + fields]
        assert kinds.count("BoundQuiverAlgebra") == 2 and kinds.count("SubcategoryX") == 2
        assert kinds.count("AbstractAlgebra") == (2 if with_gamma else 0)

    @pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS_DIR.glob("*.json")))
    def test_no_job_leaves_a_reference_cycle(self, name):
        # every object the collector would have to find is kept in
        # gc.garbage: none may be of a type defined in tiltbench
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            spec = jobspec.ingest(CORPUS_DIR / f"{name}.json")
            report.run(spec)
            del spec
            jobspec.ingest(CORPUS_DIR / f"{name}.json")  # dropped before a realize
            gc.collect()
            cyclic = sorted({type(o).__qualname__ for o in gc.garbage
                             if type(o).__module__.startswith("tiltbench")})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert cyclic == []


class TestBackLinks:
    def test_each_pair_links_back_while_its_owner_lives(self):
        job = jobspec.ingest(CORPUS_DIR / "serial_x3_generator.json").realize()
        x, lam = job.x, job.algebra
        gamma = x.endomorphism_algebra()
        assert x.op.op is x and x.op.algebra is lam.opposite
        assert lam.opposite.opposite is lam
        assert gamma.opposite.opposite is gamma
        assert x.op.op.op is x.op

    def test_a_kept_op_rebuilds_its_subcategory(self):
        spec = jobspec.ingest(CORPUS_DIR / "serial_x2_generator.json")
        x = spec.realize().x
        dims = [s.dims.tolist() for s in x.summands]
        o, gone = x.op, weakref.ref(x)
        gc.disable()
        try:
            del x
            assert gone() is None  # freed by reference counting, o kept
        finally:
            gc.enable()
        again = o.op
        assert again.op is o and again.algebra.opposite is o.algebra
        assert [s.dims.tolist() for s in again.summands] == dims
        want = axioms.check_A1_A1op(spec.realize().x, 5, 42).to_json()
        assert axioms.check_A1_A1op(again, 5, 42).to_json() == want
