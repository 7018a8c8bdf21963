"""Job-file schema validation and realization."""
import json

import pytest

from tiltbench import jobspec, rep
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
