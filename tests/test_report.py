"""Tests for the machine-readable results: the engine's
:class:`~repro.exp.ExperimentResult` and the per-experiment JSON files
that ``repro run --out`` writes (``repro.exp.write_artifacts``)."""

import json

import pytest

from repro.exp import (
    Engine,
    ExperimentSpec,
    UnknownExperimentError,
    temporarily_registered,
    write_artifacts,
)
from repro.exp.engine import SCHEMA_VERSION

#: The cheap model-backed experiments, run together by one engine.
MODEL_BACKED = ["table1", "fig4", "fig6", "fig7", "fig8", "uvm"]


def _pair_runner(value, tag):
    return [[value, tag]]


def _short_row_runner(value):
    return [[value]]


def _boom_runner(value):
    raise ValueError("boom on 2")


def _spec(name, runner, grid, fixed=None, columns=("a", "b")):
    return ExperimentSpec.define(
        name=name, title="t", columns=list(columns), runner=runner,
        grid=grid, fixed=fixed or {},
    )


def _run(spec, quick=False):
    with temporarily_registered(spec):
        return Engine(workers=1, cache=None).run(spec.name, quick=quick)


@pytest.fixture(scope="module")
def model_backed():
    return Engine(workers=1, cache=None).run_many(MODEL_BACKED, quick=True)


class TestExperimentReport:
    def test_add_and_len(self):
        result = _run(_spec("x", _pair_runner, {"value": [1, 3]},
                            {"tag": "p"}))
        assert len(result.rows) == 2

    def test_row_arity_enforced(self):
        result = _run(_spec("x", _short_row_runner, {"value": [1]}))
        assert not result.ok
        assert result.rows == []
        assert "1 values for 2 columns" in result.failures[0].error

    def test_column_extraction(self):
        result = _run(_spec("x", _pair_runner, {"value": [1, 2]},
                            {"tag": "p"}))
        assert [row["a"] for row in result.dicts()] == [1, 2]
        assert [row["b"] for row in result.dicts()] == ["p", "p"]

    def test_json_round_trip(self, tmp_path):
        result = _run(_spec("x", _pair_runner, {"value": [42]},
                            {"tag": "hello"}))
        write_artifacts({"x": result}, tmp_path)
        payload = json.loads((tmp_path / "x.json").read_text())
        assert payload["experiment"] == "x"
        assert payload["columns"] == ["a", "b"]
        assert payload["rows"] == [[42, "hello"]]

    def test_json_carries_provenance(self):
        result = _run(_spec("x", _pair_runner, {"value": [1]},
                            {"tag": "p"}))
        payload = result.to_payload()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["git_sha"]
        assert payload["timestamp"]  # ISO 8601
        assert "T" in payload["timestamp"]


class TestCollectors:
    def test_table1_rows(self, model_backed):
        result = model_backed["table1"]
        assert len(result.rows) == 10  # 5 allocators x 2 xnack modes
        assert "physical" in result.columns

    def test_fig7_matches_model(self, model_backed):
        rows = model_backed["fig7"].dicts()
        scenarios = {r["scenario"] for r in rows}
        assert scenarios == {"gpu_major", "gpu_minor", "cpu", "cpu12"}
        # The plateau value survives the engine's JSON round trip.
        plateau = [
            r for r in rows
            if r["scenario"] == "gpu_minor" and r["pages"] == 10_000_000
        ]
        assert plateau[0]["pages_per_s"] == pytest.approx(9.0e6, rel=0.05)

    def test_fig8_columns(self, model_backed):
        rows = model_backed["fig8"].dicts()
        assert len(rows) == 3
        means = {r["fault_type"]: r["mean_us"] for r in rows}
        assert means["cpu"] == pytest.approx(9.0, rel=0.05)

    def test_collect_all_covers_registry(self, model_backed):
        assert set(model_backed) == set(MODEL_BACKED)
        assert all(r.ok and r.rows for r in model_backed.values())

    def test_export_all_writes_files(self, model_backed, tmp_path):
        write_artifacts(model_backed, tmp_path, quick=True)
        for name in MODEL_BACKED:
            path = tmp_path / f"{name}.json"
            assert path.exists()
            payload = json.loads(path.read_text())
            assert payload["rows"] == model_backed[name].rows

    def test_collect_resolves_any_registered_experiment(self):
        result = Engine(workers=1, cache=None).run("partition", quick=True)
        assert "SPX/NPS1" in [r["mode"] for r in result.dicts()]
        assert result.spec.source == "Partitioning guide"

    def test_collect_unknown_experiment_raises(self):
        with pytest.raises(UnknownExperimentError):
            Engine(workers=1, cache=None).run("fig99")

    def test_collect_surfaces_point_failure_with_params(self):
        result = _run(_spec("flaky-report", _boom_runner, {"value": [2]}))
        assert not result.ok
        failure = result.failures[0]
        assert "value=2" in failure.point.describe()
        assert "boom on 2" in failure.error
