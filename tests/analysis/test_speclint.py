"""Spec lint: static ScenarioSpec JSON checks without execution."""

import json

import pytest

from repro.analysis import lint_spec_file
from repro.cli import main
from repro.scenarios.spec import ScenarioSpec


@pytest.fixture
def base_spec():
    return ScenarioSpec(name="spec-lint-fixture", duration_s=600.0).to_dict()


def _write(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload) if isinstance(payload, dict)
                    else payload)
    return str(path)


def _rules(path):
    return sorted({f.rule for f in lint_spec_file(path)})


def test_canonical_spec_is_clean(tmp_path, base_spec):
    assert lint_spec_file(_write(tmp_path, base_spec)) == []


def test_late_event_detected(tmp_path, base_spec):
    base_spec["events"] = [{"kind": "surge", "time": 600.0, "region": 0}]
    path = _write(tmp_path, base_spec)
    hits = lint_spec_file(path)
    assert [f.rule for f in hits] == ["spec-late-event"]
    assert "never fire" in hits[0].message


def test_unknown_app_and_scheme_detected(tmp_path, base_spec):
    base_spec["matrix"]["apps"] = ["bcp", "not-an-app"]
    base_spec["matrix"]["schemes"] = ["ms-8", "not-a-scheme"]
    assert _rules(_write(tmp_path, base_spec)) == [
        "spec-unknown-app", "spec-unknown-scheme"]


@pytest.mark.parametrize("backend", ["object", "fleet"])
def test_default_valued_keys_flagged_as_noncanonical(tmp_path, base_spec,
                                                     backend):
    base_spec["telemetry"] = None
    base_spec["device_backend"] = backend
    hits = lint_spec_file(_write(tmp_path, base_spec))
    assert [f.rule for f in hits] == ["spec-noncanonical-key"] * 2
    flagged = {f.code for f in hits}
    assert flagged == {"key=telemetry", "key=device_backend"}


def test_unparseable_and_unloadable_specs(tmp_path, base_spec):
    assert _rules(_write(tmp_path, "{not json")) == ["spec-invalid"]
    base_spec["events"] = [{"kind": "surge", "time": 10.0, "region": 99}]
    assert _rules(_write(tmp_path, base_spec)) == ["spec-invalid"]


def test_cli_routes_json_paths_to_spec_lint(tmp_path, base_spec, capsys):
    base_spec["events"] = [{"kind": "surge", "time": 600.0, "region": 0}]
    path = _write(tmp_path, base_spec)
    assert main(["lint", path, "--no-baseline", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["new"][0]["rule"] == "spec-late-event"


def test_cli_spec_rule_filter(tmp_path, base_spec, capsys):
    base_spec["events"] = [{"kind": "surge", "time": 600.0, "region": 0}]
    base_spec["telemetry"] = None
    path = _write(tmp_path, base_spec)
    assert main(["lint", path, "--no-baseline", "--rule",
                 "spec-noncanonical-key", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in report["new"]} == {"spec-noncanonical-key"}
