"""The report schema guard and writer: committed artifacts, dispatch."""

import json
import pathlib

import pytest

from repro.experiments.reports import validate_report, write_report

ROOT = pathlib.Path(__file__).parents[2]
TAGGED = sorted(
    path.name
    for path in ROOT.glob("BENCH_*.json")
    if "schema" in json.loads(path.read_text())
)


def test_every_tagged_artifact_is_found():
    assert {"BENCH_adversary.json", "BENCH_latency.json"} <= set(TAGGED)
    assert "BENCH_scale.json" in TAGGED


@pytest.mark.parametrize("name", TAGGED)
def test_committed_report_validates_and_rewrites_byte_for_byte(
    name, tmp_path
):
    """Each schema-tagged root artifact passes the guard, and passing
    its parsed content through ``write_report`` reproduces the file —
    which pins the writer's format."""
    text = (ROOT / name).read_text()
    report = json.loads(text)
    validate_report(report)
    out = tmp_path / name
    write_report(str(out), report)
    assert out.read_text() == text


def test_untagged_parallel_bench_report_validates():
    report = json.loads((ROOT / "BENCH_parallel.json").read_text())
    assert "schema" not in report
    validate_report(report)


def test_unknown_schema_rejected():
    with pytest.raises(ValueError, match="schema"):
        validate_report({"schema": "repro/other/v1"})


def test_non_object_rejected():
    with pytest.raises(ValueError, match="JSON object"):
        validate_report(["not", "a", "report"])


def test_writer_refuses_an_invalid_report(tmp_path):
    report = json.loads((ROOT / "BENCH_latency.json").read_text())
    del report["cells"][0]["digest"]
    out = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="digest"):
        write_report(str(out), report)
    assert not out.exists()
