"""fig-latency experiment: workers parity, report schema, committed artifact."""

import json
import pathlib

import pytest

from repro.experiments.fig_latency import (
    DEFAULT_MODEL,
    LATENCY_BENCH_SCHEMA,
    latency_report,
    run_latency_experiment,
)
from repro.experiments.reports import validate_report
from repro.sim.latency import LatencyModel

SMALL = dict(dimension=4, lookups=120, seed=11)
MODEL = LatencyModel(seed=7)


class TestExperiment:
    def test_cells_cover_protocols_and_selection_variants(self):
        points = run_latency_experiment(model=MODEL, **SMALL)
        labels = [p.label for p in points]
        assert "cycloid" in labels
        assert labels[-2:] == ["cycloid/random", "cycloid/proximity"]
        for point in points:
            assert point.size == 64  # 4 * 2**4
            assert point.failures == 0
            assert 0 < point.p50_ms <= point.p95_ms <= point.p99_ms
            assert point.mean_ms > 0
            assert len(point.digest) == 64

    def test_workers_do_not_change_any_point(self):
        """The acceptance pin at test scale: ``--workers 2`` must be
        bit-identical to ``--workers 1`` — digests included."""
        serial = run_latency_experiment(model=MODEL, workers=1, **SMALL)
        sharded = run_latency_experiment(model=MODEL, workers=2, **SMALL)
        assert serial == sharded


class TestReportSchema:
    def make_report(self, workers=1):
        points = run_latency_experiment(model=MODEL, workers=workers, **SMALL)
        return latency_report(
            points,
            dimension=SMALL["dimension"],
            lookups=SMALL["lookups"],
            seed=SMALL["seed"],
            model=MODEL,
            workers=workers,
        )

    def test_valid_report_passes(self):
        report = self.make_report()
        assert report["schema"] == LATENCY_BENCH_SCHEMA
        validate_report(report)

    def test_workers_field_is_provenance_only(self):
        one = self.make_report(workers=1)
        two = self.make_report(workers=2)
        assert one.pop("workers") == 1
        assert two.pop("workers") == 2
        assert one == two

    def test_proximity_section_names_the_winner(self):
        report = self.make_report()
        proximity = report["proximity"]
        assert proximity["improvement_ms"] == pytest.approx(
            proximity["random_mean_ms"] - proximity["proximity_mean_ms"]
        )
        assert proximity["proximity_wins"] == (
            proximity["proximity_mean_ms"] < proximity["random_mean_ms"]
        )

    def test_missing_cell_key_rejected(self):
        report = self.make_report()
        del report["cells"][0]["digest"]
        with pytest.raises(ValueError, match="digest"):
            validate_report(report)

    def test_inconsistent_proximity_claim_rejected(self):
        report = self.make_report()
        report["proximity"]["proximity_wins"] = not report["proximity"][
            "proximity_wins"
        ]
        with pytest.raises(ValueError, match="proximity_wins"):
            validate_report(report)


class TestCommittedArtifact:
    def test_bench_latency_json_is_valid_and_proximity_wins(self):
        """The committed full-scale run (n=2048) must validate and show
        the §S25 acceptance result: proximity beats random wiring."""
        path = pathlib.Path(__file__).parents[2] / "BENCH_latency.json"
        report = json.loads(path.read_text())
        validate_report(report)
        assert report["size"] == 2048
        assert LatencyModel.from_config(report["model"]) == DEFAULT_MODEL
        assert report["proximity"]["proximity_wins"] is True
