"""fig-scale experiment: determinism, report schema, committed artifact."""

import json
import pathlib

import pytest

from repro.experiments.scale import (
    SCALE_BENCH_SCHEMA,
    SPEEDUP_BAR,
    fit_power_law,
    run_scale_experiment,
    scale_parity,
    scale_report,
)
from repro.experiments.reports import validate_report

SMALL = dict(
    counts=(500, 2000),
    protocols=("cycloid", "chord"),
    lookups=64,
    seed=11,
    sampler="fast",
)


class TestExperiment:
    def test_cells_cover_the_grid(self):
        points = run_scale_experiment(**SMALL)
        assert [(p.protocol, p.count) for p in points] == [
            ("cycloid", 500),
            ("cycloid", 2000),
            ("chord", 500),
            ("chord", 2000),
        ]
        for point in points:
            assert point.space >= point.count
            assert point.build_seconds > 0
            assert point.column_bytes > 0
            assert point.lookups == 64
            assert 0.0 <= point.success_rate <= 1.0
            assert point.mean_hops > 0
            assert len(point.digest) == 64

    def test_results_are_deterministic(self):
        """Every field (timings excluded) is a pure function of the
        arguments — digests included."""
        one = run_scale_experiment(**SMALL)
        two = run_scale_experiment(**SMALL)
        for a, b in zip(one, two):
            assert a.digest == b.digest
            assert a.mean_hops == b.mean_hops
            assert a.success_rate == b.success_rate
            assert a.timeouts == b.timeouts

    def test_batch_rows_do_not_change_results(self):
        whole = run_scale_experiment(batch_rows=64, **SMALL)
        chunked = run_scale_experiment(batch_rows=7, **SMALL)
        for a, b in zip(whole, chunked):
            assert a.digest == b.digest

    def test_fit_power_law_recovers_a_known_exponent(self):
        ladder = [
            {"count": n, "seconds": 2.0 * n**1.5}
            for n in (1024, 4096, 16384)
        ]
        exponent, extrapolate = fit_power_law(ladder)
        assert exponent == pytest.approx(1.5)
        assert extrapolate(10**6) == pytest.approx(2.0 * 10**9)

    def test_fit_power_law_needs_two_rungs(self):
        with pytest.raises(ValueError, match="two ladder rungs"):
            fit_power_law([{"count": 10, "seconds": 1.0}])


class TestReportSchema:
    @pytest.fixture(scope="class")
    def report(self):
        points = run_scale_experiment(**SMALL)
        parity = scale_parity(
            points,
            parity_count=256,
            seed=SMALL["seed"],
            ladder_counts=(128, 256, 512),
        )
        return scale_report(
            points,
            parity,
            lookups=SMALL["lookups"],
            seed=SMALL["seed"],
            sampler=SMALL["sampler"],
        )

    def test_valid_report_passes(self, report):
        assert report["schema"] == SCALE_BENCH_SCHEMA
        validate_report(report)

    def test_parity_digests_match_at_test_scale(self, report):
        assert report["parity"]["digest_match"] is True

    def test_missing_cell_key_rejected(self, report):
        broken = json.loads(json.dumps(report))
        del broken["cells"][0]["digest"]
        with pytest.raises(ValueError, match="digest"):
            validate_report(broken)

    def test_tampered_digest_match_rejected(self, report):
        broken = json.loads(json.dumps(report))
        broken["parity"]["digest_match"] = not broken["parity"][
            "digest_match"
        ]
        with pytest.raises(ValueError, match="digest_match"):
            validate_report(broken)

    def test_tampered_speedup_rejected(self, report):
        broken = json.loads(json.dumps(report))
        broken["parity"]["speedup"] = broken["parity"]["speedup"] * 2
        with pytest.raises(ValueError, match="speedup"):
            validate_report(broken)

    def test_inconsistent_speedup_flag_rejected(self, report):
        broken = json.loads(json.dumps(report))
        broken["parity"]["speedup_ok"] = not broken["parity"][
            "speedup_ok"
        ]
        with pytest.raises(ValueError, match="speedup_ok"):
            validate_report(broken)

    def test_wrong_schema_rejected(self, report):
        broken = json.loads(json.dumps(report))
        broken["schema"] = "repro/other/v1"
        with pytest.raises(ValueError, match="schema"):
            validate_report(broken)


class TestCommittedArtifact:
    def test_bench_scale_json_meets_the_acceptance_bar(self):
        """The committed full-scale run: schema-valid, byte-parity with
        the object builder at n=4096, and the n=10^6 Cycloid bulk build
        >= 50x faster than the extrapolated object build, with kernel
        lookups executed on it."""
        path = pathlib.Path(__file__).parents[2] / "BENCH_scale.json"
        report = json.loads(path.read_text())
        validate_report(report)
        parity = report["parity"]
        assert parity["digest_match"] is True
        assert parity["target_count"] == 10**6
        assert parity["speedup"] >= SPEEDUP_BAR
        assert parity["speedup_ok"] is True
        million = [
            c
            for c in report["cells"]
            if c["protocol"] == "cycloid" and c["count"] == 10**6
        ]
        assert len(million) == 1
        assert million[0]["lookups"] >= 1000
        assert million[0]["lookups_per_sec"] > 0
        assert million[0]["success_rate"] == 1.0
