"""fig-adversary experiment: workers parity, report schema, committed artifact."""

import json
import pathlib

import pytest

from repro.experiments.adversary import (
    ADVERSARY_BENCH_SCHEMA,
    ADVERSARY_PROTOCOLS,
    adversary_report,
    run_adversary_experiment,
)
from repro.experiments.reports import validate_report
from repro.sim.adversary import AdversaryPlan

# Three overlays keeps the smoke fast while still exercising the
# >= 3-overlays acceptance bar the validator enforces.
SMALL = dict(
    population=96,
    protocols=("cycloid", "chord", "koorde"),
    fractions=(0.0, 0.1),
    lookups=120,
    seed=11,
    cache_capacity=8,
    key_universe=24,
)


@pytest.fixture(scope="module")
def results():
    return run_adversary_experiment(**SMALL)


def make_report(results, workers=1):
    return adversary_report(
        results,
        population=SMALL["population"],
        lookups=SMALL["lookups"],
        seed=SMALL["seed"],
        target_key="adversary-target",
        workers=workers,
        key_universe=SMALL["key_universe"],
        cache_capacity=SMALL["cache_capacity"],
    )


class TestExperiment:
    def test_cells_cover_the_grid(self, results):
        attacks = results["attacks"]
        assert [p.label for p in attacks] == [
            f"{protocol}/f={fraction:g}"
            for protocol in SMALL["protocols"]
            for fraction in SMALL["fractions"]
        ]
        for point in attacks:
            assert point.population == SMALL["population"]
            assert point.space >= 2 * SMALL["population"]
            assert 0.0 <= point.capture_fraction <= 1.0
            assert 0.0 <= point.interception_rate <= 1.0
            assert len(point.digest) == 64

    def test_baseline_cells_are_honest(self, results):
        for point in results["attacks"]:
            if point.fraction == 0.0:
                assert point.sybils == 0
                assert point.victims == 0
                assert point.poisoned_entries == 0
                assert point.capture_fraction == 0.0
                assert point.interception_rate == 0.0
                assert point.target_captured is False
                assert point.success_rate == 1.0

    def test_attack_cells_actually_attack(self, results):
        attacked = [p for p in results["attacks"] if p.fraction > 0.0]
        assert attacked
        for point in attacked:
            assert point.sybils == round(
                point.fraction * SMALL["population"]
            )
            assert point.victims > 0
            assert point.poisoned_entries > 0
        # Clustered sybils take the target key on at least one overlay.
        assert any(p.target_captured for p in attacked)
        assert any(p.interception_rate > 0.0 for p in attacked)

    def test_hotspot_cache_recovers_hops(self, results):
        hotspots = {h.label: h for h in results["hotspots"]}
        for protocol in SMALL["protocols"]:
            uncached = hotspots[f"{protocol}/cache-0"]
            cached = hotspots[f"{protocol}/cache-{SMALL['cache_capacity']}"]
            assert uncached.hit_rate == 0.0
            assert cached.hit_rate > 0.0
            assert cached.mean_hops < uncached.mean_hops
            assert cached.hits + cached.misses == SMALL["lookups"]

    def test_workers_do_not_change_any_point(self, results):
        """The acceptance pin at test scale: ``--workers 2`` must be
        bit-identical to ``--workers 1`` — digests included."""
        sharded = run_adversary_experiment(workers=2, **SMALL)
        assert results == sharded


class TestReportSchema:
    def test_valid_report_passes(self, results):
        report = make_report(results)
        assert report["schema"] == ADVERSARY_BENCH_SCHEMA
        validate_report(report)

    def test_workers_field_is_provenance_only(self, results):
        one = make_report(results, workers=1)
        two = make_report(results, workers=2)
        assert one.pop("workers") == 1
        assert two.pop("workers") == 2
        assert one == two

    def test_report_survives_json_round_trip(self, results):
        report = json.loads(json.dumps(make_report(results)))
        validate_report(report)
        for cell in report["cells"]:
            plan = AdversaryPlan.from_config(cell["plan"])
            assert plan.sybils == cell["sybils"]

    def test_degradation_deltas_are_consistent(self, results):
        report = make_report(results)
        for protocol, entry in report["degradation"].items():
            assert entry["success_drop"] == pytest.approx(
                entry["baseline_success"] - entry["worst_success"]
            )
            assert entry["hops_inflation"] == pytest.approx(
                entry["worst_hops"] - entry["baseline_hops"]
            )
            assert entry["success_drop"] >= 0.0

    def test_wrong_schema_rejected(self, results):
        report = make_report(results)
        report["schema"] = "repro/other/v1"
        with pytest.raises(ValueError, match="schema"):
            validate_report(report)

    def test_missing_cell_key_rejected(self, results):
        report = make_report(results)
        del report["cells"][0]["digest"]
        with pytest.raises(ValueError, match="digest"):
            validate_report(report)

    def test_out_of_range_rate_rejected(self, results):
        report = make_report(results)
        report["cells"][0]["capture_fraction"] = 1.5
        with pytest.raises(ValueError, match="capture_fraction"):
            validate_report(report)

    def test_malformed_plan_rejected(self, results):
        report = make_report(results)
        report["cells"][0]["plan"] = {"sybils": 3}  # no seed
        with pytest.raises((ValueError, TypeError, KeyError)):
            validate_report(report)

    def test_too_few_overlays_rejected(self, results):
        report = make_report(results)
        report["cells"] = [
            cell
            for cell in report["cells"]
            if cell["protocol"] == "cycloid"
        ]
        with pytest.raises(ValueError, match="overlays"):
            validate_report(report)

    def test_missing_hotspot_cells_rejected(self, results):
        report = make_report(results)
        report["hotspot"]["cells"] = []
        with pytest.raises(ValueError, match="hotspot"):
            validate_report(report)


class TestCommittedArtifact:
    def test_bench_adversary_json_is_valid_and_attacks_bite(self):
        """The committed full-scale run (n=2048) must validate and show
        the §S27 acceptance result: attacks measurably degrade lookups
        and the cache measurably absorbs the hotspot."""
        path = pathlib.Path(__file__).parents[2] / "BENCH_adversary.json"
        report = json.loads(path.read_text())
        validate_report(report)
        assert report["population"] == 2048
        protocols = {cell["protocol"] for cell in report["cells"]}
        assert protocols >= {"cycloid", "chord", "koorde"}
        attacked = [
            cell for cell in report["cells"] if cell["attacker_fraction"] > 0
        ]
        assert any(cell["interception_rate"] > 0.0 for cell in attacked)
        assert any(cell["target_captured"] for cell in attacked)
        cached = [
            cell
            for cell in report["hotspot"]["cells"]
            if cell["capacity"] > 0
        ]
        assert cached and all(cell["hit_rate"] > 0.0 for cell in cached)
