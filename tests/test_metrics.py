import csv
import io
import json
import pathlib

import pytest

from arsenal_sim.cache import CacheConfig
from arsenal_sim.harness import ExperimentConfig, run_experiment
from arsenal_sim.metrics import (
    COMPARE_CSV_COLUMNS,
    compute_metrics,
    emit_report,
    overhead,
    overhead_for_test_case,
    to_csv,
    to_json,
)
from arsenal_sim.traces import PatternSpec


# a no-prefetch run's AMAT, for the tests that read no speedup
BASELINE_AMAT = 200.0

README = pathlib.Path(__file__).parent.parent / "README.md"


def documented_run_csv_header() -> str:
    """The run CSV columns as README.md lists them, in its code block after
    "exactly these columns", joined into one header line."""
    text = README.read_text(encoding="utf-8")
    block = text.split("exactly these columns:", 1)[1].split("```")[1]
    return "".join(block.split())


def demand(hits=0, pf=0, late=0, misses=0):
    return {"total": hits + pf + late + misses, "hits": hits,
            "prefetch_hits": pf, "late_prefetch_hits": late, "misses": misses}


def prefetch(filled=0, **kw):
    base = {"attempted": 0, "accepted": 0, "dropped_resident": 0,
            "dropped_in_flight": 0, "dropped_queue_full": 0, "filled": filled,
            "late_converted": 0, "in_flight_at_end": 0, "evictions": 0,
            "evicted_unused_prefetches": 0}
    base.update(kw)
    return base


class TestComputeMetrics:
    def test_no_prefetches_gives_null_accuracy_zero_coverage(self):
        m = compute_metrics(demand(hits=50, misses=50), prefetch(filled=0),
                            CacheConfig(), BASELINE_AMAT)
        assert m["accuracy"] is None
        assert m["coverage"] == 0.0

    def test_coverage_arithmetic(self):
        m = compute_metrics(demand(pf=80, misses=20), prefetch(filled=100),
                            CacheConfig(), BASELINE_AMAT)
        assert m["coverage"] == 0.8
        assert m["accuracy"] == 0.8

    def test_speedup_proxy(self):
        m = compute_metrics(demand(hits=100), prefetch(), CacheConfig(),
                            baseline_amat=6.0)
        assert m["amat"] == 4.0
        assert m["speedup_proxy"] == 1.5

    def test_zero_accesses_is_an_error(self):
        with pytest.raises(ValueError):
            compute_metrics(demand(), prefetch(), CacheConfig(), BASELINE_AMAT)

    def test_integer_identity_fields(self):
        m = compute_metrics(demand(pf=7, late=3, misses=11),
                            prefetch(filled=20), CacheConfig(), BASELINE_AMAT)
        # ratios are derived from these exact integers
        assert m["useful"] == 7
        assert m["remaining_misses"] == 14
        assert m["coverage"] == 7 / 21
        assert m["useful"] + m["remaining_misses"] == 21

    def test_late_rate(self):
        m = compute_metrics(demand(hits=60, late=40), prefetch(), CacheConfig(),
                            BASELINE_AMAT)
        assert m["late_rate"] == 0.4


class TestOverhead:
    def test_framework_cost_single_component(self):
        report = overhead(1)
        assert abs(report["framework_total_kb"] - 3.0) < 0.1
        per = report["per_component"]
        assert per["counter_bits"] == {"eval": 9, "prefetch": 12,
                                       "score": 11, "total": 32}
        assert report["bloom_parameters"]["bit_table_bytes"] == 2397
        assert report["bloom_parameters"]["hash_count"] == 7

    def test_two_component_roster(self):
        report = overhead_for_test_case("tc1")
        assert abs(report["framework_total_kb"] - 6.0) < 0.1
        assert abs(report["grand_total_kb"] - 70.5) < 0.1
        assert report["component_costs_kb"] == {"tskid": 52.5, "mlop": 12.0}

    def test_three_component_roster(self):
        report = overhead_for_test_case("tc2")
        assert abs(report["framework_total_kb"] - 9.0) < 0.1
        assert abs(report["grand_total_kb"] - 20.2) < 0.1

    def test_exact_bits_flagged_in_notes(self):
        report = overhead(3)
        assert any("96 bits" in note for note in report["notes"])

    def test_bad_component_count(self):
        with pytest.raises(ValueError):
            overhead(0)

    def test_unknown_test_case(self):
        with pytest.raises(ValueError):
            overhead_for_test_case("tc9")


@pytest.fixture(scope="module")
def small_report():
    cfg = ExperimentConfig(
        engine="next-line",
        pattern=PatternSpec(kind="sequential", seed=6),
        length=3000,
        seed=6,
        label="golden",
    )
    return run_experiment(cfg)


class TestEmitReport:
    def test_json_emission_is_stable(self, small_report):
        a, b = io.StringIO(), io.StringIO()
        emit_report(small_report, "json", a)
        emit_report(small_report, "json", b)
        assert a.getvalue() == b.getvalue()

    def test_json_round_trips(self, small_report):
        text = to_json(small_report)
        assert to_json(json.loads(text)) == text

    def test_csv_header_matches_documented_columns(self, small_report):
        text = to_csv(small_report)
        header = text.splitlines()[0]
        assert header == documented_run_csv_header()
        assert len(text.splitlines()) == 2

    def test_csv_row_content(self, small_report):
        [by_col] = csv.DictReader(io.StringIO(to_csv(small_report)))
        assert by_col["engine"] == "next-line"
        assert by_col["trace"] == "sequential"
        assert int(by_col["total_accesses"]) == 3000

    def test_unknown_format_rejected(self, small_report):
        with pytest.raises(ValueError):
            emit_report(small_report, "xml", io.StringIO())

    def test_compare_csv_columns(self):
        from arsenal_sim.harness import compare_engines
        report = compare_engines(
            [{"label": "t", "pattern": {"kind": "sequential", "seed": 1},
              "length": 2000}], policy="tc2", seed=1)
        lines = to_csv(report).splitlines()
        assert lines[0] == ",".join(COMPARE_CSV_COLUMNS)
        assert len(lines) == 1 + len(report["engines"])

    def test_golden_report_schema(self, small_report):
        # top-level shape is pinned; a schema change must be deliberate
        assert list(small_report) == [
            "schema", "experiment", "demand", "prefetch", "per_component",
            "metrics", "selection_timeline"]
        assert small_report["schema"] == "arsenal-sim-report-v1"
        assert list(small_report["demand"]) == [
            "total", "hits", "prefetch_hits", "late_prefetch_hits", "misses"]
        assert list(small_report["metrics"]) == [
            "amat", "baseline_amat", "speedup_proxy", "accuracy", "coverage",
            "late_rate", "useful", "remaining_misses", "filled"]

    def test_arsenal_report_carries_overhead_accounting(self):
        cfg = ExperimentConfig(
            engine="arsenal-tc2",
            pattern=PatternSpec(kind="sequential", seed=6),
            length=2000,
        )
        report = run_experiment(cfg)
        assert abs(report["overhead"]["framework_total_kb"] - 9.0) < 0.1
        assert report["overhead"]["policy"] == "tc2"

    def test_golden_file_fixed_seed(self):
        # byte-for-byte against a frozen report; regenerate the fixture only
        # for deliberate schema changes (recipe in the fixture's git history)
        cfg = ExperimentConfig(
            engine="arsenal-tc2",
            pattern=PatternSpec(kind="phased", segments=[
                {"spec": {"kind": "pc_delta", "streams": [
                    {"pc": 1024, "start": 0, "delta": 512},
                    {"pc": 1040, "start": 1048640, "delta": 512}]},
                 "length": 1536},
                {"spec": {"kind": "sequential", "start": 1073741824},
                 "length": 1536},
            ], seed=2024),
            length=6144,
            seed=2024,
            label="golden",
        )
        golden = pathlib.Path(__file__).parent / "data" / "golden_report.json"
        assert to_json(run_experiment(cfg)) == golden.read_text()
