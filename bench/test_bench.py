"""Self-test of the benchmark's own checks and tracer.

    python3 -m unittest discover -s bench
"""

import copy
import json
import os
import shutil
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import arsenal_sim.cli  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5  # not pinned, so only the structural checks apply


def _produce(workload: str, seed: int = SEED):
    """Run one workload's command in-process; returns (bytes, report, expect)."""
    workdir = tempfile.mkdtemp()
    try:
        invocation = workloads.WORKLOADS[workload](seed, workdir)
        assert arsenal_sim.cli.main(invocation.argv) == 0
        with open(invocation.report_path, "rb") as fh:
            data = fh.read()
    finally:
        shutil.rmtree(workdir)
    return data, json.loads(data), invocation.expect()


def _entry_points() -> dict:
    """Every attribute the tracer may replace, keyed by (owner, name)."""
    from arsenal_sim import arsenal, bloom, cache, harness, prefetchers
    owners = [cache.SetAssociativeCache, bloom.BloomFilter, arsenal.Arsenal,
              harness.Simulation, harness.ExperimentConfig,
              *(getattr(prefetchers, name) for name in tracing.PREFETCHERS)]
    owners += [m for k, m in sys.modules.items() if k.startswith("arsenal_sim")]
    return {(id(owner), attr): value for owner in owners
            for attr, value in list(vars(owner).items()) if callable(value)}


class RunChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.data, cls.report, cls.expect = _produce("phased-tc2")

    def test_real_report_passes(self):
        self.assertEqual(checks.check_report(self.data, self.report, self.expect,
                                             "phased-tc2", SEED), [])

    def test_one_prefetch_removed_from_filled_is_flagged(self):
        report = copy.deepcopy(self.report)
        source = next(name for name, c in report["per_component"].items() if c["filled"])
        report["prefetch"]["filled"] -= 1
        report["per_component"][source]["filled"] -= 1
        self.assertTrue(checks.check_run(report, self.expect))

    def test_per_component_mismatch_is_flagged(self):
        report = copy.deepcopy(self.report)
        source = next(name for name, c in report["per_component"].items() if c["useful"])
        report["per_component"][source]["useful"] += 1
        self.assertTrue(checks.check_run(report, self.expect))

    def test_short_trace_is_flagged(self):
        expect = dict(self.expect, trace_lengths=[self.expect["trace_lengths"][0] + 1])
        self.assertTrue(checks.check_run(self.report, expect))

    def test_pinned_digests_match_the_workloads(self):
        for workload, seed in checks.PINNED_DIGESTS:
            data, _, _ = _produce(workload, seed)
            self.assertEqual(checks.check_digest(data, workload, seed), [], workload)

    def test_digest_is_enforced_at_pinned_seeds(self):
        self.assertTrue(checks.check_digest(self.data, "phased-tc2", checks.DEFAULT_SEED))
        self.assertTrue(checks.check_digest(self.data, "phased-tc2", checks.HELD_OUT_SEED))


class CompareChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.data, cls.report, cls.expect = _produce("compare-tc1-files")

    def test_real_report_passes(self):
        self.assertEqual(checks.check_compare(self.report, self.expect), [])

    def test_baseline_speedup_not_one_is_flagged(self):
        report = copy.deepcopy(self.report)
        report["per_trace"][0]["results"]["none"]["speedup_proxy"] = 1.01
        self.assertTrue(checks.check_compare(report, self.expect))

    def test_oracle_not_best_standalone_is_flagged(self):
        report = copy.deepcopy(self.report)
        entry = report["per_trace"][0]
        worst = min(("tskid", "mlop"), key=lambda e: entry["results"][e]["speedup_proxy"])
        entry["oracle"] = {"engine": worst,
                           "speedup_proxy": entry["results"][worst]["speedup_proxy"]}
        self.assertTrue(checks.check_compare(report, self.expect))


class Tracer(unittest.TestCase):
    def test_traced_run_restores_the_originals(self):
        before = _entry_points()
        tracer = tracing.Tracer()
        workdir = tempfile.mkdtemp()
        try:
            invocation = workloads.phased_tc2(SEED, workdir)
            tracer.install()
            try:
                self.assertNotEqual(_entry_points(), before)
                self.assertEqual(arsenal_sim.cli.main(invocation.argv), 0)
            finally:
                tracer.uninstall()
        finally:
            shutil.rmtree(workdir)
        after = _entry_points()
        self.assertEqual(after.keys(), before.keys())
        for key, value in before.items():
            self.assertIs(after[key], value)
        layers = tracer.layer_metrics()
        self.assertEqual(layers["traces.events"], 2 * workloads.PHASED_LENGTH)
        self.assertEqual(layers["cache.access.calls"], 2 * workloads.PHASED_LENGTH)
        self.assertGreater(layers["bloom.insert.calls"], 0)
        self.assertEqual(layers["prefetchers.mlop.on_pae.calls"], 0)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        names = [*tracing.Tracer().layer_metrics(), "tracing.wall_s", "tracing.overhead_s"]
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: tracing.unit_of(name) for name in names})


if __name__ == "__main__":
    unittest.main()
