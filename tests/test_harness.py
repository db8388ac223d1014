import inspect
import json
import pathlib
from dataclasses import asdict

import pytest

from arsenal_sim import arsenal, harness
from arsenal_sim.arsenal import COMPONENTS, ArsenalConfig
from arsenal_sim.cache import CacheConfig
from arsenal_sim.harness import (
    DEFAULT_LENGTH,
    ENGINE_NAMES,
    ExperimentConfig,
    NoPrefetchEngine,
    Simulation,
    build_engine,
    compare_engines,
    experiment_from_dict,
    run_experiment,
)
from arsenal_sim.prefetchers import NextLinePrefetcher
from arsenal_sim.traces import INT_CAP, LENGTH_RANGE, SEED_RANGE, PatternSpec

README = pathlib.Path(__file__).parent.parent / "README.md"


def pc_delta_streams(n=8, delta=512):
    # staggered starts spread the streams across cache sets
    return [{"pc": 0x400 + 16 * i, "start": 0x100000 * i + 64 * i, "delta": delta}
            for i in range(n)]


def seq_cfg(engine, length=20_000, **cache_kw):
    return ExperimentConfig(
        engine=engine,
        pattern=PatternSpec(kind="sequential", seed=3),
        length=length,
        cache=CacheConfig(**cache_kw),
    )


class TestNoPrefetchBaseline:
    def test_zero_issues_and_unit_speedup(self):
        report = run_experiment(seq_cfg("none", length=5000))
        assert report["prefetch"]["attempted"] == 0
        assert report["prefetch"]["accepted"] == 0
        assert report["metrics"]["speedup_proxy"] == 1.0
        assert report["metrics"]["baseline_amat"] == report["metrics"]["amat"]

    def test_demand_conservation(self):
        report = run_experiment(seq_cfg("none", length=5000))
        d = report["demand"]
        assert d["total"] == d["hits"] + d["prefetch_hits"] + \
            d["late_prefetch_hits"] + d["misses"]


class TestConservation:
    @pytest.mark.parametrize("engine", ["next-line", "ip-stride", "arsenal-tc2"])
    def test_prefetch_accounting_balances(self, engine):
        cfg = ExperimentConfig(
            engine=engine,
            pattern=PatternSpec(kind="phased", segments=[
                {"spec": {"kind": "pc_delta", "streams": pc_delta_streams()},
                 "length": 6000},
                {"spec": {"kind": "sequential", "start": 0x40000000},
                 "length": 6000},
            ], seed=11),
            length=24_000,
        )
        report = run_experiment(cfg)
        p = report["prefetch"]
        assert p["attempted"] == (p["accepted"] + p["dropped_resident"]
                                  + p["dropped_in_flight"] + p["dropped_queue_full"])
        assert p["accepted"] == (p["filled"] + p["late_converted"]
                                 + p["in_flight_at_end"])
        d = report["demand"]
        assert d["total"] == d["hits"] + d["prefetch_hits"] + \
            d["late_prefetch_hits"] + d["misses"]


class TestDeterminism:
    def test_identical_config_identical_report(self):
        cfg_dict = {
            "engine": "arsenal-tc2",
            "pattern": {"kind": "random_working_set",
                        "working_set_lines": 2048, "seed": 5},
            "length": 15_000,
            "seed": 5,
        }
        a = run_experiment(experiment_from_dict(cfg_dict))
        b = run_experiment(experiment_from_dict(cfg_dict))
        assert json.dumps(a) == json.dumps(b)


class TestEngines:
    def test_engine_name_validation(self):
        with pytest.raises(ValueError, match="unknown engine"):
            seq_cfg("turbo")

    def test_exactly_one_trace_source(self):
        with pytest.raises(ValueError):
            ExperimentConfig(engine="none")
        with pytest.raises(ValueError):
            ExperimentConfig(engine="none", trace_file="x.trace",
                             pattern=PatternSpec(kind="sequential"))

    def test_standalone_aggressiveness_defaults(self):
        nl = build_engine(seq_cfg("next-line"), "next-line")
        assert nl.component.degree == 5
        ip = build_engine(seq_cfg("ip-stride"), "ip-stride")
        assert ip.component.degree == 8

    def test_all_engine_names_buildable(self):
        for name in ENGINE_NAMES:
            engine = build_engine(seq_cfg(name), name)
            assert engine.describe()

    def test_shadow_isolation(self):
        # only components that were actually selected ever reach the queue
        cfg = ExperimentConfig(
            engine="arsenal-tc2",
            pattern=PatternSpec(kind="sequential", seed=4),
            length=10_000,
        )
        engine = build_engine(cfg, cfg.engine)
        sim = Simulation(cfg.cache, engine)
        sim.run(cfg.events())
        ever_selected = {d["chosen"] for d in engine.selection_timeline}
        assert set(sim.cache.by_source) <= ever_selected - {None}

    def test_arsenal_seed_defaults_to_experiment_seed(self):
        cfg = ExperimentConfig(engine="arsenal-tc2",
                               pattern=PatternSpec(kind="sequential"),
                               length=10, seed=99)
        engine = build_engine(cfg, cfg.engine)
        assert engine.config.master_seed == 99


class TestSimulationStepping:
    def test_mid_run_snapshots(self):
        cfg = seq_cfg("next-line", prefetch_fill_delay=0)
        sim = Simulation(cfg.cache, build_engine(cfg, cfg.engine))
        events = list(cfg.events())
        for ev in events[:1000]:
            sim.step(ev)
        warm = sim.cache.demand_counts()
        for ev in events[1000:]:
            sim.step(ev)
        full = sim.cache.demand_counts()
        assert warm["total"] == 1000
        assert full["total"] == len(events)
        post = {k: full[k] - warm[k] for k in full}
        assert post["prefetch_hits"] > 0.9 * post["total"]

    def test_pae_count_tracks_non_hits(self):
        cfg = seq_cfg("none", length=2000)
        engine = NoPrefetchEngine()
        paes = []
        engine.on_pae = lambda *pae: paes.append(pae) or (None, [])
        sim = Simulation(cfg.cache, engine)
        sim.run(cfg.events())
        d = sim.cache.demand_counts()
        assert len(paes) == d["total"] - d["hits"]


class TestTraceFileInput(object):
    def test_run_from_file(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# demo\n0x400 0x0 R\n0x400 0x40 R\n0x400 0x0 R\n")
        cfg = ExperimentConfig(engine="none", trace_file=str(path))
        report = run_experiment(cfg)
        assert report["demand"]["total"] == 3
        assert report["demand"]["hits"] == 1
        assert report["experiment"]["trace"] == {"file": str(path)}

    def test_missing_file_raises(self):
        with pytest.raises(OSError):
            ExperimentConfig(engine="none", trace_file="/nonexistent/x.trace")


class TestCompare:
    def test_compare_shape_and_oracle(self):
        traces = [
            {"label": "seq", "pattern": {"kind": "sequential", "seed": 2},
             "length": 8000},
            {"label": "stride",
             "pattern": {"kind": "pc_delta", "streams": pc_delta_streams()},
             "length": 8000},
        ]
        report = compare_engines(traces, policy="tc2", seed=2)
        assert report["engines"] == ["none", "spp", "ip-stride", "next-line",
                                     "arsenal-tc2"]
        assert len(report["per_trace"]) == 2
        for entry in report["per_trace"]:
            speedups = {e: entry["results"][e]["speedup_proxy"]
                        for e in report["engines"]}
            assert speedups["none"] == 1.0
            oracle = entry["oracle"]
            best = max("spp ip-stride next-line".split(),
                       key=lambda e: speedups[e])
            assert oracle["engine"] == best
            assert oracle["speedup_proxy"] == speedups[best]
        assert set(report["average_speedup_proxy"]) == {
            "none", "spp", "ip-stride", "next-line", "arsenal-tc2", "oracle"}

    def test_compare_tc1_roster(self):
        traces = [{"label": "ws",
                   "pattern": {"kind": "random_working_set",
                               "working_set_lines": 1024, "seed": 3},
                   "length": 4000}]
        report = compare_engines(traces, policy="tc1", seed=3)
        assert report["engines"] == ["none", "tskid", "mlop", "arsenal-tc1"]

    @pytest.mark.parametrize("policy,params", [
        ("tc1", {"mlop": {"round_paes": 64}, "tskid": {"lead": 7}}),
        ("tc2", {"spp": {"lookahead_depth": 3}, "ip_stride": {"table_size": 16},
                 "next_line": {"max_degree": 3}}),
    ])
    def test_sandbox_and_standalone_share_component_params(self, monkeypatch,
                                                           policy, params):
        built = []  # (name, standalone, component)
        build = arsenal.build_component

        def spy(name, params, max_line, standalone=False):
            component = build(name, params, max_line, standalone)
            built.append((name, standalone, component))
            return component

        monkeypatch.setattr(arsenal, "build_component", spy)
        monkeypatch.setattr(harness, "build_component", spy)
        compare_engines([{"pattern": {"kind": "sequential"}, "length": 300}],
                        policy=policy, component_params=params)
        assert sorted((name, standalone) for name, standalone, _ in built) == \
            sorted((name, standalone) for name in params for standalone in (False, True))
        for name, _, component in built:
            for key, value in params[name].items():
                assert getattr(component, key) == value, (name, key)


class TestExperimentFromDict:
    def test_full_round_trip(self):
        data = {
            "engine": "arsenal-tc2",
            "pattern": {"kind": "stride", "stride": 256, "seed": 4},
            "length": 5000,
            "cache": {"sets": 32, "ways": 4},
            "arsenal": {"eval_cnt": 128},
            "seed": 4,
            "label": "demo",
        }
        cfg = experiment_from_dict(data)
        assert cfg.cache.sets == 32
        assert cfg.arsenal["eval_cnt"] == 128
        report = run_experiment(cfg)
        assert report["experiment"]["label"] == "demo"
        assert report["experiment"]["cache"]["sets"] == 32
        decided = [d["decided_at"] for d in report["selection_timeline"]]
        assert len(decided) > 10

    def test_unknown_cache_field_rejected(self):
        with pytest.raises(ValueError, match="unknown cache fields"):
            experiment_from_dict({"engine": "none",
                                  "pattern": {"kind": "sequential"},
                                  "cache": {"banks": 2}})

    def test_unknown_experiment_field_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment fields"):
            experiment_from_dict({"engine": "none",
                                  "pattern": {"kind": "sequential"},
                                  "legnth": 100})

    def test_sink_hints_allowed(self):
        cfg = experiment_from_dict({"engine": "none",
                                    "pattern": {"kind": "sequential"},
                                    "length": 10,
                                    "out": "r.json", "format": "json"})
        assert cfg.length == 10

    def test_pattern_without_length_runs_the_default(self):
        cfg = experiment_from_dict({"pattern": {"kind": "sequential"}})
        assert cfg.length == DEFAULT_LENGTH
        assert cfg.trace_summary()["length"] == DEFAULT_LENGTH


def documented_ranges() -> dict:
    """README.md's range table, (object, field) -> range, as it reads: the
    rows after its "| object | field | range |" header, one pair for each
    field a row lists."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| object | field | range |", 1)[1].split("\n\n", 1)[0]
    ranges = {}
    for row in table.strip().splitlines()[1:]:  # the first is the separator
        obj, keys, bounds = (cell.strip() for cell in row.strip("|").split("|"))
        for key in keys.split(","):
            ranges[obj, key.strip().strip("`")] = bounds
    return ranges


def range_text(low, high, strict=False) -> str:
    """A RANGES entry as README.md writes it."""
    def show(value):
        return "2**64" if value == INT_CAP else str(value)
    if low is None:
        return f"<= {show(high)}"
    if high is None:
        return f">= {show(low)}"
    if strict:
        return f"({show(low)}, {show(high)})"
    return f"[{show(low)}, {show(high)}]"


def test_readme_range_table_is_the_codes():
    tables = {"top level, `compare` trace, phased segment": LENGTH_RANGE,
              "top level": SEED_RANGE,
              "`cache`": CacheConfig.RANGES, "`pattern`": PatternSpec.RANGES,
              "`arsenal`": ArsenalConfig.RANGES,
              **{f"`{name}`": c.cls.RANGES for name, c in COMPONENTS.items()}}
    declared = {(obj, key): range_text(*bounds)
                for obj, table in tables.items() for key, bounds in table.items()}
    assert documented_ranges() == declared


def test_readme_config_example_shows_the_defaults():
    # the example's cache, arsenal and component_params objects are the
    # code's defaults; its top-level values are only an example
    text = README.read_text(encoding="utf-8")
    example = text.split("`run --config` takes", 1)[1]
    example = example.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = experiment_from_dict(json.loads(example))
    assert asdict(cfg.cache) == asdict(CacheConfig())
    assert cfg.arsenal_config == ArsenalConfig(
        master_seed=cfg.seed or ArsenalConfig.master_seed)
    max_degree = inspect.signature(NextLinePrefetcher).parameters["max_degree"]
    assert cfg.component_params == {"next_line": {"max_degree": max_degree.default}}
