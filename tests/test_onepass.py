"""One pass per trace: sharing a pass changes no simulated result.

``run`` drives its engine and the no-prefetch baseline, and ``compare`` all
engines of a trace, over a single ``ExperimentConfig.events()`` pass, a
slice of events at a time. The references here run every simulation
separately, each over its own ``Simulation.run(cfg.events())``. Over the
same random configs, a run report's per-component counts add up to its
prefetch and demand totals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from arsenal_sim.cache import CacheConfig, amat
from arsenal_sim.harness import (
    ARSENAL_PREFIX,
    ENGINE_NAMES,
    SLICE_EVENTS,
    ExperimentConfig,
    NoPrefetchEngine,
    Simulation,
    build_engine,
    compare_engines,
    run_experiment,
)
from arsenal_sim.metrics import compute_metrics
from arsenal_sim.traces import PatternSpec, generate, write_trace

LENGTHS = [1, SLICE_EVENTS - 1, SLICE_EVENTS, SLICE_EVENTS + 1,
           3 * SLICE_EVENTS + 17]

PATTERNS = [
    {"kind": "sequential"},
    {"kind": "stride", "stride": 320},
    {"kind": "random_working_set", "working_set_lines": 96,
     "write_fraction": 0.3},
    {"kind": "pc_delta", "streams": [
        {"pc": 0x400, "start": 0, "delta": 128},
        {"pc": 0x408, "start": 1 << 20, "delta": -64}]},
    {"kind": "phased", "segments": [
        {"spec": {"kind": "stride", "stride": 192}, "length": 100},
        {"spec": {"kind": "random_working_set", "working_set_lines": 64},
         "length": 150}]},
]

caches = st.builds(
    CacheConfig,
    sets=st.sampled_from([1, 4, 16]),
    ways=st.sampled_from([1, 2, 4]),
    prefetch_fill_delay=st.sampled_from([0, 3, 40]),
    prefetch_queue_capacity=st.sampled_from([0, 2, 16]),
)
patterns = st.builds(lambda spec, seed: PatternSpec.from_dict({**spec, "seed": seed}),
                     st.sampled_from(PATTERNS), st.integers(0, 50))
# short phases, so the sandbox decides and resets within the trace
arsenal_params = st.sampled_from([{}, {"eval_cnt": 32}])


def _nonzero(counts: dict) -> dict:
    return {name: n for name, n in counts.items() if n}


@settings(max_examples=100, deadline=None)
@given(engine=st.sampled_from(ENGINE_NAMES), pattern=patterns, cache=caches,
       length=st.sampled_from(LENGTHS), arsenal=arsenal_params)
def test_run_report_matches_separate_runs(engine, pattern, cache, length, arsenal):
    cfg = ExperimentConfig(engine=engine, pattern=pattern, length=length,
                           cache=cache, arsenal=arsenal, seed=7)
    report = run_experiment(cfg)

    reference = build_engine(cfg)
    sim = Simulation(cache, reference)
    sim.run(cfg.events())
    base = Simulation(cache, NoPrefetchEngine())
    base.run(cfg.events())
    demand = sim.cache.demand_counts()
    prefetch = sim.cache.prefetch_counts()
    assert report["demand"] == demand
    assert report["prefetch"] == prefetch
    assert report["metrics"] == compute_metrics(
        demand, prefetch, cache, amat(base.cache.demand_counts(), cache))
    assert report["experiment"]["engine_detail"] == reference.describe()
    assert report["selection_timeline"] == getattr(reference, "selection_timeline", [])
    rows = report["per_component"]
    for field, counts in (("issued", sim.cache.issued_by_source),
                          ("accepted", sim.cache.accepted_by_source),
                          ("filled", sim.cache.filled_by_source),
                          ("useful", sim.cache.useful_by_source),
                          ("shadow_candidates",
                           getattr(reference, "total_candidates", {}))):
        assert _nonzero({name: row[field] for name, row in rows.items()}) \
            == _nonzero(counts), field


@settings(max_examples=100, deadline=None)
@given(engine=st.sampled_from(ENGINE_NAMES), pattern=patterns, cache=caches,
       length=st.sampled_from(LENGTHS), eval_cnt=st.integers(1, 600))
def test_per_source_accounting_is_conserved(engine, pattern, cache, length, eval_cnt):
    report = run_experiment(ExperimentConfig(
        engine=engine, pattern=pattern, length=length, cache=cache,
        arsenal={"eval_cnt": eval_cnt}, seed=7))
    rows = report["per_component"].values()
    prefetch = report["prefetch"]
    for total, field in (("attempted", "issued"), ("accepted", "accepted"),
                         ("filled", "filled")):
        assert sum(row[field] for row in rows) == prefetch[total], field
    assert sum(row["useful"] for row in rows) == report["demand"]["prefetch_hits"]
    if engine.startswith(ARSENAL_PREFIX):  # only a deployed component issues
        chosen = {decision["chosen"] for decision in report["selection_timeline"]}
        for name, row in report["per_component"].items():
            assert not row["issued"] or name in chosen, name


@settings(max_examples=40, deadline=None)
@given(policy=st.sampled_from(["tc1", "tc2"]), pattern=patterns, cache=caches,
       length=st.sampled_from(LENGTHS), arsenal=arsenal_params)
def test_compare_matches_separate_runs(tmp_path_factory, policy, pattern, cache,
                                       length, arsenal):
    path = tmp_path_factory.mktemp("onepass") / "t.trace"
    with open(path, "w", encoding="utf-8") as fh:
        write_trace(generate(pattern, length), fh)
    report = compare_engines([{"label": "t", "file": str(path)}], policy=policy,
                             cache=cache, arsenal=arsenal, seed=7)

    expected = {}
    for engine in report["engines"]:  # none first: its own AMAT is the baseline
        cfg = ExperimentConfig(engine=engine, trace_file=str(path), cache=cache,
                               arsenal=arsenal, seed=7)
        sim = Simulation(cache, build_engine(cfg))
        sim.run(cfg.events())
        if engine == "none":
            baseline = amat(sim.cache.demand_counts(), cache)
        metrics = compute_metrics(sim.cache.demand_counts(),
                                  sim.cache.prefetch_counts(), cache, baseline)
        expected[engine] = {key: metrics[key] for key in
                            ("amat", "speedup_proxy", "coverage", "accuracy")}
    assert report["engines"][0] == "none"
    assert report["per_trace"][0]["results"] == expected


def test_one_events_pass_per_run_and_per_compare_trace(monkeypatch, tmp_path):
    calls = []
    events = ExperimentConfig.events

    def counted(cfg):
        calls.append(cfg)
        return events(cfg)
    monkeypatch.setattr(ExperimentConfig, "events", counted)

    spec = PatternSpec(kind="sequential", seed=3)
    run_experiment(ExperimentConfig(engine="arsenal-tc2", pattern=spec, length=600))
    assert len(calls) == 1

    path = tmp_path / "t.trace"
    with open(path, "w", encoding="utf-8") as fh:
        write_trace(generate(spec, 600), fh)
    calls.clear()
    compare_engines([{"file": str(path)},
                     {"pattern": spec.to_dict(), "length": 600}], policy="tc1")
    assert len(calls) == 2
