"""One pass per trace: sharing a pass changes no simulated result.

``run`` drives its engine and the no-prefetch baseline, and ``compare`` all
engines of a trace, over a single ``ExperimentConfig.events()`` pass, a
slice of events at a time. The references here run every simulation
separately, each over its own ``Simulation.run(cfg.events())``. Over the
same random configs, a run report's per-component counts add up to its
prefetch and demand totals, those totals balance against the lines the
engine returned, and every engine of a pass counts each demand access once.
Stepping a simulation one event at a time gives what ``run`` gives.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arsenal_sim.cache import SOURCE_FIELDS, amat
from arsenal_sim.harness import (
    ARSENAL_PREFIX,
    ENGINE_NAMES,
    SLICE_EVENTS,
    ExperimentConfig,
    NoPrefetchEngine,
    Simulation,
    build_engine,
    compare_engines,
    run_engines,
    run_experiment,
)
from arsenal_sim.metrics import compute_metrics
from arsenal_sim.traces import PatternSpec, generate, write_trace
from random_configs import caches, patterns, score_steps

LENGTHS = [1, SLICE_EVENTS - 1, SLICE_EVENTS, SLICE_EVENTS + 1,
           3 * SLICE_EVENTS + 17]

# short phases, so the sandbox decides and resets within the trace
arsenal_params = st.sampled_from([{}, {"eval_cnt": 32}])


def _nonzero(counts: dict) -> dict:
    return {name: n for name, n in counts.items() if n}


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@settings(max_examples=15, deadline=None)
@given(pattern=patterns, cache=caches, length=st.sampled_from(LENGTHS),
       arsenal=arsenal_params)
def test_stepping_each_event_matches_run(engine, pattern, cache, length, arsenal):
    cfg = ExperimentConfig(engine=engine, pattern=pattern, length=length,
                           cache=cache, arsenal=arsenal, seed=7)
    stepped = Simulation(cache, build_engine(cfg, cfg.engine))
    for event in cfg.events():
        stepped.step(event)
    ran = Simulation(cache, build_engine(cfg, cfg.engine))
    ran.run(cfg.events())
    assert stepped.cache.demand_counts() == ran.cache.demand_counts()
    assert stepped.cache.prefetch_counts() == ran.cache.prefetch_counts()
    assert dict(stepped.cache.by_source) == dict(ran.cache.by_source)
    assert (getattr(stepped.engine, "selection_timeline", None)
            == getattr(ran.engine, "selection_timeline", None))


@settings(max_examples=100, deadline=None)
@given(engine=st.sampled_from(ENGINE_NAMES), pattern=patterns, cache=caches,
       length=st.sampled_from(LENGTHS), arsenal=arsenal_params)
def test_run_report_matches_separate_runs(engine, pattern, cache, length, arsenal):
    cfg = ExperimentConfig(engine=engine, pattern=pattern, length=length,
                           cache=cache, arsenal=arsenal, seed=7)
    report = run_experiment(cfg)

    reference = build_engine(cfg, cfg.engine)
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
    counted = {field: {source: row[i] for source, row in sim.cache.by_source.items()}
               for i, field in enumerate(SOURCE_FIELDS)}
    counted["shadow_candidates"] = getattr(reference, "total_candidates", {})
    for field, counts in counted.items():
        assert _nonzero({name: row[field] for name, row in rows.items()}) \
            == _nonzero(counts), field


@settings(max_examples=100, deadline=None)
@given(engine=st.sampled_from(ENGINE_NAMES), pattern=patterns, cache=caches,
       length=st.sampled_from(LENGTHS), eval_cnt=st.integers(1, 600),
       score_inc=score_steps, score_dec=score_steps)
def test_per_source_accounting_is_conserved(engine, pattern, cache, length, eval_cnt,
                                            score_inc, score_dec):
    returned = [0]   # the lines the engine handed to the cache, counted outside it

    def counted_engine(cfg, name):
        built = build_engine(cfg, name)
        if name == engine:
            inner = built.on_pae

            def on_pae(pc, line, seq):
                source, lines = inner(pc, line, seq)
                returned[0] += len(lines)
                return source, lines
            built.on_pae = on_pae
        return built

    with mock.patch("arsenal_sim.harness.build_engine", counted_engine):
        report = run_experiment(ExperimentConfig(
            engine=engine, pattern=pattern, length=length, cache=cache,
            arsenal={"eval_cnt": eval_cnt, "score_inc": score_inc,
                     "score_dec": score_dec}, seed=7))
    rows = report["per_component"].values()
    prefetch = report["prefetch"]
    for total, field in (("attempted", "issued"), ("accepted", "accepted"),
                         ("filled", "filled")):
        assert sum(row[field] for row in rows) == prefetch[total], field
    assert sum(row["useful"] for row in rows) == report["demand"]["prefetch_hits"]
    # the totals against counts made elsewhere: each line returned is one
    # attempt, accepted or dropped, and each accepted one fills, turns late
    # or is still in flight
    assert prefetch["attempted"] == returned[0]
    assert prefetch["attempted"] == prefetch["accepted"] + sum(
        prefetch[key] for key in ("dropped_resident", "dropped_in_flight",
                                  "dropped_queue_full"))
    assert prefetch["accepted"] == (prefetch["filled"] + prefetch["late_converted"]
                                    + prefetch["in_flight_at_end"])
    if engine.startswith(ARSENAL_PREFIX):  # only a deployed component issues
        chosen = {decision["chosen"] for decision in report["selection_timeline"]}
        for name, row in report["per_component"].items():
            assert not row["issued"] or name in chosen, name


@settings(max_examples=30, deadline=None)
@given(pattern=patterns, cache=caches, length=st.sampled_from(LENGTHS),
       eval_cnt=st.integers(1, 600), score_inc=score_steps, score_dec=score_steps)
def test_demand_counts_do_not_depend_on_the_engine(pattern, cache, length, eval_cnt,
                                                   score_inc, score_dec):
    cfg = ExperimentConfig(pattern=pattern, length=length, cache=cache, seed=7,
                           arsenal={"eval_cnt": eval_cnt, "score_inc": score_inc,
                                    "score_dec": score_dec})
    sims = {engine: sim for engine, (sim, _) in run_engines(cfg, ENGINE_NAMES).items()}
    baseline = sims["none"].cache.demand_counts()
    for engine, sim in sims.items():
        demand = sim.cache.demand_counts()
        assert demand["total"] == length, engine  # each access counted once
        if cache.prefetch_queue_capacity == 0:  # no prefetch can change an outcome
            assert demand == baseline, engine


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
        sim = Simulation(cache, build_engine(cfg, cfg.engine))
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
