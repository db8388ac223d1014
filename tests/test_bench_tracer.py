"""The bench's per-layer tracer (``bench/tracing.py``) still sees the run.

The tracer wraps names inside ``arsenal_sim`` from outside, so a refactor
that renames or bypasses one of them leaves its counts at zero without an
error. A short phased run and a compare over two trace files, each through
``cli.main``, check the counts that ``run_engines``'s single pass over each
trace fixes.
"""

import json
import pathlib

from arsenal_sim import cli
from arsenal_sim.traces import PatternSpec, generate, write_trace

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
LENGTH = 3000
PHASED = {"kind": "phased", "seed": 1, "segments": [
    {"spec": {"kind": "stride", "stride": 512, "pc": 0x400}, "length": LENGTH // 2},
    {"spec": {"kind": "sequential", "start": 1 << 24}, "length": LENGTH // 2}]}


def traced_main(monkeypatch, argv: list[str]) -> dict:
    """The layer metrics of a traced ``cli.main(argv)`` that exits 0."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer.layer_metrics()


def traced_run(tmp_path, monkeypatch, engine: str) -> tuple[dict, dict]:
    """A traced phased ``run`` of ``engine``: its report and layer metrics."""
    out = tmp_path / "report.json"
    layers = traced_main(monkeypatch, [
        "run", "--engine", engine, "--pattern", json.dumps(PHASED),
        "--length", str(LENGTH), "--out", str(out)])
    return json.loads(out.read_text()), layers


def test_traced_phased_run_counts_every_layer(tmp_path, monkeypatch):
    report, layers = traced_run(tmp_path, monkeypatch, "arsenal-tc2")
    timeline = report["selection_timeline"]
    assert timeline
    assert layers["traces.passes"] == 1
    assert layers["traces.events"] == LENGTH
    # the engine's cache and the no-prefetch baseline's, over one pass
    assert layers["cache.access.calls"] == 2 * LENGTH
    assert layers["arsenal.decisions"] == len(timeline)
    # every component sees every PAE, and each fills its filter
    assert layers["prefetchers.spp.on_pae.calls"] == layers["arsenal.on_pae.calls"]
    assert layers["bloom.insert.calls"] > 0
    # tc2 queries each of its three filters on every PAE, so a query path
    # that bypasses BloomFilter.query would leave the bench's counts short
    assert layers["bloom.query.calls"] == 3 * layers["arsenal.on_pae.calls"]


def test_traced_tc1_run_counts_each_component_as_its_own(tmp_path, monkeypatch):
    # tskid runs ip_stride's table step, so a step taken through
    # IpStridePrefetcher.on_pae would count tskid's PAEs as ip_stride's too
    _, layers = traced_run(tmp_path, monkeypatch, "arsenal-tc1")
    paes = layers["arsenal.on_pae.calls"]
    assert paes > 0
    assert layers["prefetchers.tskid.on_pae.calls"] == paes
    assert layers["prefetchers.mlop.on_pae.calls"] == paes
    assert layers["prefetchers.ip_stride.on_pae.calls"] == 0


def test_traced_compare_over_trace_files(tmp_path, monkeypatch):
    # a trace file reaches the simulation through parse_trace, which the
    # pattern runs above never call
    n = 1500
    specs = [PatternSpec(kind="stride", seed=1),
             PatternSpec(kind="random_working_set", working_set_lines=1024,
                         write_fraction=0.3, seed=1)]
    traces = []
    for i, spec in enumerate(specs):
        path = tmp_path / f"{spec.kind}.trace"
        with open(path, "w", encoding="utf-8") as sink:
            write_trace(generate(spec, n), sink)
        traces.append({"label": f"t{i}", "file": str(path)})
    config = tmp_path / "cmp.json"
    config.write_text(json.dumps({"policy": "tc1", "traces": traces}))
    layers = traced_main(monkeypatch, ["compare", "--config", str(config),
                                       "--out", str(tmp_path / "cmp.json.out")])
    assert layers["traces.passes"] == 2
    assert layers["traces.events"] == 2 * n
    # one pass per file feeds the baseline, tskid, mlop and arsenal-tc1 caches
    assert layers["cache.access.calls"] == 4 * 2 * n
    # tc1 queries each of its two filters on every PAE
    assert layers["arsenal.on_pae.calls"] > 0
    assert layers["bloom.query.calls"] == 2 * layers["arsenal.on_pae.calls"]
    assert layers["prefetchers.ip_stride.on_pae.calls"] == 0
