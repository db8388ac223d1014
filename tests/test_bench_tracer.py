"""The bench's per-layer tracer (``bench/tracing.py``) still sees the run.

The tracer wraps names inside ``arsenal_sim`` from outside, so a refactor
that renames or bypasses one of them leaves its counts at zero without an
error. A short phased run through ``cli.main`` checks the counts that
``run_engines``'s single pass over the trace fixes.
"""

import json
import pathlib

from arsenal_sim import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
LENGTH = 3000
PHASED = {"kind": "phased", "seed": 1, "segments": [
    {"spec": {"kind": "stride", "stride": 512, "pc": 0x400}, "length": LENGTH // 2},
    {"spec": {"kind": "sequential", "start": 1 << 24}, "length": LENGTH // 2}]}


def traced_run(tmp_path, monkeypatch, engine: str) -> tuple[dict, dict]:
    """A traced phased ``run`` of ``engine``: its report and layer metrics."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    out = tmp_path / "report.json"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["run", "--engine", engine, "--pattern",
                         json.dumps(PHASED), "--length", str(LENGTH),
                         "--out", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    return json.loads(out.read_text()), tracer.layer_metrics()


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
