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


def test_traced_phased_run_counts_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    out = tmp_path / "report.json"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["run", "--engine", "arsenal-tc2", "--pattern",
                         json.dumps(PHASED), "--length", str(LENGTH),
                         "--out", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    timeline = json.loads(out.read_text())["selection_timeline"]
    assert timeline
    layers = tracer.layer_metrics()
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
