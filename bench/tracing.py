"""Per-layer timing for the traced run, installed from outside ``src/``.

``Tracer.install`` replaces the public entry points of each layer with
timing wrappers: class attributes for methods, every binding of a module
function inside ``arsenal_sim`` (``cli`` holds its own reference to
``run_experiment``), and ``ExperimentConfig.events`` for the trace
iterator. ``uninstall`` puts the originals back. Spans are aggregated in
memory per name: calls, total time, and self time, which is the span minus
the spans of the traced calls it made. A count hook per entry point
records work done (candidates returned, queries that hit, and so on).
"""

import functools
import statistics
import sys
import time

LAYERS = ("traces", "cache", "prefetchers", "bloom", "arsenal", "harness",
          "metrics", "cli")

# prefetcher class name -> component name used in reports
PREFETCHERS = {
    "SppPrefetcher": "spp",
    "IpStridePrefetcher": "ip_stride",
    "NextLinePrefetcher": "next_line",
    "MlopPrefetcher": "mlop",
    "TskidPrefetcher": "tskid",
}

CALLS, TOTAL_NS, SELF_NS, COUNT = range(4)


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if "ratio" in name:
        return "ratio"
    if name.endswith("_per_call"):
        return "count/call"
    return "count"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.load_ratios: list[float] = []
        self.caches: dict[int, object] = {}
        self.sandboxes: dict[int, object] = {}
        self._stack = [0]
        self._patches: list[tuple[object, str, object]] = []

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0, 0, 0])

    def _timed(self, name: str, fn, before=None, count=None):
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if before is not None:
                before(args[0])
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                children = stack.pop()
                stack[-1] += span
                stat[CALLS] += 1
                stat[TOTAL_NS] += span
                stat[SELF_NS] += span - children
            if count is not None:
                stat[COUNT] += count(result)
            return result
        return timed

    def _patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._timed(name, original, **hooks))

    def _patch_function(self, fn, name: str) -> None:
        wrapper = self._timed(name, fn)
        bound = [mod for key, mod in list(sys.modules.items())
                 if key == "arsenal_sim" or key.startswith("arsenal_sim.")]
        for module in bound:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        from arsenal_sim import arsenal, bloom, cache, cli, harness, metrics, prefetchers

        # a pass is one events() call; each next() on the iterator it returns
        # is timed too, so both parsing up front and lazy generation count
        events = harness.ExperimentConfig.__dict__["events"]
        timed_events = self._timed("traces.events", events)
        timed_next = self._timed("traces.next", next, count=lambda _: 1)

        def traced_events(cfg):
            it = iter(timed_events(cfg))
            while True:
                try:
                    yield timed_next(it)
                except StopIteration:
                    return
        self._patches.append((harness.ExperimentConfig, "events", events))
        harness.ExperimentConfig.events = functools.wraps(events)(traced_events)

        cls = cache.SetAssociativeCache
        self._patch_method(cls, "access", "cache.access",
                           count=lambda outcome: outcome.is_pae)
        self._patch_method(cls, "fill_due", "cache.fill_due")
        self._patch_method(cls, "enqueue_prefetch", "cache.enqueue_prefetch",
                           count=bool)
        self._patch_method(cls, "demand_counts", "cache.demand_counts",
                           before=lambda c: self.caches.setdefault(id(c), c))

        for class_name, component in PREFETCHERS.items():
            self._patch_method(getattr(prefetchers, class_name), "on_pae",
                               f"prefetchers.{component}.on_pae", count=len)

        def record_load(f):
            self.load_ratios.append(f.inserted_count / f.params.projected_capacity)
        cls = bloom.BloomFilter
        self._patch_method(cls, "insert", "bloom.insert")
        self._patch_method(cls, "query", "bloom.query", count=bool)
        self._patch_method(cls, "clear", "bloom.clear", before=record_load)

        cls = arsenal.Arsenal
        self._patch_method(cls, "on_pae", "arsenal.on_pae")
        self._patch_method(cls, "score_demand", "arsenal.score_demand")
        self._patch_method(cls, "phase_reset", "arsenal.phase_reset",
                           before=lambda a: self.sandboxes.setdefault(id(a), a))

        self._patch_method(harness.Simulation, "step", "harness.step")
        self._patch_function(harness.run_experiment, "harness.run_experiment")
        self._patch_function(metrics.compute_metrics, "metrics.compute_metrics")
        self._patch_function(metrics.emit_report, "metrics.emit_report")
        self._patch_function(cli.main, "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer metric values (seconds, counts, ratios) by name."""
        stats = self.stats
        zero = [0, 0, 0, 0]

        def get(name):
            return stats.get(name, zero)

        def seconds(name, index=TOTAL_NS):
            return get(name)[index] / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "traces.events": get("traces.next")[COUNT],
            "traces.passes": get("traces.events")[CALLS],
            "traces.time_s": seconds("traces.events") + seconds("traces.next"),
        }
        access = get("cache.access")
        enqueue = get("cache.enqueue_prefetch")
        out.update({
            "cache.access.calls": access[CALLS],
            "cache.access.time_s": seconds("cache.access"),
            "cache.fill_due.time_s": seconds("cache.fill_due"),
            "cache.enqueue_prefetch.calls": enqueue[CALLS],
            "cache.enqueue_prefetch.time_s": seconds("cache.enqueue_prefetch"),
            "cache.enqueue_prefetch.accepted_ratio": ratio(enqueue[COUNT], enqueue[CALLS]),
            "cache.pae_ratio": ratio(access[COUNT], access[CALLS]),
            "cache.evictions": sum(c.evictions for c in self.caches.values()),
        })
        for component in PREFETCHERS.values():
            name = f"prefetchers.{component}.on_pae"
            stat = get(name)
            out[f"{name}.calls"] = stat[CALLS]
            out[f"{name}.time_s"] = seconds(name)
            out[f"{name}.candidates_per_call"] = ratio(stat[COUNT], stat[CALLS])
        query = get("bloom.query")
        loads = self.load_ratios or [0.0]
        out.update({
            "bloom.insert.calls": get("bloom.insert")[CALLS],
            "bloom.insert.time_s": seconds("bloom.insert"),
            "bloom.query.calls": query[CALLS],
            "bloom.query.time_s": seconds("bloom.query"),
            "bloom.query.hit_ratio": ratio(query[COUNT], query[CALLS]),
            "bloom.clear.time_s": seconds("bloom.clear"),
            "bloom.load_ratio.median": statistics.median(loads),
            "bloom.load_ratio.max": max(loads),
        })
        decisions = switches = 0
        for sandbox in self.sandboxes.values():
            previous = None
            for entry in sandbox.selection_timeline:
                decisions += 1
                switches += entry["chosen"] != previous
                previous = entry["chosen"]
        out.update({
            "arsenal.on_pae.calls": get("arsenal.on_pae")[CALLS],
            "arsenal.on_pae.self_time_s": seconds("arsenal.on_pae", SELF_NS),
            "arsenal.score_demand.time_s": seconds("arsenal.score_demand"),
            "arsenal.phase_reset.time_s": seconds("arsenal.phase_reset"),
            "arsenal.decisions": decisions,
            "arsenal.switches": switches,
            "harness.step.self_time_s": seconds("harness.step", SELF_NS),
            "harness.run_experiment.self_time_s":
                seconds("harness.run_experiment", SELF_NS),
            "metrics.compute_metrics.time_s": seconds("metrics.compute_metrics"),
            "metrics.emit_report.time_s": seconds("metrics.emit_report"),
            "cli.main.self_time_s": seconds("cli.main", SELF_NS),
        })
        for layer in LAYERS:
            out[f"{layer}.self_time_s"] = sum(
                stat[SELF_NS] for name, stat in stats.items()
                if name.split(".", 1)[0] == layer) / 1e9
        return out
