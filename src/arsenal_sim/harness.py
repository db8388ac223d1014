"""Experiment orchestration: trace -> cache -> engine -> report.

An engine is anything with ``on_pae(ctx) -> list[PrefetchRequest]`` and
``describe() -> dict``: the meta-prefetcher, a single component running
standalone with fixed aggressiveness, or the no-prefetch baseline. The
simulation drives each demand access through due-fill draining, cache
classification and, on a PAE, the engine; accepted requests enter the
cache's prefetch queue tagged with their source component.
"""

import inspect
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .arsenal import (
    COMPONENT_CLASSES,
    IP_STRIDE,
    MLOP,
    NEXT_LINE,
    SPP,
    TEST_CASE_1,
    TEST_CASE_2,
    TSKID,
    Arsenal,
    ArsenalConfig,
    PrefetchRequest,
)
from .cache import AccessEvent, CacheConfig, SetAssociativeCache, amat
from .metrics import compute_metrics, overhead_for_test_case
from .prefetchers import PaeContext
from .traces import PatternSpec, generate, parse_trace_file

ENGINE_NONE = "none"
ENGINE_ARSENAL_TC1 = "arsenal-tc1"
ENGINE_ARSENAL_TC2 = "arsenal-tc2"

# standalone engines run one component with fixed aggressiveness
STANDALONE_COMPONENTS = {
    "spp": SPP,
    "ip-stride": IP_STRIDE,
    "next-line": NEXT_LINE,
    "mlop": MLOP,
    "tskid": TSKID,
}

ENGINE_NAMES = (ENGINE_ARSENAL_TC1, ENGINE_ARSENAL_TC2,
                *STANDALONE_COMPONENTS, ENGINE_NONE)

DEFAULT_LENGTH = 1_000_000  # thousands of selection phases at desk scale


class NoPrefetchEngine:
    name = ENGINE_NONE

    def on_pae(self, ctx: PaeContext) -> list[PrefetchRequest]:
        return []

    def describe(self) -> dict:
        return {"kind": "none"}


class StandaloneEngine:
    """One component attached directly to the prefetch queue."""

    def __init__(self, name: str, component):
        self.name = name
        self.component = component

    def on_pae(self, ctx: PaeContext) -> list[PrefetchRequest]:
        seq = ctx.seq
        name = self.name
        return [PrefetchRequest(line, name, seq)
                for line in self.component.on_pae(ctx)]

    def describe(self) -> dict:
        detail = {"kind": "standalone", "component": self.name}
        degree = getattr(self.component, "degree", None)
        if degree is not None:
            detail["degree"] = degree
        return detail


def _standalone_component(key: str, params: dict, max_line: int):
    kw = dict(params.get(key, {}))
    kw.setdefault("max_line", max_line)
    # fixed standalone aggressiveness; a lower next-line max_degree caps it
    if key == NEXT_LINE:
        kw.setdefault("degree", min(5, kw.get("max_degree", 5)))
    elif key == IP_STRIDE:
        kw.setdefault("degree", 8)
    return COMPONENT_CLASSES[key](**kw)


def reject_unknown(what: str, data: dict, known) -> None:
    """Raise ValueError naming every key of ``data`` not in ``known``."""
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def _check_component_params(params: dict) -> None:
    reject_unknown("component_params", params, COMPONENT_CLASSES)
    for name, kw in params.items():
        if not isinstance(kw, dict):
            raise ValueError(f"component_params.{name} must be an object")
        reject_unknown(f"component_params.{name}", kw,
                       inspect.signature(COMPONENT_CLASSES[name]).parameters)


@dataclass
class ExperimentConfig:
    """One experiment: a trace source, a cache, and exactly one engine."""
    engine: str = ENGINE_NONE
    trace_file: Optional[str] = None
    pattern: Optional[PatternSpec] = None
    length: int = DEFAULT_LENGTH
    cache: CacheConfig = field(default_factory=CacheConfig)
    arsenal: dict = field(default_factory=dict)
    component_params: dict = field(default_factory=dict)
    seed: int = 0
    label: str = ""

    def validate(self) -> "ExperimentConfig":
        if (self.trace_file is None) == (self.pattern is None):
            raise ValueError("exactly one of trace_file or pattern is required")
        if self.engine not in ENGINE_NAMES:
            raise ValueError(f"unknown engine: {self.engine!r} "
                             f"(expected one of {', '.join(ENGINE_NAMES)})")
        self.cache.validate()
        if self.pattern is not None:
            self.pattern.validate()
        reject_unknown("arsenal", self.arsenal, ArsenalConfig.__dataclass_fields__)
        _check_component_params(self.component_params)
        _check_component_params(self.arsenal.get("component_params") or {})
        return self

    def events(self) -> Iterable[AccessEvent]:
        if self.trace_file is not None:
            return parse_trace_file(self.trace_file)
        spec = self.pattern
        if spec.seed == 0 and self.seed:
            spec = PatternSpec.from_dict({**spec.to_dict(), "seed": self.seed})
        return generate(spec, self.length)

    def trace_summary(self) -> dict:
        if self.trace_file is not None:
            return {"file": self.trace_file}
        return {"pattern": self.pattern.to_dict(), "length": self.length}


def cache_config_from_dict(data: dict | None) -> CacheConfig:
    if not data:
        return CacheConfig()
    reject_unknown("cache", data, CacheConfig.__dataclass_fields__)
    return CacheConfig(**data).validate()


_EXPERIMENT_FIELDS = {"engine", "trace_file", "pattern", "length", "cache",
                      "arsenal", "component_params", "seed", "label",
                      "out", "format"}


def experiment_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed configuration mapping.

    ``out`` and ``format`` are report-sink hints consumed by the CLI.
    """
    reject_unknown("experiment", data, _EXPERIMENT_FIELDS)
    pattern = data.get("pattern")
    return ExperimentConfig(
        engine=data.get("engine", ENGINE_NONE),
        trace_file=data.get("trace_file"),
        pattern=PatternSpec.from_dict(pattern) if pattern is not None else None,
        length=int(data.get("length", DEFAULT_LENGTH)),
        cache=cache_config_from_dict(data.get("cache")),
        arsenal=dict(data.get("arsenal", {})),
        component_params=dict(data.get("component_params", {})),
        seed=int(data.get("seed", 0)),
        label=data.get("label", ""),
    ).validate()


def build_engine(cfg: ExperimentConfig, record_log: bool = False):
    max_line = cfg.cache.max_line
    if cfg.engine == ENGINE_NONE:
        return NoPrefetchEngine()
    if cfg.engine in (ENGINE_ARSENAL_TC1, ENGINE_ARSENAL_TC2):
        policy = TEST_CASE_1 if cfg.engine == ENGINE_ARSENAL_TC1 else TEST_CASE_2
        kw = dict(cfg.arsenal)
        kw["selection_policy"] = policy
        kw.setdefault("master_seed", cfg.seed if cfg.seed else ArsenalConfig.master_seed)
        kw.setdefault("component_params", cfg.component_params)
        return Arsenal(ArsenalConfig(**kw), max_line=max_line, record_log=record_log)
    key = STANDALONE_COMPONENTS[cfg.engine]
    return StandaloneEngine(key, _standalone_component(key, cfg.component_params, max_line))


class Simulation:
    """Stepwise driver so callers can snapshot counters mid-run."""

    def __init__(self, cache_config: CacheConfig, engine):
        self.cache = SetAssociativeCache(cache_config)
        self.engine = engine
        self.pae_count = 0
        self.issued_by_source: dict[str, int] = {}
        self.accepted_by_source: dict[str, int] = {}
        self._line_shift = cache_config.line_shift

    def step(self, event: AccessEvent):
        cache = self.cache
        seq = event.seq
        cache.fill_due(seq)
        outcome = cache.access(event)
        if outcome.is_pae:
            self.pae_count += 1
            ctx = PaeContext(event.pc, event.addr >> self._line_shift, seq, outcome.kind)
            requests = self.engine.on_pae(ctx)
            if requests:
                issued = self.issued_by_source
                accepted = self.accepted_by_source
                enqueue = cache.enqueue_prefetch
                for req in requests:
                    src = req.source
                    issued[src] = issued.get(src, 0) + 1
                    if enqueue(req.line, src, seq):
                        accepted[src] = accepted.get(src, 0) + 1
        return outcome

    def run(self, events: Iterable[AccessEvent]) -> None:
        step = self.step
        for event in events:
            step(event)


def run_experiment(cfg: ExperimentConfig, baseline_amat: Optional[float] = None,
                   record_log: bool = False) -> dict:
    """Run one experiment and assemble its report.

    When no baseline AMAT is supplied and the engine prefetches, the same
    trace is re-run under the no-prefetch engine to obtain it, so the
    speedup proxy always compares identical code paths.
    """
    cfg.validate()
    engine = build_engine(cfg, record_log=record_log)
    sim = Simulation(cfg.cache, engine)
    sim.run(cfg.events())
    cache = sim.cache

    demand = cache.demand_counts()
    if demand["total"] == 0:
        raise ValueError("trace produced no accesses")
    own_amat = amat(demand, cfg.cache)
    if baseline_amat is None:
        if cfg.engine == ENGINE_NONE:
            baseline_amat = own_amat
        else:
            base_cfg = ExperimentConfig(
                engine=ENGINE_NONE, trace_file=cfg.trace_file, pattern=cfg.pattern,
                length=cfg.length, cache=cfg.cache, seed=cfg.seed)
            base_sim = Simulation(cfg.cache, NoPrefetchEngine())
            base_sim.run(base_cfg.events())
            baseline_amat = amat(base_sim.cache.demand_counts(), cfg.cache)

    prefetch = cache.prefetch_counts()
    useful = dict(cache.useful_by_source)
    metrics = compute_metrics(demand, prefetch, cfg.cache, baseline_amat)

    components = sorted(
        set(sim.issued_by_source) | set(useful) | set(cache.filled_by_source)
        | set(getattr(engine, "total_candidates", {})))
    per_component = {}
    for name in components:
        per_component[name] = {
            "shadow_candidates": getattr(engine, "total_candidates", {}).get(name, 0),
            "issued": sim.issued_by_source.get(name, 0),
            "accepted": sim.accepted_by_source.get(name, 0),
            "filled": cache.filled_by_source.get(name, 0),
            "useful": useful.get(name, 0),
        }

    report = {
        "schema": "arsenal-sim-report-v1",
        "experiment": {
            "label": cfg.label or cfg.engine,
            "engine": cfg.engine,
            "seed": cfg.seed,
            "trace": cfg.trace_summary(),
            "cache": {
                "sets": cfg.cache.sets,
                "ways": cfg.cache.ways,
                "line_size": cfg.cache.line_size,
                "hit_latency": cfg.cache.hit_latency,
                "miss_latency": cfg.cache.miss_latency,
                "late_latency": cfg.cache.late_latency,
                "prefetch_fill_delay": cfg.cache.prefetch_fill_delay,
                "prefetch_queue_capacity": cfg.cache.prefetch_queue_capacity,
            },
            "engine_detail": engine.describe(),
        },
        "demand": demand,
        "prefetch": prefetch,
        "per_component": per_component,
        "metrics": metrics,
        "selection_timeline": list(getattr(engine, "selection_timeline", [])),
    }
    if cfg.engine in (ENGINE_ARSENAL_TC1, ENGINE_ARSENAL_TC2):
        policy = TEST_CASE_1 if cfg.engine == ENGINE_ARSENAL_TC1 else TEST_CASE_2
        report["overhead"] = overhead_for_test_case(
            policy, engine.config.bf_est_cap, engine.config.bf_fpp)
    if record_log and hasattr(engine, "pae_log"):
        report["pae_log_length"] = len(engine.pae_log)
    return report


def compare_engines(traces: list[dict], policy: str = TEST_CASE_2,
                    cache: Optional[CacheConfig] = None,
                    arsenal: Optional[dict] = None,
                    component_params: Optional[dict] = None,
                    seed: int = 0) -> dict:
    """Run the meta-prefetcher, each standalone component, and the baseline
    over a trace list; report per-trace speedups plus a best-per-trace
    oracle picked among the standalone components.
    """
    if policy == TEST_CASE_1:
        arsenal_engine = ENGINE_ARSENAL_TC1
        standalone = ["tskid", "mlop"]
    elif policy == TEST_CASE_2:
        arsenal_engine = ENGINE_ARSENAL_TC2
        standalone = ["spp", "ip-stride", "next-line"]
    else:
        raise ValueError(f"unknown selection policy: {policy!r}")
    cache = cache or CacheConfig()
    engines = [ENGINE_NONE, *standalone, arsenal_engine]

    per_trace = []
    sums = {name: 0.0 for name in engines}
    sums["oracle"] = 0.0
    for index, trace in enumerate(traces):
        label = trace.get("label", f"trace-{index}")
        pattern = (PatternSpec.from_dict(trace["pattern"])
                   if "pattern" in trace else None)
        results = {}
        baseline = None
        for engine in engines:
            cfg = ExperimentConfig(
                engine=engine,
                trace_file=trace.get("file"),
                pattern=pattern,
                length=int(trace.get("length", DEFAULT_LENGTH)),
                cache=cache,
                arsenal=dict(arsenal or {}),
                component_params=dict(component_params or {}),
                seed=seed,
                label=f"{label}/{engine}",
            )
            report = run_experiment(cfg, baseline_amat=baseline)
            if engine == ENGINE_NONE:
                baseline = report["metrics"]["amat"]
            results[engine] = {
                "amat": report["metrics"]["amat"],
                "speedup_proxy": report["metrics"]["speedup_proxy"],
                "coverage": report["metrics"]["coverage"],
                "accuracy": report["metrics"]["accuracy"],
            }
        oracle_engine = max(standalone,
                            key=lambda e: results[e]["speedup_proxy"])
        oracle = {"engine": oracle_engine,
                  "speedup_proxy": results[oracle_engine]["speedup_proxy"]}
        for name in engines:
            sums[name] += results[name]["speedup_proxy"]
        sums["oracle"] += oracle["speedup_proxy"]
        per_trace.append({"label": label, "results": results, "oracle": oracle})

    n = max(1, len(traces))
    summary = {name: sums[name] / n for name in [*engines, "oracle"]}
    return {
        "schema": "arsenal-sim-compare-v1",
        "policy": policy,
        "engines": engines,
        "seed": seed,
        "per_trace": per_trace,
        "average_speedup_proxy": summary,
    }
