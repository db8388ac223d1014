"""Experiment orchestration: trace -> cache -> engine -> report.

An engine is anything with ``on_pae(pc, line, seq) -> (source, lines)`` and
``describe() -> dict``: the meta-prefetcher, a single component running
standalone with fixed aggressiveness, or the no-prefetch baseline. All the
lines of one PAE come from one source, the component the engine deploys
(None when it deploys none, and then the lines are empty). The simulation
drives each demand access, as its line and tick, through the cache, which
installs the prefetches due by then and classifies the access, and, on a
PAE, with its PC, through the engine;
each line goes to the cache's prefetch queue tagged with the source, and
the cache counts what each source issued, got accepted, filled and made
useful.

``run_engines`` is the one way a trace becomes scored simulations: it runs
the no-prefetch baseline and the named engines over one pass of the trace
and scores each against the baseline's AMAT. ``run`` (``run_experiment``)
asks it for one engine and ``compare`` (``compare_engines``) for a roster.
"""

import inspect
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Iterable, Optional

from .arsenal import (
    COMPONENTS,
    POLICIES,
    TEST_CASE_2,
    Arsenal,
    ArsenalConfig,
    build_component,
    roster,
)
from .cache import SOURCE_FIELDS, CacheConfig, SetAssociativeCache, amat
from .metrics import COMPARE_METRICS, FORMATS, compute_metrics, overhead_for_test_case
from .traces import (LENGTH_RANGE, SEED_RANGE, AccessEvent, PatternSpec,
                     check_address_range, check_fields, generate, reject_unknown,
                     stream_trace_file)

ENGINE_NONE = "none"
ARSENAL_PREFIX = "arsenal-"

# a standalone engine is named after its component: ip_stride -> ip-stride
ENGINE_NAMES = (*(ARSENAL_PREFIX + policy for policy in POLICIES),
                *(name.replace("_", "-") for name in COMPONENTS), ENGINE_NONE)

DEFAULT_LENGTH = 1_000_000  # thousands of selection phases at desk scale

# Events each simulation runs before the next takes its turn in a shared
# pass; stepping them all per event keeps no engine's tables warm.
SLICE_EVENTS = 256


class NoPrefetchEngine:
    def on_pae(self, pc: int, line: int, seq: int) -> tuple[None, list[int]]:
        return None, []

    def describe(self) -> dict:
        return {"kind": "none"}


class StandaloneEngine:
    """One component attached directly to the prefetch queue."""

    def __init__(self, name: str, component):
        self.name = name
        self.component = component

    def on_pae(self, pc: int, line: int, seq: int) -> tuple[str, list[int]]:
        return self.name, self.component.on_pae(pc, line, seq)

    def describe(self) -> dict:
        detail = {"kind": "standalone", "component": self.name}
        if "degree" in self.component.RANGES:
            detail["degree"] = self.component.degree
        return detail


def _check_component_params(params) -> None:
    reject_unknown("component_params", params, COMPONENTS)
    for name, kw in params.items():
        cls = COMPONENTS[name].cls
        # max_line is the cache's, so a config may not set it
        defaults = {key: p.default for key, p in
                    inspect.signature(cls).parameters.items() if key != "max_line"}
        check_fields(f"component_params.{name}", kw, defaults, ranges=cls.RANGES)
        cls(**kw)  # its constructor states the rules between fields


@dataclass
class ExperimentConfig:
    """One experiment: a trace source, a cache, and exactly one engine. Each
    part is checked once, when built: the cache and pattern before this, and
    ``arsenal`` here, into ``arsenal_config`` (seeded from ``seed`` unless
    ``arsenal`` sets ``master_seed``), then a trace file, by opening it. A
    pattern runs ``length`` events, DEFAULT_LENGTH if None; a trace file is
    read whole and takes none."""
    engine: str = ENGINE_NONE
    trace_file: Optional[str] = None
    pattern: Optional[PatternSpec] = None
    length: Optional[int] = None
    cache: CacheConfig = field(default_factory=CacheConfig)
    arsenal: dict = field(default_factory=dict)
    component_params: dict = field(default_factory=dict)
    seed: int = 0
    label: str = ""

    def __post_init__(self):
        if (self.trace_file is None) == (self.pattern is None):
            raise ValueError("exactly one of trace_file or pattern is required")
        if self.trace_file is not None and self.length is not None:
            raise ValueError("length has no effect beside a trace file, "
                             "which is read whole")
        if self.pattern is not None and self.length is None:
            self.length = DEFAULT_LENGTH
        if self.engine not in ENGINE_NAMES:
            raise ValueError(f"unknown engine: {self.engine!r} "
                             f"(expected one of {', '.join(ENGINE_NAMES)})")
        if self.pattern is not None:
            check_address_range(self.pattern, self.length)
        reject_unknown("arsenal", self.arsenal, ArsenalConfig.__dataclass_fields__)
        self.arsenal_config = ArsenalConfig(
            **{"master_seed": self.seed or ArsenalConfig.master_seed, **self.arsenal})
        _check_component_params(self.component_params)
        if self.trace_file is not None:
            open(self.trace_file, encoding="utf-8").close()

    def events(self) -> Iterable[AccessEvent]:
        """One pass over the trace; a trace file is read as it is consumed."""
        if self.trace_file is not None:
            return stream_trace_file(self.trace_file)
        return generate(self.pattern, self.length, self.seed)

    def trace_summary(self) -> dict:
        if self.trace_file is not None:
            return {"file": self.trace_file}
        return {"pattern": self.pattern.to_dict(), "length": self.length}


def cache_config_from_dict(data) -> CacheConfig:
    reject_unknown("cache", data, CacheConfig.__dataclass_fields__)
    return CacheConfig(**data)


# A config object's fields, each typed by its default; None marks a value
# that its own parser checks.
_EXPERIMENT_DEFAULTS = {"engine": ENGINE_NONE, "trace_file": "", "pattern": None,
                        "length": DEFAULT_LENGTH, "cache": None, "arsenal": None,
                        "component_params": None, "seed": 0, "label": "",
                        "out": "", "format": FORMATS[0]}
_TRACE_DEFAULTS = {"label": "", "file": "", "pattern": None, "length": DEFAULT_LENGTH}


def experiment_from_dict(data) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed configuration mapping.

    ``out`` and ``format`` are report-sink hints consumed by the CLI.
    """
    check_fields("experiment", data, _EXPERIMENT_DEFAULTS,
                 ranges={**LENGTH_RANGE, **SEED_RANGE})
    fields = {key: value for key, value in data.items()
              if key not in ("out", "format")}
    if fields.get("pattern") is not None:
        fields["pattern"] = PatternSpec.from_dict(fields["pattern"])
    fields["cache"] = cache_config_from_dict(fields.get("cache", {}))
    return ExperimentConfig(**fields)


def build_engine(cfg: ExperimentConfig, engine: str):
    """``engine`` (none, arsenal-<policy> or a component) as ``cfg`` sets it."""
    if engine == ENGINE_NONE:
        return NoPrefetchEngine()
    max_line = cfg.cache.max_line
    if engine.startswith(ARSENAL_PREFIX):
        return Arsenal(engine[len(ARSENAL_PREFIX):], cfg.arsenal_config,
                       cfg.component_params, max_line)
    name = engine.replace("-", "_")
    return StandaloneEngine(name, build_component(
        name, cfg.component_params, max_line, standalone=True))


class Simulation:
    """One cache and one engine. ``run`` drives them over a slice of
    events; ``step`` runs one event, so callers can snapshot counters
    mid-run."""

    def __init__(self, cache_config: CacheConfig, engine):
        self.cache = SetAssociativeCache(cache_config)
        self.engine = engine
        self._line_shift = cache_config.line_shift

    def step(self, event: AccessEvent) -> None:
        self.run((event,))

    def run(self, events: Iterable[AccessEvent]) -> None:
        cache = self.cache
        access = cache.access
        on_pae = self.engine.on_pae
        enqueue = cache.enqueue_prefetch
        shift = self._line_shift
        for pc, addr, _, seq in events:
            line = addr >> shift
            if access(line, seq).is_pae:
                source, lines = on_pae(pc, line, seq)
                for cand in lines:
                    enqueue(cand, source, seq)


def run_engines(cfg: ExperimentConfig, engines: Iterable[str]) -> dict:
    """Simulate ``none`` and each of ``engines`` over one pass of the trace
    of ``cfg`` and score each against the ``none`` simulation's AMAT.

    The simulations take turns, one slice of SLICE_EVENTS at a time.
    Returns engine name -> (simulation, metrics), ``none`` first.
    """
    names = list(dict.fromkeys([ENGINE_NONE, *engines]))
    sims = [Simulation(cfg.cache, build_engine(cfg, name)) for name in names]
    it = iter(cfg.events())
    chunk = list(islice(it, SLICE_EVENTS))
    if not chunk:
        raise ValueError("trace produced no accesses")
    while chunk:
        for sim in sims:
            sim.run(chunk)
        chunk = list(islice(it, SLICE_EVENTS))
    baseline = amat(sims[0].cache.demand_counts(), cfg.cache)
    return {name: (sim, compute_metrics(sim.cache.demand_counts(),
                                        sim.cache.prefetch_counts(), cfg.cache,
                                        baseline))
            for name, sim in zip(names, sims)}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment and assemble its report; the speedup proxy's
    baseline is a no-prefetch simulation in the same pass."""
    sim, metrics = run_engines(cfg, [cfg.engine])[cfg.engine]
    engine = sim.engine
    cache = sim.cache

    shadow = getattr(engine, "total_candidates", {})
    per_component = {name: {
        "shadow_candidates": shadow.get(name, 0),
        **dict(zip(SOURCE_FIELDS, cache.by_source.get(name, (0, 0, 0, 0)))),
    } for name in sorted(set(cache.by_source) | set(shadow))}

    report = {
        "schema": "arsenal-sim-report-v1",
        "experiment": {
            "label": cfg.label or cfg.engine,
            "engine": cfg.engine,
            "seed": cfg.seed,
            "trace": cfg.trace_summary(),
            "cache": asdict(cfg.cache),
            "engine_detail": engine.describe(),
        },
        "demand": cache.demand_counts(),
        "prefetch": cache.prefetch_counts(),
        "per_component": per_component,
        "metrics": metrics,
        "selection_timeline": list(getattr(engine, "selection_timeline", [])),
    }
    if isinstance(engine, Arsenal):
        report["overhead"] = overhead_for_test_case(
            engine.policy, engine.config.bf_est_cap, engine.config.bf_fpp)
    return report


def compare_engines(traces: list[dict], policy: str = TEST_CASE_2,
                    cache: Optional[CacheConfig] = None, seed: int = 0,
                    **shared) -> dict:
    """Run the meta-prefetcher, each standalone component of its roster, and
    the baseline over each trace in one pass; report per-trace speedups plus
    a best-per-trace oracle picked among the standalone components.

    ``shared`` holds the ExperimentConfig fields every run takes, such as
    ``arsenal`` and ``component_params``; each is checked as ``run`` checks
    it, and an omitted one takes its default.
    """
    standalone = [name.replace("_", "-") for name in roster(policy)]
    if not traces:
        raise ValueError("compare requires at least one trace")
    engines = [ENGINE_NONE, *standalone, ARSENAL_PREFIX + policy]
    cache = cache or CacheConfig()

    configs = []
    for index, trace in enumerate(traces):
        check_fields("compare trace", trace, _TRACE_DEFAULTS, ranges=LENGTH_RANGE)
        pattern = trace.get("pattern")
        configs.append(ExperimentConfig(
            trace_file=trace.get("file"),
            pattern=None if pattern is None else PatternSpec.from_dict(pattern),
            length=trace.get("length"),
            cache=cache,
            seed=seed,
            label=trace.get("label", f"trace-{index}"),
            **shared,
        ))

    per_trace = []
    for cfg in configs:
        results = {engine: {key: metrics[key] for key in COMPARE_METRICS}
                   for engine, (_, metrics) in run_engines(cfg, engines).items()}
        oracle_engine = max(standalone, key=lambda e: results[e]["speedup_proxy"])
        oracle = {"engine": oracle_engine,
                  "speedup_proxy": results[oracle_engine]["speedup_proxy"]}
        per_trace.append({"label": cfg.label, "results": results, "oracle": oracle})

    n = len(traces)
    summary = {name: sum(t["results"][name]["speedup_proxy"] for t in per_trace) / n
               for name in engines}
    summary["oracle"] = sum(t["oracle"]["speedup_proxy"] for t in per_trace) / n
    return {
        "schema": "arsenal-sim-compare-v1",
        "policy": policy,
        "engines": engines,
        "seed": seed,
        "per_trace": per_trace,
        "average_speedup_proxy": summary,
    }
