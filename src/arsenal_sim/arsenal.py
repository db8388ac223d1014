"""Meta-prefetcher: shadow-evaluate components, score them, deploy the best.

Every PAE runs through three stages. First the demanded line is checked
against each component's Bloom filter and the component's score moves up on
a match (it predicted this demand) or down on a miss. Then every component
generates candidates for the event; the candidates land in that component's
filter and bump its counters. Only the currently-selected component's
candidates are forwarded to the real prefetch queue. Every component sees
every PAE, so one evaluation counter serves them all: once it reaches the
phase length, a selection rule picks the next live component and the sandbox
state (filters, counters, scores) resets; the selection persists after.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .bloom import FILTER_KINDS, component_seed, derive_parameters, make_filter
from .prefetchers import (
    DEFAULT_MAX_LINE,
    IpStridePrefetcher,
    MlopPrefetcher,
    NextLinePrefetcher,
    SppPrefetcher,
    TskidPrefetcher,
)
from .traces import check_fields

TSKID = "tskid"
MLOP = "mlop"
SPP = "spp"
IP_STRIDE = "ip_stride"
NEXT_LINE = "next_line"

TEST_CASE_1 = "tc1"
TEST_CASE_2 = "tc2"


class Component(NamedTuple):
    """What the simulator knows about one component prefetcher."""
    cls: type
    cost_kb: float                           # storage budget (KiB) quoted from its source
    standalone_degree: Optional[int] = None  # fixed degree when run standalone


# The one registry: a new component is one entry here plus a roster edit.
# Entry order is the order of the standalone engines.
COMPONENTS = {
    SPP: Component(SppPrefetcher, 5.73),
    IP_STRIDE: Component(IpStridePrefetcher, 5.47),
    NEXT_LINE: Component(NextLinePrefetcher, 0.0, standalone_degree=5),
    MLOP: Component(MlopPrefetcher, 12.0),
    TSKID: Component(TskidPrefetcher, 52.5),
}

SCORE_MAX = 2047        # 11-bit saturating score
PREFETCH_COUNTER_MAX = 4095  # 12-bit saturating attempt counter


@dataclass
class ArsenalConfig:
    """Sandbox thresholds, checked when built; defaults: the published point."""
    score_inc: int = 4
    score_dec: int = 1
    min_score: int = 0
    next_line_min_score: int = 1500
    eval_cnt: int = 512
    tskid_selection_attempt: int = 10000
    bf_fpp: float = 0.01
    bf_est_cap: int = 2000
    # one of bloom.FILTER_KINDS; every Bloom filter counts its false-positive
    # probes, and paired is bloom's alias, kept for acceptance criterion 5
    filter_kind: str = "bloom"
    master_seed: int = 0xA5EE

    RANGES = {"score_inc": (0, None), "score_dec": (0, None), "eval_cnt": (1, None),
              "bf_fpp": (0, 1, True), "bf_est_cap": (1, None)}

    def __post_init__(self):
        check_fields("arsenal", vars(self), ArsenalConfig, ranges=self.RANGES)
        if self.filter_kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind: {self.filter_kind!r}")
        # the overhead report sizes a Bloom filter whatever the filter kind
        derive_parameters(self.bf_est_cap, self.bf_fpp)


def select_test_case_1(scores: dict, counters: dict, previous: Optional[str],
                       cfg: ArsenalConfig = ArsenalConfig()) -> Optional[str]:
    """Two-component rule (tskid vs mlop), clauses applied in order."""
    if scores[TSKID] > scores[MLOP] or counters[TSKID] > cfg.tskid_selection_attempt:
        return TSKID
    if scores[MLOP] > scores[TSKID] or counters[MLOP] == counters[TSKID]:
        return MLOP
    return previous


def select_test_case_2(scores: dict, counters: Optional[dict] = None,
                       previous: Optional[str] = None,
                       cfg: ArsenalConfig = ArsenalConfig()) -> Optional[str]:
    """Three-component rule (spp vs ip_stride vs next_line).

    next-line wins when it is strictly above the better of spp and
    ip_stride and above its own, much higher threshold; otherwise that
    better one (a tie goes to spp) wins if it clears min_score. It reads
    no counters and no previous choice.
    """
    spp, ip, nl = scores[SPP], scores[IP_STRIDE], scores[NEXT_LINE]
    best = max(spp, ip)
    if nl > best and nl > cfg.next_line_min_score:
        return NEXT_LINE
    if best > cfg.min_score:
        return SPP if spp >= ip else IP_STRIDE
    return None


# policy -> (roster, rule); roster order fixes each component's filter seed
# index, and each phase ends in rule(scores, counters, previous, cfg)
POLICIES = {
    TEST_CASE_1: ((TSKID, MLOP), select_test_case_1),
    TEST_CASE_2: ((SPP, IP_STRIDE, NEXT_LINE), select_test_case_2),
}


def roster(policy: str) -> tuple:
    """The components a selection policy (a POLICIES key) runs, in order."""
    if policy not in POLICIES:
        raise ValueError(f"unknown selection policy: {policy!r}")
    return POLICIES[policy][0]


def build_component(name: str, params: dict, max_line: int = DEFAULT_MAX_LINE,
                    standalone: bool = False):
    """Instantiate one component; standalone, at its fixed degree unless
    ``params`` sets one, capped by a lower ``max_degree``."""
    entry = COMPONENTS[name]
    kw = dict(params.get(name, {}), max_line=max_line)
    degree = entry.standalone_degree
    if standalone and degree is not None:
        kw.setdefault("degree", min(degree, kw.get("max_degree", degree)))
    return entry.cls(**kw)


class Arsenal:
    """The framework: components, per-component filters, scoreboard, phases.
    ``policy`` (a POLICIES key) picks the roster and the selection rule,
    which reads its thresholds from ``config``."""

    def __init__(self, policy: str, config: ArsenalConfig | None = None,
                 component_params: dict | None = None,
                 max_line: int = DEFAULT_MAX_LINE):
        self.policy = policy
        self.config = config or ArsenalConfig()
        self.components = components = {
            name: build_component(name, component_params or {}, max_line)
            for name in roster(policy)}
        self._rule = POLICIES[policy][1]
        self.names = list(components.keys())
        self.filters = {
            name: make_filter(self.config.filter_kind, self.config.bf_est_cap,
                              self.config.bf_fpp,
                              component_seed(self.config.master_seed, i))
            for i, name in enumerate(self.names)
        }
        # per component: [prefetch_counter, score]
        self.scoreboard = {name: [0, 0] for name in self.names}
        self.eval_counter = 0   # PAEs of this phase, each seen by every component
        # (name, component, filter, scoreboard row), in roster order; the
        # rows are the scoreboard's own lists, so both views stay in step
        self._rows = [(name, components[name], self.filters[name],
                       self.scoreboard[name]) for name in self.names]
        self.chosen: Optional[str] = None   # the deployed component
        self.selection_timeline: list[dict] = []
        self.total_candidates = {name: 0 for name in self.names}

    def score_demand(self, line: int) -> None:
        """Score the demanded line against every filter."""
        inc = self.config.score_inc
        dec = self.config.score_dec
        for _, _, f, sb in self._rows:
            if f.query(line):
                score = sb[1] + inc
                sb[1] = score if score < SCORE_MAX else SCORE_MAX
            else:
                score = sb[1] - dec
                sb[1] = score if score > 0 else 0

    def on_pae(self, pc: int, line: int, seq: int) -> tuple[Optional[str], list[int]]:
        """(the deployed component, its candidates for this PAE)."""
        self.score_demand(line)

        selected = self.chosen
        totals = self.total_candidates
        live: list[int] = []
        for name, component, f, sb in self._rows:
            candidates = component.on_pae(pc, line, seq)
            if candidates:
                n = len(candidates)
                totals[name] += n
                n += sb[0]
                sb[0] = n if n < PREFETCH_COUNTER_MAX else PREFETCH_COUNTER_MAX
                insert = f.insert
                for c in candidates:
                    insert(c)
                if name == selected:
                    live = candidates

        self.eval_counter += 1
        if self.eval_counter >= self.config.eval_cnt:
            self._decide(seq)
        return selected, live

    def _decide(self, decided_at: int) -> None:
        scores = self.scores()
        counters = {name: sb[0] for name, _, _, sb in self._rows}
        chosen = self._rule(scores, counters, self.chosen, self.config)
        self.selection_timeline.append({
            "phase_index": len(self.selection_timeline) + 1,
            "decided_at": decided_at,
            "chosen": chosen,
            "scores": scores,
            "prefetch_counters": counters,
            "eval_counters": dict.fromkeys(self.names, self.eval_counter),
        })
        self.chosen = chosen
        self.phase_reset()

    def phase_reset(self) -> None:
        """Zero the sandbox: counters, scores, filters. Selection persists."""
        nl = self.components.get(NEXT_LINE)
        if nl is not None:
            nl.set_degree(self.scoreboard[NEXT_LINE][1])
        self.eval_counter = 0
        for _, _, f, sb in self._rows:
            sb[:] = (0, 0)
            f.clear()

    def scores(self) -> dict[str, int]:
        return {name: sb[1] for name, _, _, sb in self._rows}

    def describe(self) -> dict:
        cfg = self.config
        return {
            "kind": "arsenal",
            "selection_policy": self.policy,
            "components": list(self.names),
            "filter_kind": cfg.filter_kind,
            **{key: value for key, value in vars(cfg).items() if key != "filter_kind"},
        }
