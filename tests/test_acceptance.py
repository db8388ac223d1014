"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the PASS lines.
The heavyweight phased-workload experiments are computed once and shared.
"""

import random
import time
from collections import Counter

from arsenal_sim.arsenal import (
    IP_STRIDE,
    MLOP,
    NEXT_LINE,
    SPP,
    TSKID,
    Arsenal,
    ArsenalConfig,
    SCORE_MAX,
)
from arsenal_sim.bloom import BloomFilter, derive_parameters
from arsenal_sim.cache import CacheConfig
from arsenal_sim.harness import (
    ExperimentConfig,
    Simulation,
    build_engine,
    compare_engines,
    run_engines,
    run_experiment,
)
from arsenal_sim.metrics import overhead_for_test_case, to_json
from arsenal_sim.prefetchers import SppPrefetcher
from arsenal_sim.traces import PatternSpec, phase_boundaries
from pae_recorder import record_paes


def _passline(n, msg):
    print(f"[acceptance] criterion {n:2d}: PASS ({msg})")


# ---------------------------------------------------------------- shared load

STRIDE_STREAMS = [
    {"pc": 0x400 + 16 * i, "start": 0x100000 * i + 64 * i, "delta": 512}
    for i in range(8)
]
PHASED_SPEC = PatternSpec(kind="phased", segments=[
    {"spec": {"kind": "pc_delta", "streams": STRIDE_STREAMS}, "length": 50_000},
    {"spec": {"kind": "sequential", "start": 0x40000000}, "length": 50_000},
], seed=1001)
PHASED_LENGTH = 500_000

PHASED_ENGINES = ("arsenal-tc2", "spp", "ip-stride", "next-line")

_phased_cache: dict = {}


def phased_run(engine: str) -> tuple:
    """An engine's (selection timeline, metrics) over the shared phased
    workload. Every engine of PHASED_ENGINES runs in the one pass that fills
    the memo. The memo keeps no simulation: held for the rest of the
    session, the five slowed the criteria that run after them."""
    if not _phased_cache:
        cfg = ExperimentConfig(pattern=PHASED_SPEC, length=PHASED_LENGTH,
                               seed=1001)
        _phased_cache.update(
            (name, (getattr(sim.engine, "selection_timeline", None), metrics))
            for name, (sim, metrics) in run_engines(cfg, PHASED_ENGINES).items())
    return _phased_cache[engine]


# ------------------------------------------------------------------ criteria

def test_criterion_1_out_of_scope_statement():
    # Absolute speedup figures from full-machine studies need a
    # cycle-accurate core model and licensed benchmark traces; they are
    # explicitly not reproduced here. Criteria 2-10 are the substitute
    # property- and oracle-based acceptance gates.
    _passline(1, "absolute benchmark speedup figures declared out of scope; "
                 "property/oracle criteria stand in")


def test_criterion_2_bloom_sizing():
    t0 = time.monotonic()
    m, k = derive_parameters(2000, 0.01)
    table_bytes = (m + 7) // 8
    assert k == 7
    assert abs(table_bytes - 2399) / 2399 < 0.01
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passline(2, f"m={m} bits -> {table_bytes} B (within 1% of 2399), k={k}, "
                 f"{elapsed:.3f}s")


def test_criterion_3_bloom_behavior():
    t0 = time.monotonic()
    rng = random.Random(0xB1003)

    # zero false negatives over 1e5 randomized insert/query trials
    bf = BloomFilter(2000, 0.01, seed=11)
    inserted = []
    false_negatives = 0
    for _ in range(100_000):
        if rng.random() < 0.5 or not inserted:
            x = rng.randrange(1 << 58)
            bf.insert(x)
            inserted.append(x)
        else:
            x = inserted[rng.randrange(len(inserted))]
            if not bf.query(x):
                false_negatives += 1
    assert false_negatives == 0
    assert all(bf.query(x) for x in inserted)

    # empirical fpp at projected capacity over 1e5 negative probes
    bf2 = BloomFilter(2000, 0.01, seed=12)
    members = set()
    while len(members) < 2000:
        members.add(rng.randrange(1 << 40))
    for x in members:
        bf2.insert(x)
    probes = 100_000
    positives = sum(1 for i in range(probes)
                    if bf2.query((1 << 41) + i))
    fpp = positives / probes
    assert fpp <= 0.02
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _passline(3, f"0 false negatives in 1e5 trials; fpp={fpp:.4f} <= 0.02 "
                 f"over 1e5 probes, {elapsed:.1f}s")


def test_criterion_4_selection_rule_tables():
    from arsenal_sim.arsenal import select_test_case_1 as tc1
    from arsenal_sim.arsenal import select_test_case_2 as tc2
    t0 = time.monotonic()

    # test case 1 worked examples
    assert tc1({TSKID: 50, MLOP: 40}, {TSKID: 0, MLOP: 0}, None) == TSKID
    assert tc1({TSKID: 10, MLOP: 20}, {TSKID: 12000, MLOP: 500}, None) == TSKID
    assert tc1({TSKID: 9, MLOP: 9}, {TSKID: 800, MLOP: 800}, None) == MLOP
    assert tc1({TSKID: 9, MLOP: 9}, {TSKID: 10000, MLOP: 9999}, MLOP) == MLOP
    assert tc1({TSKID: 0, MLOP: 4}, {TSKID: 0, MLOP: 0}, None) == MLOP

    # test case 2 worked examples, including both threshold boundaries
    assert tc2({SPP: 10, IP_STRIDE: 5, NEXT_LINE: 100}) == SPP
    assert tc2({SPP: 0, IP_STRIDE: 0, NEXT_LINE: 0}) is None          # MIN-SCORE strict
    assert tc2({SPP: 3, IP_STRIDE: 7, NEXT_LINE: 2000}) == NEXT_LINE
    assert tc2({SPP: 1, IP_STRIDE: 0, NEXT_LINE: 1500}) == SPP        # NL at threshold
    assert tc2({SPP: 0, IP_STRIDE: 0, NEXT_LINE: 1501}) == NEXT_LINE  # just above
    assert tc2({SPP: 0, IP_STRIDE: 0, NEXT_LINE: 1}) is None
    assert tc2({SPP: 6, IP_STRIDE: 6, NEXT_LINE: 2}) == SPP           # tie -> spp
    assert tc2({SPP: 2, IP_STRIDE: 6, NEXT_LINE: 6}) == IP_STRIDE

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passline(4, f"13 selection-table cases exact, {elapsed:.3f}s")


def _replay_exact(log, names, eval_cnt, inc, dec):
    """Brute-force score trajectory from logged candidates and demands."""
    members = {n: set() for n in names}
    scores = {n: 0 for n in names}
    paes = 0
    per_pae = []
    snapshots = []
    for rec in log:
        for n in names:
            if rec["line"] in members[n]:
                scores[n] = min(SCORE_MAX, scores[n] + inc)
            else:
                scores[n] = max(0, scores[n] - dec)
        for n in names:
            members[n].update(rec["candidates"][n])
        paes += 1
        if paes == eval_cnt:
            snapshots.append(dict(scores))
            scores = {n: 0 for n in names}
            members = {n: set() for n in names}
            paes = 0
        per_pae.append(dict(scores))
    return per_pae, snapshots


def test_criterion_5_oracle_scoring_equivalence():
    t0 = time.monotonic()
    eval_cnt = 512
    for trial in range(20):
        policy = "tc2" if trial % 2 == 0 else "tc1"
        spec = PatternSpec(kind="random_working_set", working_set_lines=2048,
                           seed=9000 + trial)
        events = list(
            ExperimentConfig(engine="none", pattern=spec, length=5000).events())

        # exact-set filters: scores must equal the brute-force recomputation
        exact = Arsenal(policy, ArsenalConfig(filter_kind="exact"))
        exact_log = record_paes(exact)
        sim = Simulation(CacheConfig(), exact)
        sim.run(events)
        per_pae, snapshots = _replay_exact(exact_log, exact.names,
                                           eval_cnt, 4, 1)
        assert [rec["scores"] for rec in exact_log] == per_pae
        assert [d["scores"] for d in exact.selection_timeline] == snapshots

        # bloom filters: divergence only upward and only at fp probes
        paired = Arsenal(policy, ArsenalConfig(filter_kind="paired"))
        paired_log = record_paes(paired)
        sim2 = Simulation(CacheConfig(), paired)
        sim2.run(events)
        members = {n: set() for n in paired.names}
        exact_scores = {n: 0 for n in paired.names}
        fp_in_phase = {n: 0 for n in paired.names}
        paes = 0
        for rec in paired_log:
            for n in paired.names:
                answer, fp = rec["queries"][n]
                truly_member = rec["line"] in members[n]
                if fp:
                    assert answer and not truly_member
                    fp_in_phase[n] += 1
                else:
                    assert answer == truly_member
                if answer:
                    exact_sc = min(SCORE_MAX, exact_scores[n] + 4) if truly_member \
                        else max(0, exact_scores[n] - 1)
                else:
                    exact_sc = max(0, exact_scores[n] - 1)
                exact_scores[n] = exact_sc
            for n in paired.names:
                members[n].update(rec["candidates"][n])
            paes += 1
            if paes == eval_cnt:
                paes = 0
                members = {n: set() for n in paired.names}
                exact_scores = {n: 0 for n in paired.names}
                fp_in_phase = {n: 0 for n in paired.names}
                continue
            for n in paired.names:
                bloom_sc = rec["scores"][n]
                assert bloom_sc >= exact_scores[n]
                assert bloom_sc - exact_scores[n] <= 5 * fp_in_phase[n]
                if fp_in_phase[n] == 0:
                    assert bloom_sc == exact_scores[n]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _passline(5, f"20 traces x 5000 events: exact-set scores identical, bloom "
                 f"excess bounded by fp probes, {elapsed:.1f}s")


def test_criterion_6_adaptivity():
    t0 = time.monotonic()
    timeline, _ = phased_run("arsenal-tc2")
    bounds = phase_boundaries(PHASED_SPEC, PHASED_LENGTH)
    expected = {"pc_delta": IP_STRIDE, "sequential": NEXT_LINE}
    warmup = 1024  # two selection phases

    totals = Counter()
    matches = Counter()
    for seg in bounds:
        want = expected[seg["kind"]]
        post = [d for d in timeline
                if seg["start"] + warmup <= d["decided_at"] < seg["end"]]
        assert post, f"no post-warmup decisions inside segment {seg}"
        # switched within two selection phases of the boundary
        assert post[0]["chosen"] == want, (
            f"segment {seg}: first post-warmup choice was {post[0]['chosen']}")
        totals[seg["kind"]] += len(post)
        matches[seg["kind"]] += sum(1 for d in post if d["chosen"] == want)

    stride_frac = matches["pc_delta"] / totals["pc_delta"]
    seq_frac = matches["sequential"] / totals["sequential"]
    assert stride_frac >= 0.8
    assert seq_frac >= 0.8
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _passline(6, f"ip_stride in {stride_frac:.1%} of stride phases, next_line "
                 f"in {seq_frac:.1%} of sequential phases, switch <= 2 phases, "
                 f"{elapsed:.1f}s")


def test_criterion_7_versatility():
    t0 = time.monotonic()
    improvement = {
        eng: phased_run(eng)[1]["speedup_proxy"] for eng in PHASED_ENGINES
    }
    best = max(improvement[e] for e in ("spp", "ip-stride", "next-line"))
    worst = min(improvement[e] for e in ("spp", "ip-stride", "next-line"))
    assert improvement["arsenal-tc2"] >= 0.9 * best
    assert improvement["arsenal-tc2"] > worst

    # homogeneous workloads: within 10% of the matching specialist
    homogeneous = [
        (PatternSpec(kind="sequential", start=0x40000000, seed=77),
         "next-line"),
        (PatternSpec(kind="pc_delta", streams=STRIDE_STREAMS, seed=78),
         "ip-stride"),
    ]
    ratios = []
    for spec, specialist in homogeneous:
        scored = run_engines(ExperimentConfig(pattern=spec, length=200_000),
                             ["arsenal-tc2", specialist])
        arsenal_imp = scored["arsenal-tc2"][1]["speedup_proxy"]
        specialist_imp = scored[specialist][1]["speedup_proxy"]
        assert abs(arsenal_imp - specialist_imp) <= 0.1 * specialist_imp, (
            f"{spec.kind}: arsenal {arsenal_imp:.3f} vs "
            f"{specialist} {specialist_imp:.3f}")
        ratios.append(arsenal_imp / specialist_imp)

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _passline(7, f"phased: arsenal {improvement['arsenal-tc2']:.2f}x vs best "
                 f"{best:.2f}x / worst {worst:.2f}x; homogeneous ratios "
                 f"{[f'{r:.3f}' for r in ratios]}, {elapsed:.1f}s")


def test_criterion_8_overhead_accounting():
    t0 = time.monotonic()
    tc1 = overhead_for_test_case("tc1")
    tc2 = overhead_for_test_case("tc2")
    assert abs(tc1["framework_total_kb"] - 6.0) <= 0.1
    assert abs(tc2["framework_total_kb"] - 9.0) <= 0.1
    assert abs(tc1["grand_total_kb"] - 70.5) <= 0.1
    assert abs(tc2["grand_total_kb"] - 20.2) <= 0.1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passline(8, f"framework {tc1['framework_total_kb']:.2f}/"
                 f"{tc2['framework_total_kb']:.2f} KB, totals "
                 f"{tc1['grand_total_kb']:.2f}/{tc2['grand_total_kb']:.2f} KB, "
                 f"all within 0.1 KB, {elapsed:.3f}s")


def test_criterion_9_compare_determinism():
    t0 = time.monotonic()
    traces = [
        {"label": "seq", "pattern": {"kind": "sequential", "seed": 31},
         "length": 30_000},
        {"label": "pc-stride",
         "pattern": {"kind": "pc_delta", "streams": STRIDE_STREAMS, "seed": 32},
         "length": 30_000},
        {"label": "flat-stride",
         "pattern": {"kind": "stride", "stride": 0x140, "seed": 33},
         "length": 30_000},
    ]
    first = to_json(compare_engines(traces, policy="tc2", seed=31))
    second = to_json(compare_engines(traces, policy="tc2", seed=31))
    assert first.encode() == second.encode()
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _passline(9, f"two compare runs byte-identical ({len(first)} bytes), "
                 f"{elapsed:.1f}s")


def test_criterion_10_component_sanity():
    t0 = time.monotonic()
    sanity_cache = CacheConfig(prefetch_fill_delay=0)  # isolate prediction

    # next-line, degree 5, 1M-event sequential, warmup 1000 accesses
    cfg = ExperimentConfig(engine="next-line",
                           pattern=PatternSpec(kind="sequential", seed=41),
                           length=1_000_000, cache=sanity_cache)
    sim = Simulation(cfg.cache, build_engine(cfg, cfg.engine))
    events = cfg.events()
    for _ in range(1000):
        sim.step(next(events))
    warm = sim.cache.demand_counts()
    sim.run(events)
    full = sim.cache.demand_counts()
    post = {k: full[k] - warm[k] for k in full}
    nl_cov = post["prefetch_hits"] / (post["prefetch_hits"] + post["misses"]
                                      + post["late_prefetch_hits"])
    assert nl_cov >= 0.9

    # ip-stride, degree 8, pure per-PC stride trace
    ip_report = run_experiment(ExperimentConfig(
        engine="ip-stride",
        pattern=PatternSpec(kind="pc_delta", streams=STRIDE_STREAMS, seed=42),
        length=300_000, cache=sanity_cache))
    ip_cov = ip_report["metrics"]["coverage"]
    assert ip_cov >= 0.8

    # spp chains over mixed shadow traffic: every chain holds at most 8
    # lines, and every slot count stays at or below its entry's count, which
    # keeps each step's confidence factor <= 1, so confidence never rises
    def assert_steps_never_raise_confidence(spp):
        for c_sig, slots, _ in spp.pattern_table.values():
            assert all(c_delta <= c_sig for _, c_delta in slots)

    spp_cfg = ExperimentConfig(engine="spp", pattern=PHASED_SPEC,
                               length=200_000, cache=sanity_cache)
    spp_engine = build_engine(spp_cfg, spp_cfg.engine)
    spp = spp_engine.component
    chains = []

    def on_pae(pc, line, seq):
        out = SppPrefetcher.on_pae(spp, pc, line, seq)
        chains.append(len(out))
        return out

    spp.on_pae = on_pae
    Simulation(spp_cfg.cache, spp_engine).run(spp_cfg.events())
    assert chains and max(chains) <= 8
    assert_steps_never_raise_confidence(spp)
    rng = random.Random(43)
    for seq in range(20_000):
        out = SppPrefetcher.on_pae(spp, 0x400, rng.randrange(64 * 64), seq)
        assert len(out) <= 8
    assert_steps_never_raise_confidence(spp)

    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    _passline(10, f"next-line coverage {nl_cov:.3f} >= 0.9, ip-stride coverage "
                  f"{ip_cov:.3f} >= 0.8, spp depth <= 8 with monotone "
                  f"confidence, {elapsed:.0f}s")
