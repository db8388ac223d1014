import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arsenal_sim.arsenal import (
    IP_STRIDE,
    MLOP,
    NEXT_LINE,
    POLICIES,
    PREFETCH_COUNTER_MAX,
    SCORE_MAX,
    SPP,
    TSKID,
    Arsenal,
    ArsenalConfig,
    select_test_case_1,
    select_test_case_2,
)
from arsenal_sim.cache import CacheConfig
from arsenal_sim.harness import Simulation
from arsenal_sim.traces import PatternSpec, generate
from pae_recorder import record_paes
from random_configs import caches, patterns, score_steps


def ctx(line, seq, pc=0x400):
    return pc, line, seq


def tc2_arsenal(**kw):
    return Arsenal("tc2", ArsenalConfig(**kw))


class TestScoreDemand:
    def test_floor_at_zero(self):
        a = tc2_arsenal()
        a.score_demand(123)
        assert all(s == 0 for s in a.scores().values())

    def test_filter_hit_adds_four(self):
        a = tc2_arsenal()
        a.filters[SPP].insert(123)
        a.score_demand(123)
        assert a.scores()[SPP] == 4
        assert a.scores()[NEXT_LINE] == 0

    def test_ceiling_at_11_bits(self):
        a = tc2_arsenal()
        a.scoreboard[SPP][1] = 2046
        a.filters[SPP].insert(123)
        a.score_demand(123)
        assert a.scores()[SPP] == 2047

    def test_miss_subtracts_one(self):
        a = tc2_arsenal()
        a.scoreboard[SPP][1] = 10
        a.score_demand(999)
        assert a.scores()[SPP] == 9


class TestSelectTestCase1:
    def test_higher_tskid_score_wins(self):
        assert select_test_case_1({TSKID: 50, MLOP: 40},
                                  {TSKID: 0, MLOP: 0}, None) == TSKID

    def test_attempt_threshold_overrides_score(self):
        # tskid loses on score but exceeded the attempt threshold
        assert select_test_case_1({TSKID: 10, MLOP: 20},
                                  {TSKID: 12000, MLOP: 500}, None) == TSKID

    def test_equal_scores_equal_attempts_pick_mlop(self):
        assert select_test_case_1({TSKID: 7, MLOP: 7},
                                  {TSKID: 900, MLOP: 900}, None) == MLOP

    def test_higher_mlop_score_wins(self):
        assert select_test_case_1({TSKID: 5, MLOP: 9},
                                  {TSKID: 0, MLOP: 0}, None) == MLOP

    def test_no_clause_fires_retains_previous(self):
        scores = {TSKID: 7, MLOP: 7}
        counters = {TSKID: 500, MLOP: 300}
        assert select_test_case_1(scores, counters, TSKID) == TSKID
        assert select_test_case_1(scores, counters, None) is None

    def test_threshold_is_strict(self):
        assert select_test_case_1({TSKID: 0, MLOP: 5},
                                  {TSKID: 10000, MLOP: 0}, None) == MLOP

    def test_pure_function(self):
        args = ({TSKID: 3, MLOP: 3}, {TSKID: 2, MLOP: 2}, MLOP)
        assert select_test_case_1(*args) == select_test_case_1(*args)


class TestSelectTestCase2:
    def test_low_next_line_max_falls_back_to_spp(self):
        # next-line is maximal but under its threshold; spp is the better rest
        assert select_test_case_2({SPP: 10, IP_STRIDE: 5, NEXT_LINE: 100}) == SPP

    def test_all_zero_selects_none(self):
        assert select_test_case_2({SPP: 0, IP_STRIDE: 0, NEXT_LINE: 0}) is None

    def test_next_line_above_threshold_wins(self):
        assert select_test_case_2({SPP: 3, IP_STRIDE: 7, NEXT_LINE: 2000}) == NEXT_LINE

    def test_next_line_at_threshold_is_rejected(self):
        # 1500 is not strictly above NEXT-LINE-MIN-SCORE
        assert select_test_case_2({SPP: 2, IP_STRIDE: 1, NEXT_LINE: 1500}) == SPP

    def test_spp_ip_tie_goes_to_spp(self):
        assert select_test_case_2({SPP: 9, IP_STRIDE: 9, NEXT_LINE: 1}) == SPP

    def test_ip_strictly_higher_wins(self):
        assert select_test_case_2({SPP: 4, IP_STRIDE: 9, NEXT_LINE: 1}) == IP_STRIDE

    def test_min_score_is_strict(self):
        assert select_test_case_2({SPP: 0, IP_STRIDE: 0, NEXT_LINE: 1}) is None

    def test_next_line_max_but_rest_at_floor(self):
        assert select_test_case_2({SPP: 0, IP_STRIDE: 0, NEXT_LINE: 1000}) is None

    def test_equal_scores_prefer_spp_over_next_line(self):
        # rule (a): best of spp/ip >= next-line counts as a win for spp/ip
        assert select_test_case_2({SPP: 50, IP_STRIDE: 10, NEXT_LINE: 50}) == SPP


# pc_delta, sequential and random working-set phases of 4000 events each
PHASES = PatternSpec.from_dict({"kind": "phased", "seed": 26, "segments": [
    {"spec": {"kind": "pc_delta", "streams": [
        {"pc": 0x400, "start": 0, "delta": 128},
        {"pc": 0x408, "start": 1 << 20, "delta": 192}]}, "length": 4000},
    {"spec": {"kind": "sequential", "start": 1 << 24}, "length": 4000},
    {"spec": {"kind": "random_working_set", "working_set_lines": 4096},
     "length": 4000}]})


def run_phases(policy, **kw):
    a = Arsenal(policy, ArsenalConfig(**kw))
    Simulation(CacheConfig(), a).run(generate(PHASES, 12_000))
    return a


def replay(arsenal, cfg):
    """Each phase's decision, recomputed by the policy's rule under ``cfg``
    from the phase's recorded scores and counters and the choice before it."""
    rule = POLICIES[arsenal.policy][1]
    decisions, previous = [], None
    for entry in arsenal.selection_timeline:
        decisions.append(rule(entry["scores"], entry["prefetch_counters"],
                              previous, cfg))
        previous = entry["chosen"]
    return decisions


class TestConfiguredThresholds:
    @pytest.mark.parametrize("policy,thresholds", [
        ("tc2", {"next_line_min_score": 0}),
        ("tc2", {"min_score": 200}),
        ("tc1", {"tskid_selection_attempt": 8}),
    ])
    def test_decisions_read_the_configured_thresholds(self, policy, thresholds):
        a = run_phases(policy, eval_cnt=64, **thresholds)
        chosen = [entry["chosen"] for entry in a.selection_timeline]
        assert replay(a, a.config) == chosen
        # the published thresholds decide some phase otherwise, so a sandbox
        # that dropped the run's thresholds would fail the line above
        assert replay(a, ArsenalConfig()) != chosen

    def test_attempt_clause_cannot_fire_at_the_published_point(self):
        # tc1 picks tskid when its counter exceeds tskid_selection_attempt,
        # but the counter saturates at 12 bits, below the published threshold;
        # phases of 2048 PAEs drive mlop's counter to the ceiling
        assert ArsenalConfig().tskid_selection_attempt > PREFETCH_COUNTER_MAX
        a = run_phases("tc1", eval_cnt=2048)
        counters = [value for entry in a.selection_timeline
                    for value in entry["prefetch_counters"].values()]
        assert max(counters) == PREFETCH_COUNTER_MAX


class TestOnPae:
    def test_initial_phase_returns_nothing_but_updates(self):
        a = tc2_arsenal()
        _, out = a.on_pae(*ctx(100, 0))
        assert out == []
        assert a.eval_counter == 1
        # next-line shadowed lines are in its filter
        assert a.filters[NEXT_LINE].query(101)

    def test_selected_component_candidates_are_forwarded(self):
        a = tc2_arsenal()
        a.components[NEXT_LINE].degree = 5
        a.chosen = NEXT_LINE
        source, out = a.on_pae(*ctx(100, 7))
        assert out == [101, 102, 103, 104, 105]
        assert source == NEXT_LINE

    def test_selection_fires_exactly_at_eval_cnt(self):
        a = tc2_arsenal(eval_cnt=512)
        for i in range(511):
            a.on_pae(*ctx(1000 + i, i))
        assert a.selection_timeline == []
        a.on_pae(*ctx(5000, 511))
        assert len(a.selection_timeline) == 1
        decision = a.selection_timeline[0]
        assert decision["eval_counters"] == {SPP: 512, IP_STRIDE: 512, NEXT_LINE: 512}
        assert decision["decided_at"] == 511
        # the counter is back to zero after the reset
        assert a.eval_counter == 0

    def test_selection_every_eval_cnt_paes(self):
        a = tc2_arsenal(eval_cnt=64)
        for i in range(640):
            a.on_pae(*ctx(i * 3, i))
        assert len(a.selection_timeline) == 10
        decided = [d["decided_at"] for d in a.selection_timeline]
        assert decided == [63 + 64 * k for k in range(10)]

    @settings(max_examples=40, deadline=None)
    @given(policy=st.sampled_from(["tc1", "tc2"]), eval_cnt=st.integers(1, 64),
           stream=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2000),
                                     st.integers(1, 3)), max_size=400))
    def test_kth_decision_at_the_kth_multiple_of_eval_cnt(self, policy, eval_cnt,
                                                          stream):
        a = Arsenal(policy, ArsenalConfig(eval_cnt=eval_cnt))
        seqs = []
        seq = 0
        for pc, line, gap in stream:
            seq += gap
            seqs.append(seq)
            a.on_pae(*ctx(line, seq, 0x400 + 8 * pc))
        timeline = a.selection_timeline
        assert len(timeline) == len(stream) // eval_cnt
        for k, decision in enumerate(timeline, start=1):
            assert decision["phase_index"] == k
            assert decision["decided_at"] == seqs[k * eval_cnt - 1]
            assert set(decision["eval_counters"].values()) == {eval_cnt}

    def test_eval_counter_never_exceeds_cap_after_call(self):
        a = tc2_arsenal(eval_cnt=32)
        for i in range(200):
            a.on_pae(*ctx(i, i))
            assert a.eval_counter <= 31

    def test_prefetch_counter_saturates_at_12_bits(self):
        a = tc2_arsenal(eval_cnt=100_000)  # no reset during the test
        for i in range(800):
            a.on_pae(*ctx(i, i))
            assert all(a.scoreboard[n][0] <= PREFETCH_COUNTER_MAX for n in a.names)
        # sequential stream: next-line and spp both shadow thousands of lines
        assert a.scoreboard[SPP][0] == PREFETCH_COUNTER_MAX

    def test_score_never_exceeds_11_bits(self):
        a = tc2_arsenal(eval_cnt=100_000)
        for i in range(700):
            a.on_pae(*ctx(i, i))
            assert all(a.scoreboard[n][1] <= SCORE_MAX for n in a.names)


class TestPhaseReset:
    def test_reset_clears_sandbox_state(self):
        a = tc2_arsenal()
        for i in range(100):
            a.on_pae(*ctx(i, i))
        a.phase_reset()
        assert a.eval_counter == 0
        for name in a.names:
            assert a.scoreboard[name] == [0, 0]
            assert not a.filters[name].query(50)
        a.score_demand(42)
        assert a.scores() == {n: 0 for n in a.names}

    def test_reset_applies_next_line_degree(self):
        a = tc2_arsenal()
        a.scoreboard[NEXT_LINE][1] = 1600
        a.phase_reset()
        assert a.components[NEXT_LINE].degree == 4

    def test_selection_persists_through_next_phase(self):
        a = tc2_arsenal(eval_cnt=16)
        # drive a pure sequential stream; next-line wins its phases
        for i in range(16 * 6):
            a.on_pae(*ctx(i, i, pc=0x400 + (i % 4) * 8))
        chosen = [d["chosen"] for d in a.selection_timeline]
        assert a.chosen == chosen[-1]
        # between decisions, on_pae output source matches the live selection
        live = a.chosen
        source, out = a.on_pae(*ctx(10_000, 10_000))
        if out:
            assert source == live


class TestOracleEquivalence:
    def _brute_force_scores(self, log, names, eval_cnt, inc=4, dec=1):
        """Replay a PAE log with plain sets and recompute every score."""
        members = {n: set() for n in names}
        scores = {n: 0 for n in names}
        paes = 0
        trajectory = []
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
                trajectory.append(dict(scores))
                scores = {n: 0 for n in names}
                members = {n: set() for n in names}
                paes = 0
        return trajectory

    def test_exact_filters_match_brute_force(self):
        rng = random.Random(77)
        a = Arsenal("tc2", ArsenalConfig(filter_kind="exact", eval_cnt=64))
        log = record_paes(a)
        for seq in range(640):
            a.on_pae(*ctx(rng.randrange(2048), seq, pc=0x400 + rng.randrange(8) * 8))
        want = self._brute_force_scores(log, a.names, 64)
        got = [d["scores"] for d in a.selection_timeline]
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(policy=st.sampled_from(["tc1", "tc2"]), cache=caches, pattern=patterns,
           eval_cnt=st.integers(1, 128), inc=score_steps, dec=score_steps,
           filter_size=st.sampled_from([(16, 0.3), (64, 0.1), (2000, 0.01)]))
    def test_bloom_scores_only_inflate_at_false_positives(self, policy, cache, pattern,
                                                          eval_cnt, inc, dec,
                                                          filter_size):
        a = Arsenal(policy, ArsenalConfig(filter_kind="paired", eval_cnt=eval_cnt,
                                          score_inc=inc, score_dec=dec,
                                          bf_est_cap=filter_size[0],
                                          bf_fpp=filter_size[1]))
        log = record_paes(a)
        Simulation(cache, a).run(generate(pattern, 600))
        # step through the log against exact membership: an answer differs
        # from it only at an fp probe, which moves the bloom score by inc up
        # where the exact one moves by dec down, and saturation only narrows
        # the gap, so each phase's excess stays within (inc + dec) x its probes
        members = {n: set() for n in a.names}
        exact = {n: 0 for n in a.names}
        fps = {n: 0 for n in a.names}
        paes = 0
        decisions = iter(a.selection_timeline)
        for rec in log:
            for n in a.names:
                answer, fp = rec["queries"][n]
                member = rec["line"] in members[n]
                assert answer == (member or fp) and not (member and fp)
                fps[n] += fp
                exact[n] = min(SCORE_MAX, exact[n] + inc) if member \
                    else max(0, exact[n] - dec)
                members[n].update(rec["candidates"][n])
            paes += 1
            # the last PAE of a phase reports the reset scores; its decision
            # holds the phase's final ones
            scores = next(decisions)["scores"] if paes == eval_cnt else rec["scores"]
            for n in a.names:
                assert exact[n] <= scores[n] <= exact[n] + (inc + dec) * fps[n]
            if paes == eval_cnt:
                members = {n: set() for n in a.names}
                exact = {n: 0 for n in a.names}
                fps = {n: 0 for n in a.names}
                paes = 0


class TestConfigAndRosters:
    def test_tc1_roster(self):
        comps = Arsenal("tc1").components
        assert set(comps) == {TSKID, MLOP}

    def test_tc2_roster(self):
        comps = Arsenal("tc2").components
        assert set(comps) == {SPP, IP_STRIDE, NEXT_LINE}

    def test_unknown_policy_is_named(self):
        with pytest.raises(ValueError, match="unknown selection policy: 'tc3'"):
            Arsenal("tc3")

    def test_component_params_forwarded(self):
        comps = Arsenal("tc2", component_params={NEXT_LINE: {"degree": 3}}).components
        assert comps[NEXT_LINE].degree == 3

    @pytest.mark.parametrize("kw", [
        {"filter_kind": "counting"},
        {"eval_cnt": 0},
        {"bf_fpp": 0.0},
        {"bf_est_cap": 0},
    ])
    def test_config_validation(self, kw):
        with pytest.raises(ValueError):
            ArsenalConfig(**kw)

    def test_default_thresholds(self):
        cfg = ArsenalConfig()
        assert cfg.score_inc == 4
        assert cfg.score_dec == 1
        assert cfg.min_score == 0
        assert cfg.next_line_min_score == 1500
        assert cfg.eval_cnt == 512
        assert cfg.tskid_selection_attempt == 10000
        assert cfg.bf_fpp == 0.01
        assert cfg.bf_est_cap == 2000
