import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arsenal_sim.prefetchers import (
    DEFAULT_MAX_LINE,
    IpStridePrefetcher,
    MlopPrefetcher,
    NextLinePrefetcher,
    SppPrefetcher,
    TskidPrefetcher,
    _encode_delta,
)


def ctx(line, seq=0, pc=0x400):
    return pc, line, seq


class TestNextLine:
    def test_degree_five(self):
        nl = NextLinePrefetcher(degree=5)
        assert nl.on_pae(*ctx(100)) == [101, 102, 103, 104, 105]

    def test_degree_one(self):
        nl = NextLinePrefetcher(degree=1)
        assert nl.on_pae(*ctx(100)) == [101]

    def test_address_space_ceiling(self):
        nl = NextLinePrefetcher(degree=2)
        top = DEFAULT_MAX_LINE
        assert nl.on_pae(*ctx(top)) == []
        assert nl.on_pae(*ctx(top - 1)) == [top]

    @pytest.mark.parametrize("score,expected", [(0, 1), (511, 1), (512, 2),
                                                (1600, 4), (2047, 4)])
    def test_set_degree_from_score(self, score, expected):
        nl = NextLinePrefetcher()
        nl.set_degree(score)
        assert nl.degree == expected

    def test_degree_five_reachable_with_smaller_divisor(self):
        nl = NextLinePrefetcher(degree_divisor=409)
        nl.set_degree(2047)
        assert nl.degree == 5

    def test_emits_exactly_degree_for_interior_lines(self):
        rng = random.Random(3)
        nl = NextLinePrefetcher(degree=3)
        for _ in range(100):
            line = rng.randrange(1, 1 << 40)
            assert len(nl.on_pae(*ctx(line))) == 3


class TestIpStride:
    def test_third_access_emits_eight_strided_lines(self):
        ip = IpStridePrefetcher()
        assert ip.on_pae(*ctx(100, 0)) == []
        assert ip.on_pae(*ctx(110, 1)) == []
        assert ip.on_pae(*ctx(120, 2)) == [130, 140, 150, 160, 170, 180, 190, 200]

    def test_single_sighting_no_candidates(self):
        ip = IpStridePrefetcher()
        assert ip.on_pae(*ctx(500)) == []

    def test_zero_stride_excluded(self):
        ip = IpStridePrefetcher()
        for seq in range(5):
            assert ip.on_pae(*ctx(77, seq)) == []

    def test_never_emits_before_third_access(self):
        rng = random.Random(9)
        for _ in range(50):
            ip = IpStridePrefetcher()
            stride = rng.randrange(1, 100)
            base = rng.randrange(1 << 30)
            assert ip.on_pae(*ctx(base, 0)) == []
            assert ip.on_pae(*ctx(base + stride, 1)) == []
            assert ip.on_pae(*ctx(base + 2 * stride, 2)) != []

    def test_lru_table_eviction(self):
        ip = IpStridePrefetcher(table_size=64)
        for i in range(65):
            ip.on_pae(*ctx(1000 + i, i, pc=0x1000 + i))
        assert len(ip.table) == 64
        assert 0x1000 not in ip.table  # oldest PC evicted
        assert 0x1001 in ip.table

    def test_relearns_after_pattern_change(self):
        ip = IpStridePrefetcher()
        for i in range(4):
            ip.on_pae(*ctx(100 + 10 * i, i))
        # switch to stride 3: confidence drains, then re-trains
        base = 130
        outs = [ip.on_pae(*ctx(base + 3 * i, 10 + i)) for i in range(6)]
        assert outs[-1] == [base + 3 * 5 + 3 * j for j in range(1, 9)]

    def test_negative_stride(self):
        ip = IpStridePrefetcher()
        ip.on_pae(*ctx(1000, 0))
        ip.on_pae(*ctx(990, 1))
        assert ip.on_pae(*ctx(980, 2)) == [970, 960, 950, 940, 930, 920, 910, 900]

    def test_candidates_clamped_to_line_space(self):
        ip = IpStridePrefetcher()
        ip.on_pae(*ctx(20, 0))
        ip.on_pae(*ctx(14, 1))
        out = ip.on_pae(*ctx(8, 2))
        assert out == [2]  # 8-6k for k>=2 would be negative


class TestSpp:
    def test_fresh_page_empty_ghr_no_candidates(self):
        spp = SppPrefetcher()
        assert spp.on_pae(*ctx(64 * 5 + 3)) == []

    def test_unit_stride_training_and_first_emission(self):
        # page 0, offsets 1..6; signatures walk 0,1,9,73,585 and the pattern
        # table folds 585 onto index 73, so the first chain fires on the
        # fifth access and runs the full depth: offsets 6..13
        spp = SppPrefetcher()
        assert spp.on_pae(*ctx(1)) == []
        assert spp.on_pae(*ctx(2)) == []
        assert spp.on_pae(*ctx(3)) == []
        assert spp.on_pae(*ctx(4)) == []
        assert spp.on_pae(*ctx(5)) == [6, 7, 8, 9, 10, 11, 12, 13]
        assert spp.on_pae(*ctx(6)) == [7, 8, 9, 10, 11, 12, 13, 14]

    def test_chain_stops_at_page_boundary_and_ghr_resumes(self):
        spp = SppPrefetcher()
        emitted = set()
        for off in range(1, 64):  # offsets 1..63 of page 0
            for cand in spp.on_pae(*ctx(off, off)):
                emitted.add(cand)
        # nothing emitted past the page: line 64 was never predicted
        assert all(c < 64 for c in emitted)
        # first access of page 1 resumes the path via the history register
        out = spp.on_pae(*ctx(64, 64))
        assert out == [65, 66, 67, 68, 69, 70, 71, 72]

    def test_ghr_resumes_backward_crossings(self):
        spp = SppPrefetcher()
        base = 64 * 10  # descend from page 10 into page 9
        emitted = set()
        for i, off in enumerate(range(62, -1, -1)):
            for cand in spp.on_pae(*ctx(base + off, i)):
                emitted.add(cand)
        assert all(c >= base for c in emitted)  # never predicted below the page
        out = spp.on_pae(*ctx(base - 1, 100))  # offset 63 of page 9
        assert out == [base - 2, base - 3, base - 4, base - 5,
                       base - 6, base - 7, base - 8, base - 9]

    @pytest.mark.parametrize("direction,expected", [
        (1, [2, 3, 5, 6, 8, 9, 11, 12]), (-1, [-2, -3, -5, -6, -8, -9, -11, -12])])
    def test_ghr_resumes_a_zigzag_in_phase(self, direction, expected):
        # deltas alternate 1, 2 from one page end to the other, so the path
        # steps off with a 1 and resumes with a 2. Its signature changes at
        # every step (a steady stride's settles on a fixed point), so only
        # the signature after the step off resumes in phase; signature 0, as
        # on a page with no resume point, resumes with a 1
        spp = SppPrefetcher()
        base = 64 * 10
        off, i = (0 if direction > 0 else 63), 0
        while 0 <= off < 64:
            spp.on_pae(*ctx(base + off, i))
            off += direction * (1 if i % 2 == 0 else 2)
            i += 1
        first = base + off  # offset 0 of the next page, or 63 of the one before
        assert off == (64 if direction > 0 else -1)
        assert spp.on_pae(*ctx(first, i)) == [first + d for d in expected]

    @pytest.mark.parametrize("direction,point", [(1, (0, 1105)), (-1, (63, 1553))])
    def test_ghr_keeps_one_copy_of_a_repeated_resume_point(self, direction, point):
        # the zigzag above: every lookahead near the page end steps off at
        # the same point, and a copy per lookahead would push every other
        # point out of the GHR
        spp = SppPrefetcher()
        off, i = (0 if direction > 0 else 63), 0
        while 0 <= off < 64:
            spp.on_pae(*ctx(64 * 10 + off, i))
            off += direction * (1 if i % 2 == 0 else 2)
            i += 1
        assert list(spp.ghr).count(point) == 1
        assert len(set(spp.ghr)) == len(spp.ghr)

    def test_lookahead_stops_at_max_line(self):
        # a unit stride trained on the page that holds max_line: the chain
        # would run to offset 23, but no candidate passes the last line
        top = 64 * 10 + 20
        spp = SppPrefetcher(max_line=top)
        outs = [spp.on_pae(*ctx(64 * 10 + off, off)) for off in range(16)]
        assert outs[-1] == list(range(64 * 10 + 16, top + 1))
        assert max(c for out in outs for c in out) == top

    def test_interleaved_deltas_converge_to_zigzag_chain(self):
        # offsets 1,2,4,5,7,8,...: deltas alternate +1,+2; signatures settle
        # into the 2-cycle (1105, 650) whose entries each hold one delta at
        # full confidence, so chains zigzag at P = 1 to the depth cap
        spp = SppPrefetcher()
        offs = []
        o = 1
        for i in range(20):
            offs.append(o)
            o += 1 if i % 2 == 0 else 2
        outs = [spp.on_pae(*ctx(off, i)) for i, off in enumerate(offs)]
        last = outs[-1]
        trigger = offs[-1]
        assert last == [trigger + d for d in (2, 3, 5, 6, 8, 9, 11, 12)]

    def test_chain_depth_never_exceeds_cap(self):
        rng = random.Random(21)
        spp = SppPrefetcher()
        for seq in range(5000):
            line = rng.randrange(0, 64 * 32)
            out = spp.on_pae(*ctx(line, seq))
            assert len(out) <= spp.lookahead_depth

    def test_delta_counter_never_exceeds_signature_counter(self):
        rng = random.Random(22)
        spp = SppPrefetcher()
        for seq in range(20000):
            line = rng.randrange(0, 64 * 8)
            spp.on_pae(*ctx(line, seq))
            if seq % 1000 == 0:
                for c_sig, slots, _ in spp.pattern_table.values():
                    for delta, c_delta in slots:
                        assert c_delta <= c_sig

    def test_candidates_stay_on_page(self):
        rng = random.Random(23)
        spp = SppPrefetcher()
        for seq in range(3000):
            line = rng.randrange(0, 64 * 16)
            page = line // 64
            for cand in spp.on_pae(*ctx(line, seq)):
                assert cand // 64 == page

    def test_encode_delta_sign_magnitude(self):
        assert _encode_delta(1) == 1
        assert _encode_delta(63) == 63
        assert _encode_delta(-1) == 0x41
        assert _encode_delta(-63) == 0x7F


@settings(max_examples=60, deadline=None)
@given(pt_entries=st.integers(1, 16), pt_slots=st.integers(1, 4),
       counter_max=st.integers(1, 15), lookahead_depth=st.integers(1, 8),
       page_lines=st.integers(1, 16),
       confidence_threshold=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                                      st.floats(-1.0, 1.0)),
       start=st.integers(0, 255),
       runs=st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 16)),
                     min_size=1, max_size=30))
def test_spp_counts_bound_each_path(pt_entries, pt_slots, counter_max,
                                    lookahead_depth, page_lines,
                                    confidence_threshold, start, runs):
    # every slot count stays at or below its entry's count, so each step's
    # c_delta / c_sig is at most 1 and a path's confidence never rises; a
    # threshold <= 0 leaves the depth cap and the page edge to end a path
    spp = SppPrefetcher(pt_entries=pt_entries, pt_slots=pt_slots,
                        counter_max=counter_max, lookahead_depth=lookahead_depth,
                        page_lines=page_lines,
                        confidence_threshold=confidence_threshold)
    # runs of one small step repeat a delta within a page, so entries train
    # past counter_max and halve
    steps = [step for step, count in runs for _ in range(count)]
    line = start
    for seq, step in enumerate(steps):
        line = (line + step) % 256
        out = spp.on_pae(*ctx(line, seq))
        for c_sig, slots, _ in spp.pattern_table.values():
            assert 1 <= c_sig <= counter_max
            assert all(c_delta <= c_sig for _, c_delta in slots)
        assert len(out) <= lookahead_depth
        assert all(c // page_lines == line // page_lines for c in out)


class TestMlop:
    def test_no_candidates_before_first_round(self):
        mlop = MlopPrefetcher()
        for line in range(255):
            assert mlop.on_pae(*ctx(line, line)) == []

    def test_sequential_round_selects_unit_offsets(self):
        # lines 0..255 span four zones; offset o scores 4*(64-o) at levels
        # l <= o, so level l picks o = l and the selection is {+1..+8}
        mlop = MlopPrefetcher()
        for line in range(256):
            mlop.on_pae(*ctx(line, line))
        assert mlop.selected_offsets == [1, 2, 3, 4, 5, 6, 7, 8]
        out = mlop.on_pae(*ctx(256, 256))
        assert out == [257, 258, 259, 260, 261, 262, 263, 264]

    def test_emission_clipped_to_zone(self):
        mlop = MlopPrefetcher()
        for line in range(256):
            mlop.on_pae(*ctx(line, line))
        # trigger at in-zone index 60: only offsets 1..3 stay inside
        out = mlop.on_pae(*ctx(64 * 5 + 60, 300))
        assert out == [64 * 5 + 61, 64 * 5 + 62, 64 * 5 + 63]

    def test_stride_two_round_selects_even_offsets(self):
        # lines 0,2,4,...: line x-o exists only for even o, and its touch is
        # o/2 triggers old, so level l's best is o = 2l with score 256-8l
        mlop = MlopPrefetcher()
        for i in range(256):
            mlop.on_pae(*ctx(2 * i, i))
        assert mlop.selected_offsets == [2, 4, 6, 8, 10, 12, 14, 16]

    def test_tie_break_prefers_positive_offset(self):
        # ping-pong between two lines 2 apart: +2 and -2 tie on score at
        # level 1 and nothing else clears the threshold
        mlop = MlopPrefetcher()
        for i in range(256):
            mlop.on_pae(*ctx(1000 + (i % 2) * 2, i))
        assert mlop.selected_offsets == [2]

    def test_single_touch_zones_never_select(self):
        mlop = MlopPrefetcher()
        for i in range(300):
            mlop.on_pae(*ctx(i * 128, i))  # every access lands in a new zone
        assert mlop.selected_offsets == []
        assert mlop.on_pae(*ctx(12345 * 128, 301)) == []

    def test_at_most_levels_distinct_offsets(self):
        rng = random.Random(31)
        mlop = MlopPrefetcher()
        for seq in range(4000):
            line = rng.randrange(0, 64 * 8)
            out = mlop.on_pae(*ctx(line, seq))
            assert len(out) <= mlop.levels
            assert len(set(out)) == len(out)

    def test_round_resets_scores(self):
        mlop = MlopPrefetcher()
        for line in range(256):
            mlop.on_pae(*ctx(line, line))
        assert all(s == 0 for col in mlop.scores.values() for s in col)

    def test_zone_lines_costs_no_memory_per_line(self):
        # a zone holds a stamp per touched line, whatever its size
        rng = random.Random(41)
        mlop = MlopPrefetcher(zone_lines=10 ** 6)
        tracemalloc.start()
        try:
            for seq in range(400):
                mlop.on_pae(*ctx(rng.randrange(0, 10 ** 8), seq))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(mlop.zone_table) == mlop.zones
        assert peak < 1 << 20


class TestTskid:
    def test_learned_timing_delays_release(self):
        # pc strides by 8 lines every 20 ticks; after verification the
        # prediction made at t releases at t + (20 - lead) = t + 16
        tk = TskidPrefetcher()
        a = 1000
        assert tk.on_pae(*ctx(a, 0)) == []
        assert tk.on_pae(*ctx(a + 8, 20)) == []
        # confidence reaches 2; timing untrained so the issue is immediate
        assert tk.on_pae(*ctx(a + 16, 40)) == [a + 24]
        # demand verifies the prediction: use distance becomes 20
        assert tk.on_pae(*ctx(a + 24, 60)) == []  # release now 60+16=76
        assert tk.on_pae(*ctx(a + 32, 80)) == [a + 32]  # releases the 76-tick entry
        assert tk.table[0x400][3] == 20

    def test_untrained_pc_no_candidates(self):
        tk = TskidPrefetcher()
        assert tk.on_pae(*ctx(10, 0)) == []
        assert tk.on_pae(*ctx(20, 1)) == []

    def test_short_use_distance_clamps_to_immediate(self):
        tk = TskidPrefetcher()
        a = 2000
        tk.on_pae(*ctx(a, 0))
        tk.on_pae(*ctx(a + 8, 2))
        assert tk.on_pae(*ctx(a + 16, 4)) == [a + 24]
        # verified use distance 2 < lead 4: release clamps to the trigger tick
        assert tk.on_pae(*ctx(a + 24, 6)) == [a + 32]
        assert tk.table[0x400][3] == 2

    def test_verification_expires(self):
        tk = TskidPrefetcher()
        a = 3000
        tk.on_pae(*ctx(a, 0))
        tk.on_pae(*ctx(a + 8, 20))
        tk.on_pae(*ctx(a + 16, 40))  # schedules and records a+24 at trigger 40
        # park unrelated PAEs until the record is stale
        for i in range(40):
            tk.on_pae(*ctx(10_000 + i, 1100 + i, pc=0x9000 + i))
        tk.on_pae(*ctx(a + 24, 1200))  # too old to verify
        assert tk.table[0x400][3] == 0

    def test_zero_delta_never_scheduled(self):
        tk = TskidPrefetcher()
        for seq in range(6):
            assert tk.on_pae(*ctx(5000, seq)) == []
        assert not tk._delay_queue

    def test_releases_are_in_order(self):
        rng = random.Random(41)
        tk = TskidPrefetcher()
        seq = 0
        streams = {0x400 + i: [4000 * i, 4 + i] for i in range(4)}
        released = []
        for _ in range(2000):
            pc = 0x400 + rng.randrange(4)
            line, stride = streams[pc]
            streams[pc][0] = line + stride
            out = tk.on_pae(*ctx(line, seq, pc=pc))
            released.extend((seq, l) for l in out)
            seq += rng.randrange(1, 6)
        # queue drains oldest-release first: observed release ticks are sorted
        assert released == sorted(released, key=lambda r: r[0])

    def test_lru_table_bound(self):
        tk = TskidPrefetcher(table_size=64)
        for i in range(100):
            tk.on_pae(*ctx(i * 50, i, pc=0x7000 + i))
        assert len(tk.table) == 64


class TestReplayDeterminism:
    @pytest.mark.parametrize("factory", [
        lambda: NextLinePrefetcher(degree=4),
        IpStridePrefetcher,
        SppPrefetcher,
        MlopPrefetcher,
        TskidPrefetcher,
    ])
    def test_identical_pae_sequences_identical_candidates(self, factory):
        rng = random.Random(55)
        events = []
        seq = 0
        for _ in range(3000):
            pc = 0x400 + rng.randrange(8) * 8
            line = rng.randrange(0, 64 * 64)
            events.append((pc, line, seq))
            seq += rng.randrange(1, 4)

        def run():
            p = factory()
            return [tuple(p.on_pae(*e)) for e in events]

        assert run() == run()
