import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arsenal_sim.traces import (
    PatternSpec,
    check_address_range,
    generate,
    parse_trace,
    phase_boundaries,
    write_trace,
)


class TestParseTrace:
    def test_single_record(self):
        events = list(parse_trace(["0x400 0x1000 R"]))
        assert len(events) == 1
        pc, addr, is_write, seq = events[0]
        assert pc == 0x400
        assert addr == 0x1000
        assert not is_write
        assert seq == 0
        assert type(events[0]) is tuple

    def test_comments_and_blanks_skipped(self):
        events = list(parse_trace(["# header", "", "0x400 0x1000 W"]))
        assert len(events) == 1
        _, _, is_write, seq = events[0]
        assert seq == 0
        assert is_write

    def test_seq_strictly_increments(self):
        lines = [f"0x400 0x{i * 64:x} R" for i in range(100)]
        events = list(parse_trace(lines))
        assert [seq for _, _, _, seq in events] == list(range(100))

    def test_bad_hex_names_line(self):
        with pytest.raises(ValueError) as err:
            list(parse_trace(["0x400 zzz R"]))
        assert str(err.value).startswith("line 1: ")
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("line", [
        "0x4_00 0x1000 R",
        "0x400 0x1_000 R",
        "+0x400 0x1000 R",
        "0x400 +0x1000 R",
    ])
    def test_separator_or_plus_sign_is_a_bad_hex_field(self, line):
        with pytest.raises(ValueError, match="line 2: bad hex field") as err:
            list(parse_trace(["0x400 0x1000 R", line]))
        assert str(err.value).startswith("line 2: ")

    @pytest.mark.parametrize("line, message", [
        ("\uff10x\uff14\uff10\uff10 0x1000 R", "bad hex field"),
        ("0x400 \u0664\u0660\u0660 R", "bad hex field"),
        ("0x400\u00a00x1000 R", "expected 'PC ADDR R|W'"),
        ("0x400\u20030x1000 R", "expected 'PC ADDR R|W'"),
        ("0x400\u30000x1000 R", "expected 'PC ADDR R|W'"),
        ("\u30000x400 0x1000 R", "expected 'PC ADDR R|W'"),
        ("0x400 0x1000 R\u00a0", "expected 'PC ADDR R|W'"),
    ], ids=["fullwidth-digits", "arabic-indic-digits", "no-break-space",
            "em-space", "ideographic-space", "leading-space", "trailing-space"])
    def test_a_non_ascii_character_is_refused(self, line, message):
        with pytest.raises(ValueError, match=f"line 2: {message}") as err:
            list(parse_trace(["0x400 0x1000 R", line]))
        assert str(err.value).startswith("line 2: ")

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                           "\x1f", "\r"],
                             ids=["vt", "ff", "fs", "gs", "rs", "us", "mid-line-cr"])
    def test_an_ascii_control_separator_is_refused(self, separator):
        line = f"0x400{separator}0x1000 R\n"
        with pytest.raises(ValueError) as err:
            list(parse_trace(["0x400 0x1000 R\n", line]))
        assert str(err.value) == f"line 2: expected 'PC ADDR R|W', got {line!r}"

    @pytest.mark.parametrize("line", ["0x400\t0x1000\tR\n", "\t0x400 \t0x1000  R\t\n",
                                      "0x400 0x1000 R\r\n"],
                             ids=["tabs", "mixed-blanks", "crlf"])
    def test_tabs_spaces_and_a_crlf_ending_are_accepted(self, line):
        assert list(parse_trace([line])) == [(0x400, 0x1000, False, 0)]

    def test_prefix_is_optional_and_op_case_insensitive(self):
        assert list(parse_trace(["400 1000 r"])) == [(0x400, 0x1000, False, 0)]

    def test_bad_field_count_names_line(self):
        with pytest.raises(ValueError) as err:
            list(parse_trace(["# ok", "0x400 0x1000"]))
        assert str(err.value).startswith("line 2: ")

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            list(parse_trace(["0x400 0x1000 X"]))

    def test_empty_stream_is_empty_sequence(self):
        assert list(parse_trace([])) == []

    @pytest.mark.parametrize("line", [
        "-0x400 -0x40 R",
        "0x400 -0x40 R",
        "-0x400 0x40 R",
        "0x400 0x1ffffffffffffffffff R",   # 73 bits
        "0x10000000000000000 0x40 R",      # 2**64
    ])
    def test_field_outside_64_bits_names_line(self, line):
        with pytest.raises(ValueError) as err:
            list(parse_trace(["0x400 0x1000 R", line]))
        assert str(err.value).startswith("line 2: ")

    def test_widest_fields_round_trip(self):
        top = (1 << 64) - 1
        events = list(parse_trace([f"0x{top:x} 0x{top:x} W"]))
        assert events[0][:2] == (top, top)
        buf = io.StringIO()
        write_trace(events, buf)
        buf.seek(0)
        assert list(parse_trace(buf)) == events

    def test_round_trip(self):
        spec = PatternSpec(kind="random_working_set", working_set_lines=128,
                           write_fraction=0.3, seed=9)
        events = list(generate(spec, 500))
        buf = io.StringIO()
        write_trace(events, buf)
        assert len(buf.getvalue().splitlines()) == 500
        buf.seek(0)
        assert list(parse_trace(buf)) == events


class TestGenerate:
    def test_sequential_lines(self):
        spec = PatternSpec(kind="sequential", start=0, seed=1)
        events = list(generate(spec, 4))
        assert [addr // 64 for _, addr, _, _ in events] == [0, 1, 2, 3]
        assert [seq for _, _, _, seq in events] == [0, 1, 2, 3]

    def test_stride_lines(self):
        spec = PatternSpec(kind="stride", start=0, stride=0x100, seed=1)
        events = list(generate(spec, 3))
        assert [addr // 64 for _, addr, _, _ in events] == [0, 4, 8]
        assert len({pc for pc, _, _, _ in events}) == 1  # stride keeps one pc

    def test_determinism(self):
        spec = PatternSpec(kind="random_working_set", working_set_lines=512, seed=7)
        assert list(generate(spec, 1000)) == list(generate(spec, 1000))

    def test_seed_changes_stream(self):
        a = PatternSpec(kind="random_working_set", working_set_lines=512, seed=7)
        b = PatternSpec(kind="random_working_set", working_set_lines=512, seed=8)
        assert list(generate(a, 200)) != list(generate(b, 200))

    def test_own_seed_wins_over_the_given_one(self):
        spec = PatternSpec(kind="random_working_set", working_set_lines=512, seed=5)
        assert list(generate(spec, 200, 9)) == list(generate(spec, 200))
        unseeded = PatternSpec(kind="random_working_set", working_set_lines=512)
        assert list(generate(unseeded, 200, 5)) == list(generate(spec, 200))

    def test_pc_delta_round_robin(self):
        streams = [{"pc": 0x10, "start": 0, "delta": 64},
                   {"pc": 0x20, "start": 0x10000, "delta": 128}]
        spec = PatternSpec(kind="pc_delta", streams=streams, seed=1)
        events = list(generate(spec, 6))
        assert [pc for pc, _, _, _ in events] == [0x10, 0x20, 0x10, 0x20, 0x10, 0x20]
        assert [addr for _, addr, _, _ in events] == [0, 0x10000, 64, 0x10080, 128, 0x10100]

    def test_phased_concatenates(self):
        spec = PatternSpec(kind="phased", segments=[
            {"spec": {"kind": "sequential", "start": 0}, "length": 5},
            {"spec": {"kind": "stride", "start": 0x100000, "stride": 128}, "length": 5},
        ], seed=3)
        events = list(generate(spec, 10))
        assert [seq for _, _, _, seq in events] == list(range(10))
        assert [addr for _, addr, _, _ in events[:5]] == [0, 64, 128, 192, 256]
        assert events[5][1] == 0x100000

    def test_phased_cycles_segments(self):
        spec = PatternSpec(kind="phased", segments=[
            {"spec": {"kind": "sequential", "start": 0}, "length": 3},
            {"spec": {"kind": "sequential", "start": 0x4000}, "length": 3},
        ], seed=3)
        events = list(generate(spec, 12))
        assert len(events) == 12
        assert events[6][1] == 0  # third segment restarts the first spec

    def test_every_kind_produces_events(self):
        specs = [
            PatternSpec(kind="sequential"),
            PatternSpec(kind="stride"),
            PatternSpec(kind="random_working_set"),
            PatternSpec(kind="pc_delta",
                        streams=[{"pc": 1, "start": 0, "delta": 64}]),
            PatternSpec(kind="phased", segments=[
                {"spec": {"kind": "sequential"}, "length": 4}]),
        ]
        for spec in specs:
            events = list(generate(spec, 4))
            assert len(events) == 4, spec.kind

    def test_working_set_stays_bounded(self):
        spec = PatternSpec(kind="random_working_set", start=0,
                           working_set_lines=64, seed=2)
        for _, addr, _, _ in generate(spec, 2000):
            assert 0 <= addr // 64 < 64

    def test_phase_boundaries(self):
        spec = PatternSpec(kind="phased", segments=[
            {"spec": {"kind": "stride"}, "length": 10},
            {"spec": {"kind": "sequential"}, "length": 20},
        ], seed=0)
        bounds = phase_boundaries(spec, 45)
        assert bounds == [
            {"kind": "stride", "start": 0, "end": 10},
            {"kind": "sequential", "start": 10, "end": 30},
            {"kind": "stride", "start": 30, "end": 40},
            {"kind": "sequential", "start": 40, "end": 45},
        ]


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PatternSpec(kind="zigzag")

    def test_zero_stride(self):
        with pytest.raises(ValueError):
            PatternSpec(kind="stride", stride=0)

    def test_pc_delta_requires_streams(self):
        with pytest.raises(ValueError):
            PatternSpec(kind="pc_delta")

    def test_phased_requires_positive_lengths(self):
        with pytest.raises(ValueError):
            PatternSpec(kind="phased", segments=[
                {"spec": {"kind": "sequential"}, "length": 0}])

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            PatternSpec.from_dict({"kind": "sequential", "bogus": 1})

    @pytest.mark.parametrize("data,message", [
        ({"kind": "phased", "segments": [
            {"spec": {"kind": "sequential"}, "length": 4},
            {"spec": {"kind": "phased", "segments": [
                {"spec": {"kind": "stride"}, "length": 4}]}, "length": 4}]},
         "phased segments must be flat patterns"),
        ({"kind": "pc_delta", "streams": [{"pc": 4, "start": 0, "delta": 64},
                                          {"pc": 8, "start": 0}]},
         "missing pattern stream fields: ['delta']"),
        ({"kind": "sequential", "line_size": 0},
         "pattern field line_size must be >= 1, got 0"),
        ({"kind": "sequential", "line_size": -64},
         "pattern field line_size must be >= 1, got -64"),
        ({"kind": "random_working_set", "line_size": 0},
         "pattern field line_size must be >= 1, got 0"),
        ({"kind": "random_working_set", "line_size": -1},
         "pattern field line_size must be >= 1, got -1"),
    ])
    def test_from_dict_rejects_malformed_parts(self, data, message):
        with pytest.raises(ValueError) as err:
            PatternSpec.from_dict(data)
        assert str(err.value) == message

    def test_dict_round_trip(self):
        spec = PatternSpec(kind="stride", start=64, stride=128, seed=5)
        assert PatternSpec.from_dict(spec.to_dict()) == spec

    def test_phased_round_trip_keeps_raw_segments(self):
        segments = [{"spec": {"kind": "stride", "stride": 128}, "length": 10},
                    {"spec": {"kind": "pc_delta", "streams": [
                        {"pc": 4, "start": 0, "delta": 64}]}, "length": 20}]
        spec = PatternSpec.from_dict({"kind": "phased", "segments": segments,
                                      "seed": 2})
        assert spec.to_dict()["segments"] == segments
        again = PatternSpec.from_dict(spec.to_dict())
        assert again == spec
        assert list(generate(again, 45)) == list(generate(spec, 45))


def randrange_flat(spec, length):
    """Events of a flat sequential or random_working_set pattern, drawn with
    rng.randrange as generation did before its draws were inlined: the
    reference the inlined draws must match bit for bit."""
    rng = random.Random(spec.seed)
    pool = [spec.pc + 8 * i for i in range(max(1, spec.pc_pool))]
    if spec.kind == "sequential":
        addr = spec.start
        for i in range(length):
            yield pool[rng.randrange(len(pool))], addr, False, i
            addr += spec.line_size
        return
    base_line = spec.start // spec.line_size
    wf = spec.write_fraction
    for i in range(length):
        line = base_line + rng.randrange(spec.working_set_lines)
        is_write = wf > 0.0 and rng.random() < wf
        yield pool[rng.randrange(len(pool))], line * spec.line_size, is_write, i


class TestInlinedDraws:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["sequential", "random_working_set"]),
           seed=st.integers(0, 2 ** 64),
           pc_pool=st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
                             st.integers(1, 64)),
           working_set_lines=st.one_of(st.sampled_from([1, 2, 512, 4096]),
                                       st.integers(1, 5000)),
           write_fraction=st.sampled_from([0.0, 0.3, 1.0]),
           length=st.integers(1, 600))
    def test_generate_matches_randrange(self, kind, seed, pc_pool,
                                        working_set_lines, write_fraction, length):
        spec = PatternSpec(kind=kind, start=1 << 20, pc_pool=pc_pool,
                           working_set_lines=working_set_lines,
                           write_fraction=write_fraction, seed=seed)
        events = list(generate(spec, length))
        assert events == list(randrange_flat(spec, length))
        assert all(type(event) is tuple for event in events)


TOP = 1 << 64
# values a few steps from either edge of [0, 2**64), so whether a walk of
# a few events crosses an edge, and at which event, depends on its length
edges = st.integers(-6, 6).flatmap(lambda k: st.sampled_from(
    [8 * k, 64 * k, TOP + 8 * k, TOP + 64 * k]))
steps = st.sampled_from([8, -8, 64, -64])
# a pool of one PC: PCs drawn from a larger pool are random, and the check
# refuses a pool that holds any PC outside the range (see the cases below)
flat_specs = st.one_of(
    st.builds(lambda start, pc, pool: PatternSpec(
        kind="sequential", start=start, pc=pc, pc_pool=pool),
        edges, edges, st.integers(0, 1)),
    st.builds(lambda start, pc, stride: PatternSpec(
        kind="stride", start=start, pc=pc, stride=stride), edges, edges, steps),
    st.builds(lambda streams: PatternSpec(kind="pc_delta", streams=streams),
              st.lists(st.fixed_dictionaries(
                  {"pc": edges, "start": edges, "delta": steps}),
                  min_size=1, max_size=3)),
)


def leaves_range(spec, length):
    return any((pc | addr) >> 64 for pc, addr, _, _ in generate(spec, length))


def refused(spec, length):
    try:
        check_address_range(spec, length)
    except ValueError as exc:
        assert "outside [0, 2**64)" in str(exc)
        return True
    return False


class TestAddressRange:
    @settings(max_examples=300, deadline=None)
    @given(specs=st.lists(st.tuples(flat_specs, st.integers(1, 8)),
                          min_size=1, max_size=3),
           phased=st.booleans(), length=st.integers(1, 24))
    def test_refused_exactly_when_an_event_leaves_the_range(self, specs, phased,
                                                            length):
        spec = specs[0][0]
        if phased:
            spec = PatternSpec(kind="phased", segments=[
                {"spec": flat.to_dict(), "length": n} for flat, n in specs])
        assert refused(spec, length) == leaves_range(spec, length)

    @pytest.mark.parametrize("kind", ["sequential", "random_working_set"])
    @pytest.mark.parametrize("pc,pc_pool,ok", [
        (0, 4, True), (-8, 4, False), (TOP - 32, 4, True), (TOP - 24, 4, False),
        (TOP - 8, 0, True)])
    def test_pc_pool_bounds(self, kind, pc, pc_pool, ok):
        spec = PatternSpec(kind=kind, pc=pc, pc_pool=pc_pool, working_set_lines=1)
        assert refused(spec, 1) != ok

    @pytest.mark.parametrize("kind", ["sequential", "random_working_set"])
    def test_pc_pool_costs_no_memory_per_pc(self, kind):
        # the pool's bounds and draws need only its first PC and its size
        spec = PatternSpec(kind=kind, pc_pool=10 ** 6, seed=3)
        tracemalloc.start()
        try:
            check_address_range(spec, 10)
            events = list(generate(spec, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(events) == 10
        assert all(pc % 8 == spec.pc % 8 and
                   spec.pc <= pc < spec.pc + 8 * 10 ** 6 for pc, _, _, _ in events)
        assert peak < 1 << 20

    @pytest.mark.parametrize("start,working_set_lines,ok", [
        (0, 64, True), (-64, 64, False), (TOP - 64 * 64, 64, True),
        (TOP - 64 * 64, 65, False)])
    def test_working_set_bounds(self, start, working_set_lines, ok):
        spec = PatternSpec(kind="random_working_set", start=start,
                           working_set_lines=working_set_lines)
        assert refused(spec, 10) != ok

    @pytest.mark.parametrize("length,ok", [(4, True), (5, True), (6, False)])
    def test_pc_delta_streams_take_turns(self, length, ok):
        # of 5 events the first stream takes 3 and the second 2; of 6, 3 each
        spec = PatternSpec(kind="pc_delta", streams=[
            {"pc": 4, "start": 128, "delta": -64},
            {"pc": 8, "start": TOP - 128, "delta": 64}])
        assert refused(spec, length) != ok

    def test_names_the_first_value_outside(self):
        with pytest.raises(ValueError) as err:
            check_address_range(PatternSpec(kind="sequential", start=-4096), 100)
        assert str(err.value) == ("pattern sequential reaches PC or ADDR -0x1000, "
                                  "outside [0, 2**64)")
