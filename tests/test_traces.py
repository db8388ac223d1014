import io

import pytest

from arsenal_sim.traces import (
    PatternSpec,
    TraceParseError,
    generate,
    parse_trace,
    phase_boundaries,
    write_trace,
)


class TestParseTrace:
    def test_single_record(self):
        events = list(parse_trace(["0x400 0x1000 R"]))
        assert len(events) == 1
        ev = events[0]
        assert ev.pc == 0x400
        assert ev.addr == 0x1000
        assert not ev.is_write
        assert ev.seq == 0

    def test_comments_and_blanks_skipped(self):
        events = list(parse_trace(["# header", "", "0x400 0x1000 W"]))
        assert len(events) == 1
        assert events[0].seq == 0
        assert events[0].is_write

    def test_seq_strictly_increments(self):
        lines = [f"0x400 0x{i * 64:x} R" for i in range(100)]
        events = list(parse_trace(lines))
        assert [e.seq for e in events] == list(range(100))

    def test_bad_hex_names_line(self):
        with pytest.raises(TraceParseError) as err:
            list(parse_trace(["0x400 zzz R"]))
        assert err.value.line_number == 1
        assert "line 1" in str(err.value)

    def test_bad_field_count_names_line(self):
        with pytest.raises(TraceParseError) as err:
            list(parse_trace(["# ok", "0x400 0x1000"]))
        assert err.value.line_number == 2

    def test_bad_op_rejected(self):
        with pytest.raises(TraceParseError):
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
        with pytest.raises(TraceParseError) as err:
            list(parse_trace(["0x400 0x1000 R", line]))
        assert err.value.line_number == 2

    def test_widest_fields_round_trip(self):
        top = (1 << 64) - 1
        events = list(parse_trace([f"0x{top:x} 0x{top:x} W"]))
        assert (events[0].pc, events[0].addr) == (top, top)
        buf = io.StringIO()
        write_trace(events, buf)
        buf.seek(0)
        assert list(parse_trace(buf)) == events

    def test_round_trip(self):
        spec = PatternSpec(kind="random_working_set", working_set_lines=128,
                           write_fraction=0.3, seed=9)
        events = list(generate(spec, 500))
        buf = io.StringIO()
        assert write_trace(events, buf) == 500
        buf.seek(0)
        assert list(parse_trace(buf)) == events


class TestGenerate:
    def test_sequential_lines(self):
        spec = PatternSpec(kind="sequential", start=0, seed=1)
        events = list(generate(spec, 4))
        assert [e.addr // 64 for e in events] == [0, 1, 2, 3]
        assert [e.seq for e in events] == [0, 1, 2, 3]

    def test_stride_lines(self):
        spec = PatternSpec(kind="stride", start=0, stride=0x100, seed=1)
        events = list(generate(spec, 3))
        assert [e.addr // 64 for e in events] == [0, 4, 8]
        assert len({e.pc for e in events}) == 1  # stride keeps one pc

    def test_determinism(self):
        spec = PatternSpec(kind="random_working_set", working_set_lines=512, seed=7)
        assert list(generate(spec, 1000)) == list(generate(spec, 1000))

    def test_seed_changes_stream(self):
        a = PatternSpec(kind="random_working_set", working_set_lines=512, seed=7)
        b = PatternSpec(kind="random_working_set", working_set_lines=512, seed=8)
        assert list(generate(a, 200)) != list(generate(b, 200))

    def test_pc_delta_round_robin(self):
        streams = [{"pc": 0x10, "start": 0, "delta": 64},
                   {"pc": 0x20, "start": 0x10000, "delta": 128}]
        spec = PatternSpec(kind="pc_delta", streams=streams, seed=1)
        events = list(generate(spec, 6))
        assert [e.pc for e in events] == [0x10, 0x20, 0x10, 0x20, 0x10, 0x20]
        assert [e.addr for e in events] == [0, 0x10000, 64, 0x10080, 128, 0x10100]

    def test_phased_concatenates(self):
        spec = PatternSpec(kind="phased", segments=[
            {"spec": {"kind": "sequential", "start": 0}, "length": 5},
            {"spec": {"kind": "stride", "start": 0x100000, "stride": 128}, "length": 5},
        ], seed=3)
        events = list(generate(spec, 10))
        assert [e.seq for e in events] == list(range(10))
        assert [e.addr for e in events[:5]] == [0, 64, 128, 192, 256]
        assert events[5].addr == 0x100000

    def test_phased_cycles_segments(self):
        spec = PatternSpec(kind="phased", segments=[
            {"spec": {"kind": "sequential", "start": 0}, "length": 3},
            {"spec": {"kind": "sequential", "start": 0x4000}, "length": 3},
        ], seed=3)
        events = list(generate(spec, 12))
        assert len(events) == 12
        assert events[6].addr == 0  # third segment restarts the first spec

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
        for ev in generate(spec, 2000):
            assert 0 <= ev.addr // 64 < 64

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
            PatternSpec(kind="zigzag").validate()

    def test_zero_stride(self):
        with pytest.raises(ValueError):
            PatternSpec(kind="stride", stride=0).validate()

    def test_pc_delta_requires_streams(self):
        with pytest.raises(ValueError):
            PatternSpec(kind="pc_delta").validate()

    def test_phased_requires_positive_lengths(self):
        with pytest.raises(ValueError):
            PatternSpec(kind="phased", segments=[
                {"spec": {"kind": "sequential"}, "length": 0}]).validate()

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
