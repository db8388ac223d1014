import collections
import copy
import json
import pathlib
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from arsenal_sim import harness
from arsenal_sim.bloom import FILTER_KINDS
from arsenal_sim.cli import _pattern_fields, main
from arsenal_sim.cache import SetAssociativeCache
from arsenal_sim.traces import PatternSpec, stream_trace_file


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def steps(monkeypatch):
    """The events simulated so far, counted by the cache accesses they make."""
    count = [0]
    access = SetAssociativeCache.access

    def counted(self, line, now):
        count[0] += 1
        return access(self, line, now)

    monkeypatch.setattr(SetAssociativeCache, "access", counted)
    return count


def run_config(tmp_path, verb, config):
    """Run ``verb`` on ``config``, written to a file, with its report sent
    to another file; the exit code and the report's path. gen takes no
    config file: it gets the config's pattern, length and seed as flags and
    writes its trace where the report would go."""
    out = tmp_path / "report.out"
    if verb == "gen":
        seed = ("--seed", str(config["seed"])) if "seed" in config else ()
        return run_cli("gen", "--pattern", json.dumps(config["pattern"]),
                       "--length", str(config["length"]), *seed,
                       "--out", str(out)), out
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return run_cli(verb, "--config", str(path), "--out", str(out)), out


def failed_before_running(capsys, steps, out, message):
    """One error line holding ``message``, no report file at ``out`` and no
    simulated event."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("arsenal-sim: error:")
    assert message in err[0]
    assert not out.exists()
    assert steps[0] == 0


def fails_before_running(tmp_path, capsys, steps, config, verb, message):
    """Run ``verb`` on ``config``: exit code 1, one error line holding
    ``message``, no report file and no simulated event."""
    code, out = run_config(tmp_path, verb, config)
    assert code == 1
    failed_before_running(capsys, steps, out, message)


SEQ = {"kind": "sequential"}
BOTH = ("run", "compare")


def phased(*segments):
    """A phased pattern whose first segment is sound, and longer than the
    slice a simulation runs at a time, so a check made only when the next
    segment is reached would show as simulated events."""
    return {"kind": "phased", "segments": [{"spec": SEQ, "length": 300}, *segments]}


LATENCIES_BELOW_ZERO = {"hit_latency": -1, "late_latency": 0, "miss_latency": 0}

# (verbs, top-level fields, trace fields, message). For run both sets of
# fields go into the one experiment; for compare the first goes into the
# config and the second into its only trace. A list is the whole config.
# gen reads only the pattern, length and seed of run's experiment.
MALFORMED = [
    (BOTH, [{"engine": "none"}], {}, "a configuration must be a JSON object"),
    (BOTH, {}, {"pattern": {"kind": "sequential", "start": "0"}},
     "pattern field start must be int, got '0'"),
    (BOTH, {}, {"pattern": {"kind": "stride", "stride": 1.5}},
     "pattern field stride must be int, got 1.5"),
    (BOTH, {}, {"pattern": 5}, "pattern must be an object"),
    (BOTH, {}, {"pattern": phased({"spec": 3, "length": 10})},
     "pattern must be an object"),
    (BOTH, {}, {"pattern": phased(7)}, "pattern segment must be an object"),
    (BOTH, {}, {"pattern": phased({"spec": SEQ, "lenght": 10})},
     "unknown pattern segment fields: ['lenght']"),
    (BOTH, {}, {"pattern": phased({"length": 10})},
     "missing pattern segment fields: ['spec']"),
    (BOTH, {}, {"pattern": phased({"spec": phased(), "length": 10})},
     "phased segments must be flat patterns"),
    (BOTH, {}, {"pattern": phased({"spec": {"kind": "stride", "stride": 0},
                                   "length": 10})}, "stride must be nonzero"),
    (BOTH, {}, {"pattern": {"kind": "pc_delta", "streams": [{"pc": 4, "start": 0}]}},
     "missing pattern stream fields: ['delta']"),
    (BOTH, {}, {"length": "10"}, "field length must be int, got '10'"),
    (BOTH, {}, {"length": 10.7}, "field length must be int, got 10.7"),
    (BOTH, {}, {"length": True}, "field length must be int, got True"),
    (BOTH, {}, {"label": 5}, "field label must be str, got 5"),
    (BOTH, {"seed": "7"}, {}, "field seed must be int, got '7'"),
    (BOTH, {"format": "xml"}, {}, "unknown format: 'xml'"),
    (BOTH, {"arsenal": {"selection_policy": "tc1"}}, {},
     "unknown arsenal fields: ['selection_policy']"),
    (BOTH, {"cache": []}, {}, "cache must be an object"),
    (BOTH, {"cache": 0}, {}, "cache must be an object"),
    (BOTH, {"cache": False}, {}, "cache must be an object"),
    (("run",), {}, {"trace_file": 5}, "field trace_file must be str, got 5"),
    (("compare",), {}, {"file": 5}, "field file must be str, got 5"),
    (("compare",), {}, {"lenght": 10}, "unknown compare trace fields: ['lenght']"),
    (("compare",), {"traces": [1]}, {}, "compare trace must be an object"),
    (("compare",), {"traces": {"seq": {"pattern": SEQ}}}, {},
     "compare field traces must be list"),
    (("compare",), {"traces": []}, {}, "compare requires at least one trace"),
    (("compare",), {"traces": [{"pattern": SEQ, "length": 500},
                               {"pattern": {"kind": "stride", "stride": 0}}]},
     {}, "stride must be nonzero"),
    (BOTH, {"arsenal": {"component_params": {}}}, {},
     "unknown arsenal fields: ['component_params']"),
    (BOTH, {"arsenal": None}, {}, "arsenal must be an object"),
    (BOTH, {"component_params": None}, {}, "component_params must be an object"),
    (BOTH, {}, {"pattern": {"kind": "sequential", "start": -4096}},
     "pattern sequential reaches PC or ADDR -0x1000, outside [0, 2**64)"),
    (BOTH, {}, {"pattern": {"kind": "stride", "pc": -8}},
     "reaches PC or ADDR -0x8, outside"),
    (BOTH, {}, {"pattern": {"kind": "stride", "start": 64 * 100, "stride": -64}},
     "pattern stride reaches PC or ADDR -0x4ac0, outside"),
    (BOTH, {}, {"pattern": {"kind": "sequential", "start": 2 ** 64 - 4096}},
     "reaches PC or ADDR 0x100000000000053c0, outside"),
    (BOTH, {}, {"pattern": {"kind": "pc_delta", "streams": [
        {"pc": 4, "start": 0, "delta": 64}, {"pc": -4, "start": 0, "delta": 64}]}},
     "pattern pc_delta reaches PC or ADDR -0x4, outside"),
    (BOTH, {}, {"pattern": {"kind": "pc_delta", "streams": [
        {"pc": 4, "start": 64 * 150, "delta": -64}, {"pc": 8, "start": 0, "delta": 64}]}},
     "pattern pc_delta reaches PC or ADDR -0xc40, outside"),
    (BOTH, {}, {"pattern": phased({"spec": {"kind": "stride", "start": -64},
                                   "length": 10})},
     "pattern stride reaches PC or ADDR -0x40, outside"),
    (BOTH, {}, {"pattern": {"kind": "sequential", "line_size": 0}},
     "line_size must be >= 1"),
    (BOTH, {}, {"pattern": {"kind": "sequential", "line_size": -64}},
     "line_size must be >= 1"),
    (BOTH, {}, {"pattern": {"kind": "random_working_set", "line_size": 0}},
     "line_size must be >= 1"),
    (BOTH, {}, {"pattern": {"kind": "random_working_set", "line_size": -1}},
     "line_size must be >= 1"),
    (BOTH, {"arsenal": {"score_inc": -5}}, {},
     "arsenal field score_inc must be >= 0, got -5"),
    (BOTH, {"arsenal": {"score_dec": -3, "eval_cnt": 4000}}, {},
     "arsenal field score_dec must be >= 0, got -3"),
    (BOTH, {"component_params": {"next_line": {"degree_divisor": 0}}}, {},
     "degree_divisor must be >= 1"),
    (BOTH, {"component_params": {"spp": {"pt_entries": 0}}}, {},
     "pt_entries must be >= 1"),
    (BOTH, {"component_params": {"spp": {"page_lines": 0}}}, {},
     "page_lines must be >= 1"),
    (BOTH, {"component_params": {"spp": {"ghr_entries": 0}}}, {},
     "ghr_entries must be >= 1"),
    (BOTH, {"component_params": {"spp": {"pt_slots": 0}}}, {},
     "pt_slots must be >= 1"),
    (("run",), {"engine": "arsenal-tc1",
                "component_params": {"mlop": {"zone_lines": 0}}}, {},
     "zone_lines must be >= 1"),
    (("compare",), {"policy": "tc1",
                    "component_params": {"mlop": {"zone_lines": 0}}}, {},
     "zone_lines must be >= 1"),
    (("run",), {"engine": "arsenal-tc1",
                "component_params": {"mlop": {"levels": -1}}}, {},
     "levels must be >= 1"),
    (("run",), {"engine": "mlop", "component_params": {"mlop": {"levels": 0}}}, {},
     "levels must be >= 1"),
    (("compare",), {"policy": "tc1",
                    "component_params": {"mlop": {"levels": -1}}}, {},
     "levels must be >= 1"),
    (("run",), {"engine": "mlop", "component_params": {"mlop": {"max_offset": -1}}},
     {}, "max_offset must be >= 1"),
    (("compare",), {"policy": "tc1",
                    "component_params": {"mlop": {"max_offset": 0}}}, {},
     "max_offset must be >= 1"),
    (("run",), {"engine": "arsenal-tc1",
                "component_params": {"mlop": {"round_paes": 0}}}, {},
     "round_paes must be >= 1"),
    (("compare",), {"policy": "tc1",
                    "component_params": {"mlop": {"round_paes": -5}}}, {},
     "round_paes must be >= 1"),
    (BOTH, {"component_params": {"ip_stride": {"degree": 0}}}, {},
     "degree must be >= 1"),
    (("run",), {"engine": "ip-stride",
                "component_params": {"ip_stride": {"degree": -1}}}, {},
     "degree must be >= 1"),
    (BOTH, {"component_params": {"spp": {"lookahead_depth": 0}}}, {},
     "lookahead_depth must be >= 1"),
    (("run",), {"engine": "spp",
                "component_params": {"spp": {"lookahead_depth": -2}}}, {},
     "lookahead_depth must be >= 1"),
    (("run",), {"engine": "spp",
                "component_params": {"spp": {"confidence_threshold": 1.5}}}, {},
     "confidence_threshold must be <= 1"),
    (("run",), {"component_params": {"spp": {"confidence_threshold": 2}}}, {},
     "confidence_threshold must be <= 1"),
    (("compare",), {"component_params": {"spp": {"confidence_threshold": 1.01}}},
     {}, "confidence_threshold must be <= 1"),
    (("run",), {"engine": "spp",
                "component_params": {"spp": {"confidence_threshold": float("nan")}}},
     {}, "component_params.spp field confidence_threshold must be finite, got nan"),
    (BOTH, {}, {"pattern": {"kind": "random_working_set", "write_fraction": 1.5}},
     "write_fraction must be in [0, 1]"),
    (BOTH, {}, {"pattern": {"kind": "random_working_set", "write_fraction": -0.5}},
     "write_fraction must be in [0, 1]"),
    (BOTH, {}, {"pattern": {"kind": "random_working_set",
                            "write_fraction": float("nan")}},
     "pattern field write_fraction must be finite, got nan"),
    (BOTH, {}, {"pattern": phased({"spec": {"kind": "random_working_set",
                                            "write_fraction": float("inf")},
                                   "length": 10})},
     "pattern field write_fraction must be finite, got inf"),
    (BOTH, {"arsenal": {"bf_fpp": float("inf")}}, {},
     "arsenal field bf_fpp must be finite, got inf"),
    (("run",), {"engine": "spp",
                "component_params": {"spp": {"confidence_threshold": float("-inf")}}},
     {}, "component_params.spp field confidence_threshold must be finite, got -inf"),
    # an int passes for a float, and no int is infinite, however large
    (BOTH, {"arsenal": {"bf_fpp": 10 ** 400}}, {},
     "arsenal field bf_fpp must be in (0, 1), got 1000"),
    # the latencies' order holds, but a negative hit latency let the AMAT be 0
    (("run",), {"engine": "none", "cache": LATENCIES_BELOW_ZERO}, {},
     "cache field hit_latency must be >= 0, got -1"),
    (("compare",), {"cache": LATENCIES_BELOW_ZERO}, {},
     "cache field hit_latency must be >= 0, got -1"),
    # each of these sets one PAE's work or an allocation
    (("run",), {"engine": "arsenal-tc1",
                "component_params": {"mlop": {"levels": 2 ** 64}}}, {},
     f"component_params.mlop field levels must be <= 64, got {2 ** 64}"),
    (("compare",), {"policy": "tc1",
                    "component_params": {"mlop": {"levels": 2 ** 64}}}, {},
     f"component_params.mlop field levels must be <= 64, got {2 ** 64}"),
    (BOTH, {"component_params": {"ip_stride": {"degree": 2 ** 64}}}, {},
     f"component_params.ip_stride field degree must be <= 64, got {2 ** 64}"),
    (BOTH, {"component_params": {"next_line": {"degree": 2 ** 64}}}, {},
     f"component_params.next_line field degree must be <= 64, got {2 ** 64}"),
    (BOTH, {"component_params": {"next_line": {"max_degree": 2 ** 64}}}, {},
     f"component_params.next_line field max_degree must be <= 64, got {2 ** 64}"),
    (BOTH, {"component_params": {"spp": {"lookahead_depth": 2 ** 64}}}, {},
     f"component_params.spp field lookahead_depth must be <= 64, got {2 ** 64}"),
    # numbers beyond float range: an AMAT and the overhead report are floats,
    # and the report sizes a Bloom filter whatever the filter kind
    (BOTH, {"cache": {"miss_latency": 10 ** 400}}, {},
     f"cache field miss_latency must be <= {2 ** 64}, got 1000"),
    *[(BOTH, {"arsenal": {field: value, "filter_kind": kind}}, {},
       "sizes a bit table beyond float range")
      for field, value in (("bf_est_cap", 10 ** 400), ("bf_fpp", 5e-324))
      for kind in FILTER_KINDS],
    # the cache sets a component's max_line
    (("run",), {"engine": "next-line",
                "component_params": {"next_line": {"max_line": 5}}}, {},
     "unknown component_params.next_line fields: ['max_line']"),
    (("compare",), {"component_params": {"spp": {"max_line": 5}}}, {},
     "unknown component_params.spp fields: ['max_line']"),
    # a power of two, but a line shift beyond the 64-bit address space
    (BOTH, {"cache": {"line_size": 2 ** 100}}, {},
     f"cache field line_size must be <= {2 ** 64}, got {2 ** 100}"),
    # a negative lead releases a prediction after its use, and a negative
    # expiry drops every prediction before it can be verified
    (("run",), {"engine": "tskid", "component_params": {"tskid": {"lead": -50}}},
     {}, "component_params.tskid field lead must be >= 0, got -50"),
    (("compare",), {"policy": "tc1",
                    "component_params": {"tskid": {"lead": -1}}}, {},
     "component_params.tskid field lead must be >= 0, got -1"),
    (("run",), {"engine": "arsenal-tc1",
                "component_params": {"tskid": {"verification_expiry": -1}}}, {},
     "component_params.tskid field verification_expiry must be >= 0, got -1"),
    (("compare",), {"policy": "tc1",
                    "component_params": {"tskid": {"verification_expiry": -8}}},
     {}, "component_params.tskid field verification_expiry must be >= 0, got -8"),
    # a policy names a roster; run takes it from the engine name, compare here
    (("compare",), {"policy": "tc3"}, {}, "unknown selection policy: 'tc3'"),
    # a pool of 0 PCs draws from one PC, as a pool of 1 does
    (BOTH, {}, {"pattern": {"kind": "sequential", "pc_pool": -3}},
     "pattern field pc_pool must be >= 0, got -3"),
    (BOTH, {}, {"pattern": phased({"spec": {"kind": "random_working_set",
                                            "pc_pool": -1}, "length": 10})},
     "pattern field pc_pool must be >= 0, got -1"),
    # tskid runs the ip_stride table at degree 1, and only at degree 1
    (("run",), {"engine": "tskid", "component_params": {"tskid": {"degree": 2}}},
     {}, "unknown component_params.tskid fields: ['degree']"),
    (("compare",), {"policy": "tc1",
                    "component_params": {"tskid": {"degree": 1}}}, {},
     "unknown component_params.tskid fields: ['degree']"),
    # a random draw seeds from a seed's magnitude: -5 would draw 5's trace
    (("run", "gen"), {"seed": -5}, {}, "experiment field seed must be >= 0, got -5"),
    (("compare",), {"seed": -5}, {}, "compare field seed must be >= 0, got -5"),
    (("run", "compare", "gen"), {},
     {"pattern": {"kind": "random_working_set", "seed": -5}},
     "pattern field seed must be >= 0, got -5"),
    # each phased segment draws from the phased pattern's seed
    (("run", "compare", "gen"), {},
     {"pattern": phased({"spec": {"kind": "stride", "seed": 5}, "length": 10})},
     "a segment's seed must be 0, got 5"),
    (BOTH, {"component_params": {"next_line": {"degree": 6, "max_degree": 5}}}, {},
     "component_params.next_line field degree must be <= max_degree, got 6 > 5"),
    # a trace file is read whole
    (("run",), {}, {"pattern": None, "trace_file": "t.trace", "length": 5},
     "length has no effect beside a trace file"),
    (BOTH, {}, {"pattern": {"kind": "phased", "segments": []}},
     "phased requires at least one segment"),
    # a rule between fields holds whether or not the engine builds next_line
    (("run",), {"engine": "arsenal-tc1",
                "component_params": {"next_line": {"degree": 5, "max_degree": 3}}},
     {}, "component_params.next_line field degree must be <= max_degree, got 5 > 3"),
    (("compare",), {"policy": "tc1",
                    "component_params": {"next_line": {"degree": 5, "max_degree": 3}}},
     {}, "component_params.next_line field degree must be <= max_degree, got 5 > 3"),
]


def malformed_config(verb, top, trace):
    if isinstance(top, list):
        return top
    trace = {"pattern": SEQ, "length": 400, **trace}
    if verb in ("run", "gen"):
        return {"engine": "arsenal-tc2", **trace, **top}
    return {"policy": "tc2", "traces": [trace], **top}


@pytest.mark.parametrize("verb,top,trace,message", [
    (verb, top, trace, message)
    for verbs, top, trace, message in MALFORMED for verb in verbs])
def test_malformed_config_fails_before_running(tmp_path, capsys, steps, verb,
                                               top, trace, message):
    fails_before_running(tmp_path, capsys, steps,
                         malformed_config(verb, top, trace), verb, message)


# Valid inputs, each small and touching every config object its verb reads.
# The fuzz property below changes one field of one of them.
FUZZ_CACHE = {"sets": 16, "ways": 2, "line_size": 64, "hit_latency": 4,
              "late_latency": 100, "miss_latency": 200, "prefetch_fill_delay": 8,
              "prefetch_queue_capacity": 8}
FUZZ_ARSENAL = {"eval_cnt": 32, "score_inc": 4, "score_dec": 1, "min_score": 0,
                "bf_fpp": 0.05, "bf_est_cap": 200, "filter_kind": "paired"}
FUZZ_PATTERN = {"kind": "phased", "seed": 3, "segments": [
    {"spec": {"kind": "stride", "stride": 128, "pc": 0x400}, "length": 100},
    {"spec": {"kind": "pc_delta", "streams": [
        {"pc": 0x500, "start": 1 << 20, "delta": 64}]}, "length": 100},
    {"spec": {"kind": "random_working_set", "working_set_lines": 64,
              "write_fraction": 0.25, "line_size": 64, "pc_pool": 4},
     "length": 100}]}
VALID_INPUTS = {
    "run": {"engine": "arsenal-tc2", "pattern": FUZZ_PATTERN, "length": 300,
            "seed": 5, "label": "fuzz", "cache": FUZZ_CACHE, "arsenal": FUZZ_ARSENAL,
            "component_params": {
                "spp": {"lookahead_depth": 4, "confidence_threshold": 0.25,
                        "pt_slots": 4, "page_lines": 64},
                "ip_stride": {"degree": 4, "table_size": 16},
                "next_line": {"degree": 1, "max_degree": 5, "degree_divisor": 256}}},
    "compare": {"policy": "tc1", "seed": 2, "cache": FUZZ_CACHE,
                "arsenal": FUZZ_ARSENAL,
                "traces": [{"label": "seq", "pattern": {"kind": "sequential"},
                            "length": 200}],
                "component_params": {
                    "mlop": {"levels": 4, "max_offset": 8, "round_paes": 32,
                             "zones": 16, "zone_lines": 64, "score_threshold": 4},
                    "tskid": {"table_size": 16, "lead": 2,
                              "verification_expiry": 256}}},
    "gen": FUZZ_PATTERN,   # gen's --pattern, as inline JSON
}
WRONG_TYPE, EMPTY, UNKNOWN_KEY = "a wrong type", "an empty container", "an unknown key"
MUTATIONS = [WRONG_TYPE, None, 0, -1, float("nan"), 2 ** 64, 10 ** 400, 5e-324,
             EMPTY, UNKNOWN_KEY]


def value_paths(value, path=()):
    """The path to ``value`` and to every value inside it, as key tuples."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from value_paths(item, (*path, key))


def path_value(value, path):
    for step in path:
        value = value[step]
    return value


def mutated(config, path, mutation):
    """A copy of ``config`` with one field changed: the value at ``path``
    replaced, or, for UNKNOWN_KEY, the object at ``path`` given one more key."""
    root = {"config": copy.deepcopy(config)}
    holder, key = root, "config"
    for step in path:
        holder, key = holder[key], step
    old = holder[key]
    if mutation == UNKNOWN_KEY:
        old["bogus"] = 1
    elif mutation == WRONG_TYPE:
        holder[key] = 5 if isinstance(old, str) else "x"
    elif mutation == EMPTY:
        holder[key] = [] if isinstance(old, list) else {}
    else:
        holder[key] = mutation
    return root["config"]


@pytest.mark.parametrize("verb", list(VALID_INPUTS))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_mutated_field_runs_or_fails_in_one_line(capsys, steps, verb, data):
    """Any one field set to a wrong type, null, 0, a negative value, NaN,
    2**64, 10**400 or 5e-324 (a number beyond float range, or one whose
    reciprocal is) or an empty container, or an unknown key added, gives a
    parseable result (exit 0) or one error line before any simulated event
    (exit 1)."""
    valid = VALID_INPUTS[verb]
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    paths = [path for path in value_paths(valid)
             if mutation != UNKNOWN_KEY or isinstance(path_value(valid, path), dict)]
    path = data.draw(st.sampled_from(paths), label="path")
    # a longer trace is valid but slow: a length only moves down
    assume(not (path and path[-1] == "length" and mutation in (2 ** 64, 10 ** 400)))
    config = mutated(valid, path, mutation)
    capsys.readouterr()
    steps[0] = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        if verb == "gen":
            out = tmp / "trace.out"
            code = run_cli("gen", "--pattern", json.dumps(config), "--length", "300",
                           "--out", str(out))
        else:
            code, out = run_config(tmp, verb, config)
        if code == 0:
            if verb == "gen":
                assert len(list(stream_trace_file(str(out)))) == 300
            else:
                assert json.loads(out.read_text())["schema"].startswith("arsenal-sim-")
        else:
            assert code == 1
            failed_before_running(capsys, steps, out, "")


class TestGen:
    @pytest.mark.parametrize("pattern,message", [
        ("random_working_set:write_fraction=1.5", "write_fraction must be in [0, 1]"),
        ("random_working_set:write_fraction=nan",
         "pattern field write_fraction must be finite, got nan"),
        # a shorthand value that is no number stays a string
        ("sequential:pc_pool=abc", "pattern field pc_pool must be int, got 'abc'"),
    ])
    def test_bad_pattern_is_one_error_line_and_no_file(self, tmp_path, capsys,
                                                       pattern, message):
        out = tmp_path / "bad.trace"
        assert run_cli("gen", "--pattern", pattern, "--length", "5",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("arsenal-sim: error:")
        assert message in err[0]
        assert not out.exists()

    def test_writes_parseable_trace(self, tmp_path):
        out = tmp_path / "seq.trace"
        assert run_cli("gen", "--pattern", "sequential", "--length", "100",
                       "--seed", "3", "--out", str(out)) == 0
        events = list(stream_trace_file(str(out)))
        assert len(events) == 100
        assert [addr for _, addr, _, _ in events[:3]] == [0, 64, 128]

    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        for path in (a, b):
            run_cli("gen", "--pattern", "random_working_set:working_set_lines=256",
                    "--length", "500", "--seed", "9", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_writes_the_events_run_simulates(self, tmp_path):
        # the pattern's own seed wins over --seed, as it does for run
        fields = {"kind": "random_working_set", "seed": 5, "working_set_lines": 64}
        out = tmp_path / "rws.trace"
        assert run_cli("gen", "--pattern", json.dumps(fields), "--length", "50",
                       "--seed", "7", "--out", str(out)) == 0
        cfg = harness.experiment_from_dict({"pattern": fields, "length": 50,
                                            "seed": 7})
        assert list(stream_trace_file(str(out))) == list(cfg.events())

    @pytest.mark.parametrize("pattern,length,message", [
        ("stride:stride=-64", "3", "pattern stride reaches PC or ADDR -0x80, outside"),
        ("sequential:start=-1", "1", "pattern sequential reaches PC or ADDR -0x1"),
        ("sequential", "0", "length must be >= 1"),
        ("sequential", "-4", "length must be >= 1"),
    ])
    def test_refused_before_writing(self, tmp_path, capsys, pattern, length,
                                    message):
        out = tmp_path / "t.trace"
        assert run_cli("gen", "--pattern", pattern, "--length", length,
                       "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("arsenal-sim: error:")
        assert message in err[0]
        assert not out.exists()


class TestRun:
    def test_pattern_run_to_json(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("run", "--pattern", "sequential", "--engine", "next-line",
                       "--length", "5000", "--seed", "2", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "arsenal-sim-report-v1"
        assert report["experiment"]["engine"] == "next-line"
        assert report["demand"]["total"] == 5000

    def test_trace_file_run(self, tmp_path):
        trace = tmp_path / "t.trace"
        run_cli("gen", "--pattern", "stride:stride=128", "--length", "200",
                "--out", str(trace))
        out = tmp_path / "r.json"
        assert run_cli("run", "--trace", str(trace), "--engine", "none",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["demand"]["total"] == 200

    def test_config_file_run_with_flag_overrides(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "engine": "none",
            "pattern": {"kind": "sequential", "seed": 1},
            "length": 1000,
            "cache": {"sets": 32},
        }))
        out = tmp_path / "r.json"
        assert run_cli("run", "--config", str(cfg), "--engine", "arsenal-tc2",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["experiment"]["engine"] == "arsenal-tc2"
        assert report["experiment"]["cache"]["sets"] == 32

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli("run", "--pattern", "sequential", "--engine", "none",
                       "--length", "100", "--format", "csv",
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("label,engine,trace,seed,total_accesses")
        assert len(lines) == 2

    def test_sinks_from_config_file(self, tmp_path):
        out = tmp_path / "from_config.csv"
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "engine": "none",
            "pattern": {"kind": "sequential", "seed": 1},
            "length": 50,
            "out": str(out),
            "format": "csv",
        }))
        assert run_cli("run", "--config", str(cfg)) == 0
        assert out.read_text().splitlines()[0].startswith("label,engine")

    def test_config_typo_fails_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "engine": "none",
            "pattern": {"kind": "sequential"},
            "legnth": 50,
        }))
        assert run_cli("run", "--config", str(cfg)) == 1
        assert "unknown experiment fields" in capsys.readouterr().err

    @pytest.mark.parametrize("fields,message", [
        ({"cache": {"sets": "64"}}, "cache field sets must be int, got '64'"),
        ({"arsenal": {"eval_cnt": 64, "evalcnt": 64}},
         "unknown arsenal fields: ['evalcnt']"),
        ({"component_params": {"spp": {"depth": 3}}},
         "unknown component_params.spp fields: ['depth']"),
        ({"component_params": {"ip-stride": {"degree": 2}}},
         "unknown component_params fields: ['ip-stride']"),
        ({"arsenal": {"eval_cnt": "512"}},
         "arsenal field eval_cnt must be int, got '512'"),
        ({"arsenal": {"bf_fpp": "0.01"}},
         "arsenal field bf_fpp must be float, got '0.01'"),
        ({"component_params": {"mlop": {"zones": "64"}}},
         "component_params.mlop field zones must be int, got '64'"),
        ({"component_params": {"tskid": {"lead": "4"}}},
         "component_params.tskid field lead must be int, got '4'"),
        ({"arsenal": {"eval_cnt": True}},
         "arsenal field eval_cnt must be int, got True"),
        ({"arsenal": [["eval_cnt", 512]]}, "arsenal must be an object"),
        ({"arsenal": {"component_params": {"tskid": {"lead": "4"}}}},
         "unknown arsenal fields: ['component_params']"),
    ])
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, steps,
                                                fields, message):
        fails_before_running(tmp_path, capsys, steps,
                             malformed_config("run", fields, {}), "run", message)

    def test_int_accepted_for_float_field(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "engine": "spp",
            "pattern": {"kind": "sequential"},
            "length": 50,
            "component_params": {"spp": {"confidence_threshold": 1}},
        }))
        assert run_cli("run", "--config", str(cfg), "--out",
                       str(tmp_path / "r.json")) == 0

    def test_standalone_next_line_below_default_degree(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "engine": "next-line",
            "pattern": {"kind": "sequential"},
            "length": 500,
            "component_params": {"next_line": {"max_degree": 3}},
        }))
        out = tmp_path / "r.json"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["experiment"]["engine_detail"]["degree"] == 3

    def test_malformed_trace_fails_nonzero(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_text("0x400 nonsense R\n")
        assert run_cli("run", "--trace", str(trace), "--engine", "none") == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["-0x400 -0x40 R",
                                      "0x400 0x1ffffffffffffffffff R"])
    def test_out_of_range_trace_field_is_one_error_line(self, tmp_path, capsys,
                                                        line):
        trace = tmp_path / "wide.trace"
        trace.write_text(line + "\n")
        assert run_cli("run", "--trace", str(trace), "--engine", "none") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("arsenal-sim: error: line 1: ")

    def test_missing_trace_file_fails_nonzero(self):
        assert run_cli("run", "--trace", "/no/such/file", "--engine", "none") == 1

    def test_unreadable_trace_file_fails_before_building_an_engine(
            self, tmp_path, capsys, monkeypatch):
        built = []
        simulation = harness.Simulation
        monkeypatch.setattr(harness, "Simulation",
                            lambda *a: built.append(a) or simulation(*a))
        missing = tmp_path / "missing.trace"
        assert run_cli("run", "--trace", str(missing), "--engine", "arsenal-tc2") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"arsenal-sim: error: [Errno 2] No such file or directory: {str(missing)!r}"]
        assert built == []

    def test_no_trace_source_fails_nonzero(self):
        assert run_cli("run", "--engine", "none") == 1

    def test_trace_and_pattern_flags_are_one_error_line(self, tmp_path, capsys,
                                                        steps):
        trace = tmp_path / "t.trace"
        run_cli("gen", "--pattern", "stride", "--length", "100", "--out", str(trace))
        out = tmp_path / "report.json"
        assert run_cli("run", "--trace", str(trace), "--pattern", "stride",
                       "--length", "100", "--out", str(out)) == 1
        failed_before_running(capsys, steps, out, "--trace and --pattern")

    def test_flag_replaces_the_other_source_of_the_config(self, tmp_path):
        trace = tmp_path / "t.trace"
        run_cli("gen", "--pattern", "stride", "--length", "100", "--out", str(trace))
        config = tmp_path / "config.json"
        out = tmp_path / "report.json"
        for source, flags, total in (
                ({"pattern": SEQ, "length": 50}, ["--trace", str(trace)], 100),
                ({"trace_file": str(trace)}, ["--pattern", "stride", "--length", "50"],
                 50)):
            config.write_text(json.dumps(source))
            assert run_cli("run", "--config", str(config), *flags,
                           "--out", str(out)) == 0
            assert json.loads(out.read_text())["demand"]["total"] == total

    def test_trace_flag_takes_no_length_flag(self, tmp_path, capsys, steps):
        # --trace drops the length of the pattern it replaces, not --length's
        trace = tmp_path / "t.trace"
        run_cli("gen", "--pattern", "stride", "--length", "100", "--out", str(trace))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pattern": SEQ, "length": 50}))
        out = tmp_path / "report.json"
        assert run_cli("run", "--config", str(config), "--trace", str(trace),
                       "--length", "50", "--out", str(out)) == 1
        failed_before_running(capsys, steps, out,
                              "length has no effect beside a trace file")

    def test_missing_out_directory_fails_before_running(self, tmp_path, capsys,
                                                        steps):
        out = tmp_path / "missing" / "report.json"
        assert run_cli("run", "--pattern", "sequential", "--length", "2000",
                       "--engine", "arsenal-tc2", "--out", str(out)) == 1
        failed_before_running(capsys, steps, out,
                              f"[Errno 2] No such file or directory: {str(out)!r}")

    def test_out_directory_fails_before_running(self, tmp_path, capsys, steps):
        # failed_before_running would find the directory at ``out``; it
        # must stay empty instead
        out = tmp_path / "reports"
        out.mkdir()
        assert run_cli("run", "--pattern", "sequential", "--length", "2000",
                       "--engine", "arsenal-tc2", "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"arsenal-sim: error: [Errno 21] Is a directory: {str(out)!r}"]
        assert list(out.iterdir()) == []
        assert steps[0] == 0

    def test_empty_out_path_fails_before_running(self, capsys, steps):
        # "" names no file, and no folder to hold one
        assert run_cli("run", "--pattern", "sequential", "--length", "2000",
                       "--engine", "next-line", "--out", "") == 1
        assert capsys.readouterr().err.splitlines() == [
            "arsenal-sim: error: [Errno 2] No such file or directory: ''"]
        assert steps[0] == 0


class TestCompare:
    @pytest.fixture
    def compare_config(self, tmp_path):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({
            "policy": "tc2",
            "seed": 4,
            "traces": [
                {"label": "seq",
                 "pattern": {"kind": "sequential", "seed": 4}, "length": 3000},
                {"label": "ws",
                 "pattern": {"kind": "random_working_set",
                             "working_set_lines": 1024, "seed": 4},
                 "length": 3000},
            ],
        }))
        return cfg

    def test_compare_json(self, tmp_path, compare_config):
        out = tmp_path / "cmp_out.json"
        assert run_cli("compare", "--config", str(compare_config),
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "arsenal-sim-compare-v1"
        assert [t["label"] for t in report["per_trace"]] == ["seq", "ws"]

    def test_compare_csv(self, tmp_path, compare_config):
        out = tmp_path / "cmp_out.csv"
        assert run_cli("compare", "--config", str(compare_config),
                       "--format", "csv", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trace,engine,amat,speedup_proxy,coverage,accuracy"
        assert len(lines) == 1 + 2 * 5

    def test_compare_missing_config_fails(self):
        assert run_cli("compare", "--config", "/no/such/cmp.json") == 1

    def test_every_trace_file_is_opened_before_any_simulation(self, tmp_path, capsys,
                                                              monkeypatch):
        trace = tmp_path / "t.trace"
        run_cli("gen", "--pattern", "stride", "--length", "300", "--out", str(trace))
        missing = tmp_path / "missing.trace"
        calls = []
        run_engines = harness.run_engines
        monkeypatch.setattr(harness, "run_engines",
                            lambda *a: calls.append(a) or run_engines(*a))
        code, out = run_config(tmp_path, "compare", {"policy": "tc1", "traces": [
            {"label": "there", "file": str(trace)},
            {"label": "missing", "file": str(missing)}]})
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"arsenal-sim: error: [Errno 2] No such file or directory: "
                       f"{str(missing)!r}"]
        assert calls == []
        assert not out.exists()

    def test_file_trace_takes_no_length(self, tmp_path, capsys, steps):
        trace = tmp_path / "t.trace"
        run_cli("gen", "--pattern", "stride", "--length", "300", "--out", str(trace))
        fails_before_running(tmp_path, capsys, steps, {"policy": "tc1", "traces": [
            {"label": "seq", "pattern": SEQ, "length": 300},
            {"label": "file", "file": str(trace), "length": 100}]}, "compare",
            "length has no effect beside a trace file")

    def test_missing_out_directory_fails_before_running(self, tmp_path, capsys,
                                                        steps):
        config = tmp_path / "cmp.json"
        config.write_text(json.dumps({"policy": "tc1", "traces": [
            {"pattern": SEQ, "length": 2000}]}))
        out = tmp_path / "missing" / "report.json"
        assert run_cli("compare", "--config", str(config), "--out", str(out)) == 1
        failed_before_running(capsys, steps, out,
                              f"[Errno 2] No such file or directory: {str(out)!r}")

    def test_out_directory_fails_before_running(self, tmp_path, capsys, steps):
        config = tmp_path / "cmp.json"
        config.write_text(json.dumps({"policy": "tc1", "traces": [
            {"pattern": SEQ, "length": 2000}]}))
        out = tmp_path / "reports"
        out.mkdir()
        assert run_cli("compare", "--config", str(config), "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"arsenal-sim: error: [Errno 21] Is a directory: {str(out)!r}"]
        assert list(out.iterdir()) == []
        assert steps[0] == 0

    def test_empty_out_path_fails_before_running(self, tmp_path, capsys, steps):
        config = tmp_path / "cmp.json"
        config.write_text(json.dumps({"policy": "tc1", "out": "", "traces": [
            {"pattern": SEQ, "length": 500}]}))
        assert run_cli("compare", "--config", str(config)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "arsenal-sim: error: [Errno 2] No such file or directory: ''"]
        assert steps[0] == 0


@pytest.fixture
def checks(monkeypatch):
    """check_fields calls so far, counted by the object each one checks."""
    counts = collections.Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("arsenal_sim")]
    check_fields = sys.modules["arsenal_sim.traces"].check_fields

    def counted(what, *args, **kwargs):
        counts[what] += 1
        return check_fields(what, *args, **kwargs)

    for module in modules:
        if getattr(module, "check_fields", None) is check_fields:
            monkeypatch.setattr(module, "check_fields", counted)
    return counts


class TestChecksRunOnce:
    """Each config object is checked once, when it is built."""

    def test_phased_run(self, tmp_path, checks):
        pattern = {"kind": "phased", "segments": [
            {"spec": {"kind": "stride", "stride": 128}, "length": 300},
            {"spec": SEQ, "length": 300}]}
        out = tmp_path / "report.json"
        assert run_cli("run", "--pattern", json.dumps(pattern), "--engine",
                       "arsenal-tc2", "--length", "1200", "--seed", "3",
                       "--out", str(out)) == 0
        # the pattern once, when built, and so each segment's
        assert (checks["cache"], checks["experiment"]) == (1, 1)
        assert (checks["pattern"], checks["pattern segment"]) == (3, 2)
        assert checks["arsenal"] == 1

    def test_compare_of_two_pattern_traces(self, tmp_path, checks):
        code, _ = run_config(tmp_path, "compare", {"policy": "tc1", "seed": 2, "traces": [
            {"label": "seq", "pattern": SEQ, "length": 300},
            {"label": "hot", "pattern": {"kind": "random_working_set",
                                         "working_set_lines": 64}, "length": 300}]})
        assert code == 0
        assert (checks["cache"], checks["compare trace"], checks["pattern"]) == (1, 2, 2)
        assert checks["arsenal"] == 2  # once per trace's experiment


class TestStreamedTraceError:
    """A trace file is read during the pass, so its errors surface there."""

    @pytest.fixture
    def late_error_trace(self, tmp_path):
        path = tmp_path / "late.trace"
        lines = [f"0x400 0x{64 * i:x} R" for i in range(700)]
        path.write_text("\n".join([*lines, "0x400 nonsense R"]) + "\n")
        return path

    @pytest.mark.parametrize("verb", ["run", "compare"])
    def test_one_error_line_and_no_report(self, tmp_path, capsys,
                                          late_error_trace, verb):
        out = tmp_path / "report.json"
        if verb == "run":
            argv = ["run", "--trace", str(late_error_trace),
                    "--engine", "arsenal-tc2"]
        else:
            cfg = tmp_path / "cmp.json"
            cfg.write_text(json.dumps({"policy": "tc1", "traces": [
                {"label": "seq", "pattern": {"kind": "sequential"},
                 "length": 300},
                {"label": "late", "file": str(late_error_trace)},
            ]}))
            argv = ["compare", "--config", str(cfg)]
        assert run_cli(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("arsenal-sim: error: line 701: ")
        assert not out.exists()

    @staticmethod
    def fails_in_one_line(tmp_path, capsys, verb, trace, message):
        """``verb`` on the trace file ``trace``: exit code 1, one error line
        starting with ``message``, and no report."""
        out = tmp_path / "report.json"
        if verb == "run":
            argv = ["run", "--trace", str(trace), "--engine", "arsenal-tc2"]
        else:
            cfg = tmp_path / "cmp.json"
            cfg.write_text(json.dumps({"policy": "tc1", "traces": [
                {"label": "file", "file": str(trace)}]}))
            argv = ["compare", "--config", str(cfg)]
        assert run_cli(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"arsenal-sim: error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "compare"])
    def test_a_byte_not_utf8_is_refused_by_line_number(self, tmp_path, capsys,
                                                       verb):
        path = tmp_path / "bytes.trace"
        path.write_bytes(b"# pc addr op\n0x400 0x40 R\n0x400 0x80\xff R\n")
        self.fails_in_one_line(tmp_path, capsys, verb, path,
                               "line 3: bad hex field in '0x400 0x80\\udcff R'")

    @pytest.mark.parametrize("verb", ["run", "compare"])
    def test_comments_only_is_no_trace(self, tmp_path, capsys, verb):
        path = tmp_path / "comments.trace"
        path.write_text("# pc addr op\n\n# nothing else\n")
        self.fails_in_one_line(tmp_path, capsys, verb, path,
                               "trace produced no accesses")


class TestOverheadVerb:
    def test_test_case_report(self, tmp_path):
        out = tmp_path / "ovh.json"
        assert run_cli("overhead", "--test-case", "tc2", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert abs(report["grand_total_kb"] - 20.2) < 0.1

    def test_component_count_report(self, capsys):
        assert run_cli("overhead", "--components", "2") == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["framework_total_kb"] - 6.0) < 0.1

    @pytest.mark.parametrize("flags,message", [
        (("--capacity", str(10 ** 400)), "sizes a bit table beyond float range"),
        (("--test-case", "tc2", "--capacity", str(10 ** 400)),
         "sizes a bit table beyond float range"),
        (("--fpp", "5e-324"), "sizes a bit table beyond float range"),
        (("--test-case", "tc1", "--fpp", "5e-324"),
         "sizes a bit table beyond float range"),
        (("--components", str(10 ** 400)),
         f"overhead field n_components must be <= {2 ** 64}, got 1000"),
        (("--components", "0"), "n_components must be >= 1"),
        # each flag within its bound, their product beyond float range
        (("--components", str(2 ** 64), "--capacity", str(10 ** 300)),
         f"overhead of {2 ** 64} components totals beyond float range"),
    ])
    def test_beyond_float_range_is_one_error_line(self, tmp_path, capsys, flags,
                                                  message):
        out = tmp_path / "ovh.json"
        assert run_cli("overhead", *flags, "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("arsenal-sim: error:")
        assert message in err[0]
        assert not out.exists()


class TestPatternArg:
    def test_shorthand_with_params(self):
        spec = PatternSpec.from_dict(_pattern_fields("stride:stride=0x200,start=64"))
        assert spec.kind == "stride"
        assert spec.stride == 0x200
        assert spec.start == 64

    def test_inline_json(self):
        spec = PatternSpec.from_dict(_pattern_fields(json.dumps(
            {"kind": "pc_delta",
             "streams": [{"pc": 4, "start": 0, "delta": 64}]})))
        assert spec.kind == "pc_delta"

    def test_bad_kind_fails_cli(self):
        assert run_cli("run", "--pattern", "zigzag", "--engine", "none") == 1

    def test_bad_param_syntax_fails_cli(self):
        assert run_cli("gen", "--pattern", "stride:stride", "--length", "5",
                       "--out", "/dev/null") == 1

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli()
        assert err.value.code == 2


class TestDeeplyNestedJson:
    # written out as text: json.dumps would itself recurse on such a value
    NESTED = "[" * 100_000

    @pytest.mark.parametrize("verb", BOTH)
    def test_config_file(self, tmp_path, capsys, steps, verb):
        path = tmp_path / "config.json"
        path.write_text(self.NESTED)
        out = tmp_path / "report.out"
        assert run_cli(verb, "--config", str(path), "--out", str(out)) == 1
        failed_before_running(capsys, steps, out, "JSON nested too deeply")

    @pytest.mark.parametrize("verb", ("run", "gen"))
    def test_inline_pattern(self, tmp_path, capsys, steps, verb):
        out = tmp_path / "report.out"
        assert run_cli(verb, "--pattern", '{"kind": ' + self.NESTED,
                       "--length", "5", "--out", str(out)) == 1
        failed_before_running(capsys, steps, out, "JSON nested too deeply")


class TestUnreadableJsonNamesItsSource:
    @pytest.mark.parametrize("verb", BOTH)
    @pytest.mark.parametrize("content, message", [
        (b'{"traces": [}', "Expecting value: line 1 column 13"),
        (b'{"engine": "none", "x\xff": 1}',
         "'utf-8' codec can't decode byte 0xff in position 21"),
    ], ids=["bad-json", "not-utf8"])
    def test_config_file(self, tmp_path, capsys, steps, verb, content, message):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        out = tmp_path / "report.out"
        assert run_cli(verb, "--config", str(path), "--out", str(out)) == 1
        failed_before_running(capsys, steps, out, f"error: {path}: {message}")

    def test_inline_pattern(self, tmp_path, capsys, steps):
        out = tmp_path / "report.out"
        assert run_cli("run", "--pattern", '{"kind": "sequential",}',
                       "--out", str(out)) == 1
        failed_before_running(capsys, steps, out,
                              "error: --pattern: Expecting property name")
