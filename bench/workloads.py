"""The benchmark's workloads: inputs generated from a seed, stdlib only.

Each workload turns ``(seed, workdir)`` into the files one command
invocation needs (a config, and for ``compare`` two trace files) plus the
``arsenal-sim`` argument list that consumes them. Nothing here imports
``arsenal_sim``: the program only ever sees the generated files.

The cache is the simulator's default (64 sets x 8 ways of 64-byte lines,
512 lines) and starts empty in every run; statistics include the warm-up.
"""

import json
import os
import random
from dataclasses import dataclass

CACHE_LINES = 512
LINE_SIZE = 64

PHASED_SEGMENT = 5_000        # accesses per phase: ten selection phases each
PHASED_LENGTH = 10_000        # one stride phase and one sequential phase
PHASED_STREAMS = 8
PHASED_DELTA = 512            # bytes: 8 lines per step, every stream

HOTSET_LENGTH = 60_000
HOTSET_LINES = 576                    # 1.125x the cache: ~89% plain hits
HOTSET_WRITES = 0.3

FILE_LENGTH = 4_000           # accesses per compare trace file
DELTA_STREAMS = 16            # per-PC streams, deltas 1..16 lines, distinct
SPILL_LINES = CACHE_LINES * 4 # 4x the cache: most prefetches are useless
SPILL_WRITES = 0.3

TC1_ENGINES = ["none", "tskid", "mlop", "arsenal-tc1"]


@dataclass
class Invocation:
    """One command invocation and what its report must satisfy."""
    argv: list
    report_path: str
    kind: str                 # "run" or "compare"
    trace_lengths: list       # demand accesses per trace, in report order
    caches_per_trace: int     # caches the command drives over each trace

    @property
    def simulated_accesses(self) -> int:
        return self.caches_per_trace * sum(self.trace_lengths)

    def expect(self) -> dict:
        return {"kind": self.kind, "trace_lengths": self.trace_lengths,
                "engines": TC1_ENGINES if self.kind == "compare" else None}


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)


def _band(rng: random.Random, index: int) -> int:
    # a private 256 MiB band per stream, 1 MiB aligned, so streams never
    # overlap and every stream keeps the same cache set sequence per seed
    return (((index + 1) << 8) + rng.randrange(252)) << 20


def _run(workdir: str, config: dict, length: int) -> Invocation:
    config_path = os.path.join(workdir, "config.json")
    report_path = os.path.join(workdir, "report.json")
    _write_json(config_path, config)
    # run re-simulates the trace under the no-prefetch engine for the
    # speedup baseline, so it drives two caches over the same accesses
    return Invocation(["run", "--config", config_path, "--out", report_path],
                      report_path, "run", [length], 2)


def phased_tc2(seed: int, workdir: str) -> Invocation:
    rng = random.Random(seed)
    pc_base = 0x400000 + (rng.randrange(1 << 12) << 8)
    streams = [{"pc": pc_base + 16 * i,
                "start": _band(rng, i) + LINE_SIZE * i,
                "delta": PHASED_DELTA}
               for i in range(PHASED_STREAMS)]
    pattern = {"kind": "phased", "seed": seed, "segments": [
        {"spec": {"kind": "pc_delta", "streams": streams},
         "length": PHASED_SEGMENT},
        {"spec": {"kind": "sequential", "start": _band(rng, PHASED_STREAMS),
                  "pc": pc_base + 0x1000},
         "length": PHASED_SEGMENT},
    ]}
    return _run(workdir, {"engine": "arsenal-tc2", "pattern": pattern,
                          "length": PHASED_LENGTH, "seed": seed,
                          "label": "phased-tc2"}, PHASED_LENGTH)


def hotset_tc2(seed: int, workdir: str) -> Invocation:
    rng = random.Random(seed)
    pattern = {"kind": "random_working_set", "seed": seed,
               "start": _band(rng, 0), "pc": 0x400000 + (rng.randrange(1 << 12) << 8),
               "working_set_lines": HOTSET_LINES,
               "write_fraction": HOTSET_WRITES}
    return _run(workdir, {"engine": "arsenal-tc2", "pattern": pattern,
                          "length": HOTSET_LENGTH, "seed": seed,
                          "label": "hotset-tc2"}, HOTSET_LENGTH)


def _write_trace(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# pc addr op\n")
        fh.writelines(f"0x{pc:x} 0x{addr:x} {op}\n" for pc, addr, op in records)


def _delta_streams(rng: random.Random):
    deltas = list(range(1, DELTA_STREAMS + 1))
    rng.shuffle(deltas)
    pc_base = 0x500000 + (rng.randrange(1 << 12) << 8)
    cursors = [[pc_base + 8 * i, _band(rng, i) + LINE_SIZE * i, d * LINE_SIZE]
               for i, d in enumerate(deltas)]
    for n in range(FILE_LENGTH):
        cur = cursors[n % DELTA_STREAMS]
        yield cur[0], cur[1], "R"
        cur[1] += cur[2]


def _spill_set(rng: random.Random):
    base = _band(rng, 0)
    pcs = [0x600000 + (rng.randrange(1 << 12) << 8) + 8 * i for i in range(8)]
    for _ in range(FILE_LENGTH):
        addr = base + rng.randrange(SPILL_LINES) * LINE_SIZE
        yield pcs[rng.randrange(8)], addr, "W" if rng.random() < SPILL_WRITES else "R"


def compare_tc1_files(seed: int, workdir: str) -> Invocation:
    rng = random.Random(seed)
    traces = []
    for label, records in (("deltas", _delta_streams(rng)),
                           ("spill-4x", _spill_set(rng))):
        path = os.path.join(workdir, f"{label}.trace")
        _write_trace(path, records)
        traces.append({"label": label, "file": path})
    config_path = os.path.join(workdir, "compare.json")
    report_path = os.path.join(workdir, "report.json")
    _write_json(config_path, {"policy": "tc1", "traces": traces, "seed": seed})
    return Invocation(["compare", "--config", config_path, "--out", report_path],
                      report_path, "compare", [FILE_LENGTH, FILE_LENGTH],
                      len(TC1_ENGINES))


WORKLOADS = {
    "phased-tc2": phased_tc2,
    "hotset-tc2": hotset_tc2,
    "compare-tc1-files": compare_tc1_files,
}
