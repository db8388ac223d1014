"""Trace ingestion and synthetic access-pattern generation.

Trace files are plain text, one demand access per line: ``PC ADDR R|W``
with ASCII hex fields, 0x prefix optional, separated by spaces or tabs;
``#`` starts a comment line. A malformed line is a ValueError naming it.
Synthetic patterns cover the access shapes the simulator cares about:
sequential streams, fixed strides, random working sets, interleaved per-PC
delta streams, and phased concatenations of the above. Generation is fully
deterministic given the pattern spec and its seed.
"""

import math
import random
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Iterable, Iterator

SEQUENTIAL = "sequential"
STRIDE = "stride"
RANDOM_WORKING_SET = "random_working_set"
PC_DELTA = "pc_delta"
PHASED = "phased"

PATTERN_KINDS = (SEQUENTIAL, STRIDE, RANDOM_WORKING_SET, PC_DELTA, PHASED)


# one demand access: (pc, addr, is_write, seq), a plain tuple
AccessEvent = tuple[int, int, bool, int]


def parse_trace(stream: Iterable[str]) -> Iterator[AccessEvent]:
    """Yield events from a text trace, assigning seq 0, 1, 2, ..."""
    seq = 0
    for line_number, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {line_number}: expected 'PC ADDR R|W', got {line!r}")
        # int() takes a sign, "_" separators and non-ASCII digits, which no
        # trace writer emits
        hex_text = parts[0] + parts[1]
        try:
            if "_" in hex_text or "+" in hex_text or not hex_text.isascii():
                raise ValueError
            pc = int(parts[0], 16)
            addr = int(parts[1], 16)
        except ValueError:
            raise ValueError(f"line {line_number}: bad hex field in {line!r}") from None
        if (pc | addr) >> 64:  # nonzero when either is negative or >= 2**64
            raise ValueError(f"line {line_number}: PC or ADDR outside [0, 2**64) "
                             f"in {line!r}")
        op = parts[2].upper()
        if op not in ("R", "W"):
            raise ValueError(f"line {line_number}: op must be R or W, got {parts[2]!r}")
        # strip() and split() take Unicode spaces and ASCII control characters
        # too; only a space or a tab separates fields
        if not raw.isascii() or not (line.isprintable()
                                     or line.replace("\t", " ").isprintable()):
            raise ValueError(f"line {line_number}: expected 'PC ADDR R|W', got {raw!r}")
        yield pc, addr, op == "W", seq
        seq += 1


def stream_trace_file(path: str) -> Iterator[AccessEvent]:
    """Yield a trace file's events, reading it as they are consumed."""
    # a byte that is not UTF-8 decodes to a lone surrogate, which no field
    # check accepts, so parse_trace refuses its line by number
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        yield from parse_trace(fh)


def write_trace(events: Iterable[AccessEvent], sink) -> None:
    """Write events in the text trace format."""
    for pc, addr, is_write, _ in events:
        sink.write(f"0x{pc:x} 0x{addr:x} {'W' if is_write else 'R'}\n")


def reject_unknown(what: str, data, known) -> None:
    """Raise ValueError unless ``data`` is an object whose keys are all known."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object")
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def _breach(value, fraction: bool, low=None, high=None, strict=False):
    """What ``value`` must be when it lies outside [low, high], or outside
    (low, high) where ``strict``; a None end is unbounded. A fraction's
    range is one statement, so it is given whole; a count's floor and cap
    are two, so the broken end is named."""
    if low is not None and (value <= low if strict else value < low):
        end = f"{'>' if strict else '>='} {low}"
    elif high is not None and (value >= high if strict else value > high):
        end = f"{'<' if strict else '<='} {high}"
    else:
        return None
    if fraction and low is not None and high is not None:
        return f"in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}"
    return end


def check_fields(what: str, data, defaults, required=(), ranges=None) -> None:
    """Reject a non-object, unknown or missing keys, and a value not of its
    default's type (an int passes for a float; a bool never passes for an
    int), a NaN or infinite float, or one outside its range in ``ranges``,
    key -> (low, high[, strict]) as ``_breach`` takes them. ``defaults`` may
    be a dataclass, whose fields give them (a required one its type's zero
    value). A None default leaves the value to its own parser."""
    if isinstance(defaults, type):
        defaults = {f.name: f.default if f.default is not MISSING
                    else f.type() if f.default_factory is MISSING
                    else f.default_factory() for f in fields(defaults)}
    reject_unknown(what, data, defaults)
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"missing {what} fields: {missing}")
    ranges = ranges or {}
    for key, value in data.items():
        if defaults[key] is None:
            continue
        expected = type(defaults[key])
        if type(value) is not expected and (expected, type(value)) != (float, int):
            need = expected.__name__
        elif type(value) is float and not math.isfinite(value):
            need = "finite"
        elif key not in ranges or (
                need := _breach(value, expected is float, *ranges[key])) is None:
            continue
        raise ValueError(f"{what} field {key} must be {need}, got {value!r}")


# a long run is legitimate, so a length has no upper bound
LENGTH_RANGE = {"length": (1, None)}
# random.Random seeds from abs(seed), so a negative seed would draw its
# positive twin's trace
SEED_RANGE = {"seed": (0, None)}
# caps a latency, count or line size far above real ones, so each AMAT and
# overhead stays finite and a line shift fits the 64-bit address space
INT_CAP = 2 ** 64
_STREAM_DEFAULTS = {"pc": 0, "start": 0, "delta": 0}
_SEGMENT_DEFAULTS = {"spec": None, "length": 0}


@dataclass
class PatternSpec:
    """One synthetic access pattern.

    kind-specific fields:
      sequential: start, pc_pool (PCs drawn at random per access)
      stride: start, stride (bytes, nonzero), pc (fixed)
      random_working_set: start, working_set_lines, pc_pool, write_fraction
      pc_delta: streams = [{pc, start, delta}, ...], visited round-robin
      phased: segments = [{"spec": {...}, "length": n}, ...], each spec flat,
        built once into flat_segments = [(spec, length), ...]
    """
    kind: str
    start: int = 0
    stride: int = 256
    pc: int = 0x400
    pc_pool: int = 8
    working_set_lines: int = 4096
    write_fraction: float = 0.0
    line_size: int = 64
    streams: list = field(default_factory=list)
    segments: list = field(default_factory=list)
    seed: int = 0

    RANGES = {"pc_pool": (0, None), "write_fraction": (0, 1), "line_size": (1, None),
              **SEED_RANGE}

    def __post_init__(self):
        check_fields("pattern", vars(self), PatternSpec, ranges=self.RANGES)
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind: {self.kind!r}")
        if self.kind == STRIDE and self.stride == 0:
            raise ValueError("stride must be nonzero")
        if self.kind == PC_DELTA and not self.streams:
            raise ValueError("pc_delta requires at least one stream")
        for stream in self.streams:
            check_fields("pattern stream", stream, _STREAM_DEFAULTS,
                         required=_STREAM_DEFAULTS)
        if self.kind == RANDOM_WORKING_SET and self.working_set_lines < 1:
            raise ValueError("working_set_lines must be >= 1")
        self.flat_segments = []
        if self.kind != PHASED:
            return
        if not self.segments:
            raise ValueError("phased requires at least one segment")
        for seg in self.segments:
            check_fields("pattern segment", seg, _SEGMENT_DEFAULTS,
                         required=_SEGMENT_DEFAULTS, ranges=LENGTH_RANGE)
            spec = PatternSpec.from_dict(seg["spec"])
            if spec.kind == PHASED:
                raise ValueError("phased segments must be flat patterns")
            if spec.seed:  # each segment draws from the phased pattern's seed
                raise ValueError("phased segments draw from the pattern's seed; "
                                 f"a segment's seed must be 0, got {spec.seed!r}")
            self.flat_segments.append((spec, seg["length"]))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "PatternSpec":
        # what only the dict form can get wrong; __post_init__ checks the rest
        reject_unknown("pattern", data, cls.__dataclass_fields__)
        if "kind" not in data:
            raise ValueError("missing pattern fields: ['kind']")
        return cls(**data)


def _generate_flat(spec: PatternSpec, length: int, seq_base: int,
                   rng: random.Random) -> Iterator[AccessEvent]:
    # Each draw is rng.randrange(n) inlined: CPython's rejection draw of
    # n.bit_length() bits, redrawn while >= n (bits are drawn for n == 1
    # too), so the traces stay those of randrange; tests pin the two.
    getrandbits = rng.getrandbits
    kind = spec.kind
    seqs = range(seq_base, seq_base + length)
    if kind == SEQUENTIAL:
        pc = spec.pc
        n_pcs = max(1, spec.pc_pool)
        pc_bits = n_pcs.bit_length()
        addr = spec.start
        step = spec.line_size
        for seq in seqs:
            p = getrandbits(pc_bits)
            while p >= n_pcs:
                p = getrandbits(pc_bits)
            yield pc + 8 * p, addr, False, seq
            addr += step
    elif kind == STRIDE:
        pc, addr, stride = spec.pc, spec.start, spec.stride
        for seq in seqs:
            yield pc, addr, False, seq
            addr += stride
    elif kind == RANDOM_WORKING_SET:
        pc = spec.pc
        n_pcs = max(1, spec.pc_pool)
        pc_bits = n_pcs.bit_length()
        base_line = spec.start // spec.line_size
        ws = spec.working_set_lines
        ws_bits = ws.bit_length()
        wf = spec.write_fraction
        lsz = spec.line_size
        rand = rng.random
        for seq in seqs:
            r = getrandbits(ws_bits)
            while r >= ws:
                r = getrandbits(ws_bits)
            is_write = wf > 0.0 and rand() < wf
            p = getrandbits(pc_bits)
            while p >= n_pcs:
                p = getrandbits(pc_bits)
            yield pc + 8 * p, (base_line + r) * lsz, is_write, seq
    else:  # PC_DELTA: a built spec has no other kind here
        cursors = [[s["pc"], s["start"], s["delta"]] for s in spec.streams]
        n = len(cursors)
        for i, seq in enumerate(seqs):
            cur = cursors[i % n]
            yield cur[0], cur[1], False, seq
            cur[1] += cur[2]


def _phases(spec: PatternSpec, length: int, seed: int = 0):
    """Yield (flat spec, rng seed, first seq, event count) for each phase of
    ``length`` events from ``seed``: a phased pattern cycles its segments."""
    if spec.kind != PHASED:
        yield spec, seed, 0, length
        return
    segments = spec.flat_segments
    seq = index = 0
    while seq < length:
        flat, seg_len = segments[index % len(segments)]
        seg_len = min(seg_len, length - seq)
        yield flat, (seed << 16) ^ index, seq, seg_len
        seq += seg_len
        index += 1


def _flat_bounds(spec: PatternSpec, n: int) -> Iterator[int]:
    """The PCs and addresses at both ends of ``n`` > 0 events of a flat
    pattern, or of its whole PC pool and working set where it draws from
    them; each moves linearly, so these bound every value it takes."""
    kind = spec.kind
    if kind == PC_DELTA:
        m = len(spec.streams)
        for k, s in enumerate(spec.streams[:n]):
            count = (n - k + m - 1) // m   # events k, k + m, ... below n
            yield from (s["pc"], s["start"], s["start"] + (count - 1) * s["delta"])
        return
    if kind == STRIDE:
        yield spec.pc
    else:
        yield from (spec.pc, spec.pc + 8 * (max(1, spec.pc_pool) - 1))
    if kind == RANDOM_WORKING_SET:
        lsz = spec.line_size
        base = spec.start // lsz * lsz
        yield from (base, base + (spec.working_set_lines - 1) * lsz)
    else:
        step = spec.line_size if kind == SEQUENTIAL else spec.stride
        yield from (spec.start, spec.start + (n - 1) * step)


def check_address_range(spec: PatternSpec, length: int) -> None:
    """Refuse a pattern whose ``length`` events would hold a PC or address
    outside [0, 2**64), the range a trace file may hold."""
    for flat, _, _, n in _phases(spec, length):
        if n > 0:
            for value in _flat_bounds(flat, n):
                if value >> 64:  # nonzero when negative or >= 2**64
                    raise ValueError(f"pattern {flat.kind} reaches PC or ADDR "
                                     f"{value:#x}, outside [0, 2**64)")


def generate(spec: PatternSpec, length: int, seed: int = 0) -> Iterator[AccessEvent]:
    """Deterministically generate ``length`` events for a pattern spec, from
    the spec's own seed where it is nonzero, else from ``seed``."""
    for flat, rng_seed, seq, seg_len in _phases(spec, length, spec.seed or seed):
        yield from _generate_flat(flat, seg_len, seq, random.Random(rng_seed))


def phase_boundaries(spec: PatternSpec, length: int) -> list[dict]:
    """Segment layout of a phased pattern: [{kind, start, end}, ...]."""
    return [{"kind": flat.kind, "start": seq, "end": seq + seg_len}
            for flat, _, seq, seg_len in _phases(spec, length)]
