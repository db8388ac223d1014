"""Set-associative cache model with prefetch fill timing.

Time is measured in demand-access ticks (the trace index), not cycles.
Latencies price each outcome class in ``amat`` only; the prefetch
queue holds in-flight lines that become resident a fixed number of ticks
after they were enqueued. Every access is classified as a hit, a prefetch
hit (first demand touch of a prefetched line), a late prefetch hit (demand
to a line still in flight), or a miss; everything except a plain hit is a
prefetch activation event (PAE) and is what drives the prefetchers.
"""

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from .traces import INT_CAP, check_fields

HIT = "hit"
PREFETCH_HIT = "prefetch_hit"
LATE_PREFETCH_HIT = "late_prefetch_hit"
MISS = "miss"

SOURCE_FIELDS = ("issued", "accepted", "filled", "useful")  # a source's row


class AccessOutcome(NamedTuple):
    kind: str
    is_pae: bool


@dataclass
class CacheConfig:
    """Geometry and timing, checked when built; defaults: 32 KiB, 8-way, L1-like."""
    sets: int = 64
    ways: int = 8
    line_size: int = 64
    hit_latency: int = 4
    miss_latency: int = 200
    late_latency: int = 100          # demand to an in-flight line
    prefetch_fill_delay: int = 40    # ticks from enqueue to resident
    prefetch_queue_capacity: int = 16

    RANGES = {"sets": (1, None), "ways": (1, None), "line_size": (1, INT_CAP),
              "hit_latency": (0, INT_CAP), "miss_latency": (0, INT_CAP),
              "late_latency": (0, INT_CAP), "prefetch_fill_delay": (0, None),
              "prefetch_queue_capacity": (0, None)}

    def __post_init__(self):
        check_fields("cache", vars(self), CacheConfig, ranges=self.RANGES)
        for name, value in (("sets", self.sets), ("line_size", self.line_size)):
            if value & (value - 1):  # nonzero unless a power of two, as value >= 1
                raise ValueError(f"{name} must be a power of two")
        if not (self.hit_latency < self.late_latency <= self.miss_latency):
            raise ValueError("require hit_latency < late_latency <= miss_latency")

    @property
    def line_shift(self) -> int:
        return self.line_size.bit_length() - 1

    @property
    def max_line(self) -> int:
        # address space is 64-bit bytes; lines above this are unreachable
        return (1 << (64 - self.line_shift)) - 1


class SetAssociativeCache:
    """LRU set-associative cache plus an in-flight prefetch list.

    Line state per set: line -> its source's count row while the line is
    prefetched and not yet demanded, else False. Each set dict is kept in
    touch order (a touch re-inserts its line at the end), so the least
    recently used line is the first key.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._set_mask = config.sets - 1
        self._ways = config.ways
        # a set's dict is made on first touch, so the set count costs nothing
        self._sets: defaultdict[int, dict[int, list | bool]] = defaultdict(dict)
        # line -> (fill_seq, source row), in fill order: the fill queue
        self._inflight: dict[int, tuple] = {}
        self._out_hit = AccessOutcome(HIT, False)
        self._out_pf = AccessOutcome(PREFETCH_HIT, True)
        self._out_late = AccessOutcome(LATE_PREFETCH_HIT, True)
        self._out_miss = AccessOutcome(MISS, True)
        # demand outcome counters; a prefetch hit is its source's useful count
        self.hits = 0
        self.late_prefetch_hits = 0
        self.misses = 0
        # prefetch queue counters
        self.pf_dropped_resident = 0
        self.pf_dropped_in_flight = 0
        self.pf_dropped_queue_full = 0
        self.evictions = 0
        self.evicted_unused_prefetches = 0
        # source -> its SOURCE_FIELDS counts; the prefetch totals are their sums
        self.by_source: defaultdict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])

    def is_resident(self, line: int) -> bool:
        return line in self._sets[line & self._set_mask]

    @property
    def in_flight_count(self) -> int:
        return len(self._inflight)

    def _install(self, line: int, row) -> None:
        # line is never resident: a demand installs it after its set's pop
        # missed, and a fill only while it stays in flight, which a demand
        # to it would have ended
        lines = self._sets[line & self._set_mask]
        if len(lines) >= self._ways:
            self.evictions += 1
            if lines.pop(next(iter(lines))):
                self.evicted_unused_prefetches += 1
        lines[line] = row

    def access(self, line: int, now: int) -> AccessOutcome:
        """Classify a demand access to ``line`` at tick ``now``; update state.

        Every prefetch whose fill is due by ``now`` is installed first
        (fill_due), so a line that lands at that tick is a prefetch hit.
        """
        inflight = self._inflight
        if inflight and next(iter(inflight.values()))[0] <= now:
            self.fill_due(now)
        lines = self._sets[line & self._set_mask]
        row = lines.pop(line, None)
        if row is not None:
            # a prefetched line yields exactly one prefetch hit
            lines[line] = False
            if row:
                row[3] += 1
                return self._out_pf
            self.hits += 1
            return self._out_hit
        if inflight.pop(line, None) is not None:
            # near-miss: the in-flight entry becomes this demand's fill
            self.late_prefetch_hits += 1
            self._install(line, False)
            return self._out_late
        self.misses += 1
        self._install(line, False)
        return self._out_miss

    def enqueue_prefetch(self, line: int, source: str, now: int) -> bool:
        """Queue a line for prefetch; False when deduped or the queue is full.

        ``now`` must not decrease from call to call: every fill waits the
        same delay, so the in-flight dict's insertion order is fill order.
        """
        row = self.by_source[source]
        row[0] += 1
        if line in self._sets[line & self._set_mask]:
            self.pf_dropped_resident += 1
            return False
        if line in self._inflight:
            self.pf_dropped_in_flight += 1
            return False
        if len(self._inflight) >= self.config.prefetch_queue_capacity:
            self.pf_dropped_queue_full += 1
            return False
        fill_seq = now + self.config.prefetch_fill_delay
        self._inflight[line] = (fill_seq, row)
        row[1] += 1
        return True

    def fill_due(self, now: int) -> None:
        """Install every in-flight prefetch whose fill time has arrived."""
        inflight = self._inflight
        while inflight:
            line, (fill_seq, row) = next(iter(inflight.items()))
            if fill_seq > now:
                break
            del inflight[line]
            self._install(line, row)
            row[2] += 1

    def _totals(self) -> list[int]:
        """The SOURCE_FIELDS counts summed over every source."""
        return [sum(counts) for counts in zip(*self.by_source.values())] or [0, 0, 0, 0]

    def demand_counts(self) -> dict[str, int]:
        prefetch_hits = self._totals()[3]
        return {
            "total": self.hits + prefetch_hits + self.late_prefetch_hits + self.misses,
            "hits": self.hits,
            "prefetch_hits": prefetch_hits,
            "late_prefetch_hits": self.late_prefetch_hits,
            "misses": self.misses,
        }

    def prefetch_counts(self) -> dict[str, int]:
        issued, accepted, filled, _ = self._totals()
        return {
            "attempted": issued,
            "accepted": accepted,
            "dropped_resident": self.pf_dropped_resident,
            "dropped_in_flight": self.pf_dropped_in_flight,
            "dropped_queue_full": self.pf_dropped_queue_full,
            "filled": filled,
            # a late prefetch hit is an in-flight prefetch made a demand fill
            "late_converted": self.late_prefetch_hits,
            "in_flight_at_end": len(self._inflight),
            "evictions": self.evictions,
            "evicted_unused_prefetches": self.evicted_unused_prefetches,
        }


def amat(counts: dict[str, int], config: CacheConfig) -> float:
    """Average memory access time in cycles for a run's outcome counts."""
    total = (counts.get("hits", 0) + counts.get("prefetch_hits", 0)
             + counts.get("late_prefetch_hits", 0) + counts.get("misses", 0))
    if total == 0:
        raise ValueError("empty statistics")
    cycles = ((counts.get("hits", 0) + counts.get("prefetch_hits", 0)) * config.hit_latency
              + counts.get("late_prefetch_hits", 0) * config.late_latency
              + counts.get("misses", 0) * config.miss_latency)
    return cycles / total
