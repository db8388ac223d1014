import random
import tracemalloc

import pytest

from arsenal_sim.cache import (
    HIT,
    LATE_PREFETCH_HIT,
    MISS,
    PREFETCH_HIT,
    SOURCE_FIELDS,
    CacheConfig,
    SetAssociativeCache,
    amat,
)
from arsenal_sim.harness import Simulation, StandaloneEngine
from arsenal_sim.prefetchers import NextLinePrefetcher


def make_cache(**overrides):
    return SetAssociativeCache(CacheConfig(**overrides))


def per_source(cache, field):
    """source -> its nonzero count of ``field``, one of SOURCE_FIELDS."""
    i = SOURCE_FIELDS.index(field)
    return {source: row[i] for source, row in cache.by_source.items() if row[i]}


class TestAccessClassification:
    def test_cold_cache_miss(self):
        c = make_cache()
        out = c.access(7, 0)
        assert out.kind == MISS
        assert amat(c.demand_counts(), c.config) == 200
        assert out.is_pae

    def test_same_line_reaccess_hits(self):
        c = make_cache()
        c.access(7, 0)
        out = c.access(7, 1)
        assert out.kind == HIT
        assert amat({"hits": 1}, c.config) == 4
        assert not out.is_pae

    def test_prefetch_then_demand_gives_one_prefetch_hit(self):
        # enqueue line 9 at seq 0 (fill due at 40), demand at 100 and 101
        c = make_cache()
        assert c.enqueue_prefetch(9, "nl", 0)
        c.fill_due(100)
        first = c.access(9, 100)
        assert first.kind == PREFETCH_HIT
        assert first.is_pae
        second = c.access(9, 101)
        assert second.kind == HIT
        assert not second.is_pae
        assert per_source(c, "useful") == {"nl": 1}

    def test_demand_to_in_flight_line_is_late(self):
        c = make_cache()
        c.enqueue_prefetch(9, "nl", 0)
        c.fill_due(10)  # not due yet (fill at 40)
        out = c.access(9, 10)
        assert out.kind == LATE_PREFETCH_HIT
        assert amat(c.demand_counts(), c.config) == 100
        assert out.is_pae
        assert c.in_flight_count == 0  # converted to a demand fill
        assert c.prefetch_counts()["late_converted"] == 1
        # resident now, as a demand line: next touch is a plain hit
        assert c.access(9, 11).kind == HIT

    def test_writes_behave_like_reads(self):
        # the write flag reaches no further than Simulation.run, which hands
        # the cache and the engine only the line and the tick
        rng = random.Random(6)
        lines = [rng.randrange(256) for _ in range(3000)]

        def run(writes):
            cfg = CacheConfig(sets=16, ways=4)  # 64 lines, so misses recur
            sim = Simulation(cfg, StandaloneEngine(
                "next_line", NextLinePrefetcher(degree=2, max_line=cfg.max_line)))
            outs = []
            access = sim.cache.access

            def recorded(line, now):
                outs.append(access(line, now))
                return outs[-1]
            sim.cache.access = recorded
            sim.run((0x400, line * 64, writes and seq % 2 == 0, seq)
                    for seq, line in enumerate(lines))
            c = sim.cache
            return ([o.kind for o in outs], c.demand_counts(), c.prefetch_counts(),
                    dict(c.by_source))

        reads = run(writes=False)
        assert reads[3]["next_line"][3] > 0  # some next-line prefetch was useful
        assert reads == run(writes=True)

    def test_is_pae_iff_not_hit(self):
        c = make_cache()
        rng = random.Random(4)
        for seq in range(2000):
            line = rng.randrange(256)
            if rng.random() < 0.2:
                c.enqueue_prefetch(rng.randrange(256), "x", seq)
            c.fill_due(seq)
            out = c.access(line, seq)
            assert out.is_pae == (out.kind != HIT)


class TestEnqueue:
    def test_resident_line_rejected(self):
        c = make_cache()
        c.access(5, 0)
        assert not c.enqueue_prefetch(5, "nl", 1)
        assert c.pf_dropped_resident == 1
        assert c.in_flight_count == 0

    def test_fresh_line_accepted_with_fill_delay(self):
        c = make_cache()
        assert c.enqueue_prefetch(12, "nl", 7)
        assert c.in_flight_count == 1
        c.fill_due(46)
        assert c.in_flight_count == 1
        c.fill_due(47)
        assert c.in_flight_count == 0
        assert c.is_resident(12)
        assert per_source(c, "filled") == {"nl": 1}

    def test_duplicate_in_flight_rejected(self):
        c = make_cache()
        assert c.enqueue_prefetch(12, "nl", 0)
        assert not c.enqueue_prefetch(12, "spp", 1)
        assert c.pf_dropped_in_flight == 1

    def test_capacity_bound(self):
        c = make_cache()
        for i in range(16):
            assert c.enqueue_prefetch(100 + i, "nl", 0)
        assert not c.enqueue_prefetch(999, "nl", 0)
        assert c.pf_dropped_queue_full == 1
        assert c.in_flight_count == 16


class TestFillDue:
    def test_empty_queue(self):
        c = make_cache()
        assert c.fill_due(10_000) is None
        assert c.prefetch_counts()["filled"] == 0

    def test_boundary_inclusive(self):
        c = make_cache()
        c.enqueue_prefetch(3, "nl", 0)
        c.fill_due(39)
        assert c.prefetch_counts()["filled"] == 0
        c.fill_due(40)
        assert c.prefetch_counts()["filled"] == 1
        assert c.is_resident(3)
        out = c.access(3, 41)
        assert out.kind == PREFETCH_HIT

    def test_partial_drain(self):
        c = make_cache()
        c.enqueue_prefetch(1, "nl", 0)
        c.enqueue_prefetch(2, "nl", 5)
        c.enqueue_prefetch(3, "nl", 50)
        c.fill_due(45)
        assert c.prefetch_counts()["filled"] == 2
        assert c.in_flight_count == 1
        c.fill_due(90)
        assert c.prefetch_counts()["filled"] == 3
        assert c.in_flight_count == 0
        assert c.is_resident(3)

    def test_access_installs_the_fills_due_at_its_seq(self):
        # line 9 is enqueued at seq 0 (fill due at 40); no fill_due call
        c = make_cache()
        assert c.enqueue_prefetch(9, "nl", 0)
        out = c.access(9, 40)
        assert out.kind == PREFETCH_HIT
        assert per_source(c, "filled") == {"nl": 1}
        assert per_source(c, "useful") == {"nl": 1}
        assert c.in_flight_count == 0


class TestAmat:
    def test_all_hits(self):
        cfg = CacheConfig()
        assert amat({"hits": 100, "prefetch_hits": 0,
                     "late_prefetch_hits": 0, "misses": 0}, cfg) == 4.0

    def test_hit_miss_mix(self):
        cfg = CacheConfig()
        assert amat({"hits": 90, "prefetch_hits": 0,
                     "late_prefetch_hits": 0, "misses": 10}, cfg) == 23.6

    def test_prefetch_miss_mix(self):
        cfg = CacheConfig()
        assert amat({"hits": 0, "prefetch_hits": 50,
                     "late_prefetch_hits": 0, "misses": 50}, cfg) == 102.0

    def test_empty_statistics_error(self):
        with pytest.raises(ValueError, match="empty statistics"):
            amat({"hits": 0, "prefetch_hits": 0,
                  "late_prefetch_hits": 0, "misses": 0}, CacheConfig())


class ReferenceCache:
    """Deliberately naive exact model: per-set lists, linear scans."""

    def __init__(self, sets, ways, fill_delay):
        self.sets = sets
        self.ways = ways
        self.fill_delay = fill_delay
        self.lines = {}      # line -> [prefetched, touch_time]
        self.pending = []    # [line, fill_seq]
        self.time = 0

    def _touch(self):
        self.time += 1
        return self.time

    def _evict_if_needed(self, line):
        mates = [l for l in self.lines if l % self.sets == line % self.sets]
        if len(mates) >= self.ways and line not in self.lines:
            victim = min(mates, key=lambda l: self.lines[l][1])
            del self.lines[victim]

    def fill_due(self, now):
        due = [p for p in self.pending if p[1] <= now]
        self.pending = [p for p in self.pending if p[1] > now]
        for line, _ in due:
            self._evict_if_needed(line)
            self.lines[line] = [True, self._touch()]

    def enqueue(self, line, now):
        if line in self.lines or any(p[0] == line for p in self.pending):
            return False
        if len(self.pending) >= 16:
            return False
        self.pending.append([line, now + self.fill_delay])
        return True

    def access(self, line):
        t = self._touch()
        if line in self.lines:
            prefetched = self.lines[line][0]
            self.lines[line] = [False, t]
            return PREFETCH_HIT if prefetched else HIT
        if any(p[0] == line for p in self.pending):
            self.pending = [p for p in self.pending if p[0] != line]
            self._evict_if_needed(line)
            self.lines[line] = [False, t]
            return LATE_PREFETCH_HIT
        self._evict_if_needed(line)
        self.lines[line] = [False, t]
        return MISS


class TestAgainstReferenceModel:
    def test_outcomes_match_naive_model(self):
        cfg = CacheConfig(sets=8, ways=2, prefetch_fill_delay=6,
                          prefetch_queue_capacity=16)
        c = SetAssociativeCache(cfg)
        ref = ReferenceCache(8, 2, 6)
        rng = random.Random(17)
        for seq in range(8000):
            c.fill_due(seq)
            ref.fill_due(seq)
            if rng.random() < 0.4:
                line = rng.randrange(64)
                got = c.enqueue_prefetch(line, "x", seq)
                want = ref.enqueue(line, seq)
                assert got == want, f"enqueue diverged at seq {seq}"
            line = rng.randrange(64)
            got = c.access(line, seq).kind
            want = ref.access(line)
            assert got == want, f"access diverged at seq {seq}: {got} vs {want}"

    @pytest.mark.parametrize("delay", [0, 1, 6])
    def test_outcomes_match_naive_model_in_harness_order(self, delay):
        # as Simulation.run calls it: access, then enqueue at the same seq,
        # with no fill_due call, so access alone drains the due fills
        cfg = CacheConfig(sets=8, ways=2, prefetch_fill_delay=delay,
                          prefetch_queue_capacity=16)
        c = SetAssociativeCache(cfg)
        ref = ReferenceCache(8, 2, delay)
        rng = random.Random(17)
        for seq in range(8000):
            ref.fill_due(seq)
            line = rng.randrange(64)
            got = c.access(line, seq).kind
            want = ref.access(line)
            assert got == want, f"access diverged at seq {seq}: {got} vs {want}"
            for _ in range(rng.randrange(4)):
                line = rng.randrange(64)
                got = c.enqueue_prefetch(line, "x", seq)
                want = ref.enqueue(line, seq)
                assert got == want, f"enqueue diverged at seq {seq}"
        assert c.in_flight_count == len(ref.pending)

    def test_lru_evicts_oldest_touch(self):
        c = make_cache(sets=1, ways=3)
        c.access(1, 0)
        c.access(2, 1)
        c.access(3, 2)
        c.access(1, 3)           # 2 is now the oldest touch
        c.access(4, 4)           # evicts 2
        assert c.is_resident(1)
        assert not c.is_resident(2)
        assert c.is_resident(3)
        assert c.is_resident(4)

    def test_determinism(self):
        rng = random.Random(23)
        trace = [(rng.randrange(512), rng.random() < 0.3, rng.randrange(600))
                 for _ in range(5000)]

        def run():
            c = make_cache()
            outcomes = []
            for seq, (line, do_pf, pf_line) in enumerate(trace):
                c.fill_due(seq)
                if do_pf:
                    c.enqueue_prefetch(pf_line, "x", seq)
                outcomes.append(c.access(line, seq).kind)
            return outcomes, c.demand_counts(), c.prefetch_counts()

        assert run() == run()

    def test_set_count_costs_no_memory_per_set(self):
        # a set's dict is made on first touch, whatever the set count; 2**20
        # goes first, so a per-set cost fails there at about 75 MB instead
        # of taking the machine's memory at 2**40
        for sets in (2 ** 20, 2 ** 40):
            rng = random.Random(29)
            tracemalloc.start()
            try:
                c = make_cache(sets=sets, prefetch_fill_delay=2)
                for seq in range(400):
                    c.enqueue_prefetch(rng.randrange(1 << 50), "x", seq)
                    c.access(rng.randrange(1 << 50), seq)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert c.demand_counts()["misses"] == 400
            assert peak < 1 << 20, sets


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("sets", 63), ("line_size", 48), ("ways", 0),
        ("prefetch_fill_delay", -1), ("prefetch_queue_capacity", -1),
    ])
    def test_rejects_bad_geometry(self, field, value):
        with pytest.raises(ValueError):
            CacheConfig(**{field: value})

    def test_rejects_bad_latency_order(self):
        with pytest.raises(ValueError):
            CacheConfig(hit_latency=10, late_latency=5)

    def test_max_line_for_default_line_size(self):
        assert CacheConfig().max_line == (1 << 58) - 1
