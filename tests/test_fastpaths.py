"""Property tests: the hot-path data structures behave as the plain ones.

Each fast path is checked against a straightforward reference over random
inputs: the lazy, set-backed Bloom filter against a bytearray bit table, the
dict-order LRU tables against a list of keys by last touch, SPP's kept best
slot against a fresh ``max`` over the pattern-table entry, MLOP's
age histogram over sparse zone stamps against a touch bitmap with one
increment per level, and TSKID's pending table, expired from its own dict
order, against a FIFO of every prediction.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from arsenal_sim.bloom import _GOLDEN, BloomFilter, BloomParams, _mix64
from arsenal_sim.cache import CacheConfig, SetAssociativeCache
from arsenal_sim.prefetchers import (
    DEFAULT_MAX_LINE,
    IpStridePrefetcher,
    MlopPrefetcher,
    SppPrefetcher,
    TskidPrefetcher,
    _train_stride,
)

PROPERTY = settings(max_examples=60, deadline=None)


class ReferenceBloom:
    """The bytearray bit table with positions recomputed on every call, and
    the phase's members, which tell a false-positive answer."""

    def __init__(self, capacity: int, fpp: float, seed: int):
        params = BloomParams.create(capacity, fpp, seed)
        self.m = params.bit_table_size
        self.k = params.hash_count
        self.seed_a = params.seed
        self.seed_b = _mix64(params.seed ^ _GOLDEN)
        self.bits = bytearray(params.bit_table_bytes)
        self.inserted_count = 0
        self.members: set[int] = set()

    def _positions(self, element: int) -> list[int]:
        h1 = _mix64(element ^ self.seed_a)
        h2 = _mix64(element ^ self.seed_b) | 1
        return [(h1 + i * h2) % self.m for i in range(self.k)]

    def insert(self, element: int) -> None:
        for p in self._positions(element):
            self.bits[p >> 3] |= 1 << (p & 7)
        self.inserted_count += 1
        self.members.add(element)

    def query(self, element: int) -> bool:
        return all(self.bits[p >> 3] & (1 << (p & 7))
                   for p in self._positions(element))

    def clear(self) -> None:
        self.bits = bytearray(len(self.bits))
        self.inserted_count = 0
        self.members.clear()


# a small pool makes repeats and queries before an insert common, and, in
# small filters, false positives; the wide range covers arbitrary 64-bit
# line numbers
elements = st.one_of(st.integers(0, 300), st.integers(-(1 << 63), (1 << 64) - 1))
bloom_ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), elements),
    st.tuples(st.just("query"), elements),
    st.tuples(st.just("query_then_insert"), elements),
    st.tuples(st.just("repeat"), st.integers(0, 1 << 16)),  # any earlier insert
    st.tuples(st.just("bits"), st.just(0)),
    st.tuples(st.just("clear"), st.integers(1, 2)),         # once or twice
), max_size=300)


@PROPERTY
@given(capacity=st.integers(1, 400), fpp=st.floats(0.001, 0.6),
       seed=st.integers(0, (1 << 64) - 1), ops=bloom_ops)
def test_bloom_matches_bytearray_reference(capacity, fpp, seed, ops):
    # ``fast`` sees only the ops, so members stay queued until an op needs
    # the table; ``probed`` sees the same ops and a probe after each one.
    # ``fp`` counts ``fast``'s True answers for non-members of the phase
    fast = BloomFilter(capacity, fpp, seed)
    probed = BloomFilter(capacity, fpp, seed)
    ref = ReferenceBloom(capacity, fpp, seed)
    inserted = []
    fp = 0
    for op, x in ops:
        if op == "repeat":
            if not inserted:
                continue
            x = inserted[x % len(inserted)]
            for _ in range(3):
                for f in (fast, probed, ref):
                    f.insert(x)
        elif op in ("query", "query_then_insert"):
            answer = fast.query(x)
            fp += answer and x not in ref.members
            assert answer == probed.query(x) == ref.query(x)
            if op == "query_then_insert":
                for f in (fast, probed, ref):
                    f.insert(x)
                inserted.append(x)
        elif op == "insert":
            for f in (fast, probed, ref):
                f.insert(x)
            inserted.append(x)
        elif op == "bits":
            assert bytes(fast.bits) == bytes(ref.bits)
        else:
            for _ in range(x):
                for f in (fast, probed, ref):
                    f.clear()
        assert fast.inserted_count == probed.inserted_count == ref.inserted_count
        assert fast.false_positive_probes == fp
        for p in (x, x + 1, 0, 7):
            assert probed.query(p) == ref.query(p)
    assert bytes(fast.bits) == bytes(ref.bits)
    probes = [x for _, x in ops] + list(range(1000, 1300))
    answers = [fast.query(x) for x in probes]
    assert answers == [ref.query(x) for x in probes]
    fp += sum(a and x not in ref.members for a, x in zip(answers, probes))
    assert fast.false_positive_probes == fp


# capacity 3 at fpp 0.1 makes m = 15 and k = 3; under seed 7, h2 % 15 == 0
# for these elements, so each of them sets a single bit
ZERO_STEP_ELEMENTS = (37, 43, 53)


def test_bloom_zero_step_matches_bytearray_reference():
    fast = BloomFilter(3, 0.1, 7)
    ref = ReferenceBloom(3, 0.1, 7)
    assert (ref.m, ref.k) == (15, 3)
    for x in ZERO_STEP_ELEMENTS:
        assert (_mix64(x ^ ref.seed_b) | 1) % ref.m == 0
        assert len(set(ref._positions(x))) == 1
    probes = range(200)
    for x in (37, 5, 43, 80, 53):
        assert [fast.query(p) for p in probes] == [ref.query(p) for p in probes]
        fast.insert(x)
        ref.insert(x)
        assert bytes(fast.bits) == bytes(ref.bits)
    assert [fast.query(p) for p in probes] == [ref.query(p) for p in probes]


def touch(keys: list, key, bound: int) -> None:
    """The reference LRU: move ``key`` to the end of ``keys``, evicting the
    first key when a new one would exceed ``bound``."""
    if key in keys:
        keys.remove(key)
    elif len(keys) == bound:
        del keys[0]
    keys.append(key)


cache_ops = st.lists(st.tuples(
    st.integers(0, 200),       # line
    st.booleans(),             # also enqueue a prefetch of a nearby line
    st.integers(-3, 3)), min_size=1, max_size=400)


@PROPERTY
@given(sets=st.sampled_from([1, 2, 4]), ways=st.integers(1, 4),
       delay=st.integers(0, 6), ops=cache_ops)
def test_cache_sets_keep_touch_order(sets, ways, delay, ops):
    cache = SetAssociativeCache(CacheConfig(
        sets=sets, ways=ways, prefetch_fill_delay=delay, prefetch_queue_capacity=4))
    ref = [[] for _ in range(sets)]
    pending = {}  # accepted prefetch line -> fill seq, in enqueue order

    def touched(line):
        touch(ref[line % sets], line, ways)

    for seq, (line, prefetch, offset) in enumerate(ops):
        cache.fill_due(seq)
        for due in [pf for pf, fill_seq in pending.items() if fill_seq <= seq]:
            del pending[due]
            touched(due)
        assert [list(cache._sets.get(i, ())) for i in range(sets)] == ref
        cache.access(line, seq)
        pending.pop(line, None)  # a demand to an in-flight line fills it now
        touched(line)
        if prefetch and line + offset >= 0:
            if cache.enqueue_prefetch(line + offset, "spp", seq):
                pending[line + offset] = seq + delay
        assert [list(cache._sets.get(i, ())) for i in range(sets)] == ref


pae_stream = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 400)),
                      min_size=1, max_size=300)


def contexts(stream):
    return [(0x400 + 8 * pc, line, seq)
            for seq, (pc, line) in enumerate(stream)]


@PROPERTY
@given(size=st.integers(1, 5), stream=pae_stream)
def test_prefetcher_tables_keep_touch_order(size, stream):
    # (component, its LRU table, the key a PAE touches in it)
    tables = [
        (IpStridePrefetcher(table_size=size), "table", lambda pc, line, seq: pc),
        (SppPrefetcher(st_entries=size, page_lines=16), "signature_table",
         lambda pc, line, seq: line // 16),
        (MlopPrefetcher(zones=size, zone_lines=16, round_paes=16), "zone_table",
         lambda pc, line, seq: line // 16),
        (TskidPrefetcher(table_size=size), "table", lambda pc, line, seq: pc),
    ]
    refs = [[] for _ in tables]
    for ctx in contexts(stream):
        for (component, attr, key), ref in zip(tables, refs):
            component.on_pae(*ctx)
            touch(ref, key(*ctx), size)
            assert list(getattr(component, attr)) == ref


def fresh_best(entry: list) -> list:
    return max(entry[1], key=lambda s: (s[1], -abs(s[0]), s[0] > 0))


class RerankingSpp(SppPrefetcher):
    """SPP that re-ranks an entry's slots from scratch after every train."""

    def _train(self, sig: int, delta: int) -> None:
        super()._train(sig, delta)
        entry = self.pattern_table[sig % self.pt_entries]
        entry[2] = fresh_best(entry)


@PROPERTY
@given(pt_entries=st.integers(1, 16), pt_slots=st.integers(1, 4),
       counter_max=st.integers(1, 15), stream=pae_stream)
def test_spp_best_slot_memo_matches_fresh_max(pt_entries, pt_slots, counter_max,
                                              stream):
    kw = dict(pt_entries=pt_entries, pt_slots=pt_slots, counter_max=counter_max,
              page_lines=32, confidence_threshold=0.1)
    spp = SppPrefetcher(**kw)
    ref = RerankingSpp(**kw)
    for ctx in contexts(stream):
        assert spp.on_pae(*ctx) == ref.on_pae(*ctx)
        for entry in spp.pattern_table.values():
            assert entry[2] is fresh_best(entry)
    assert spp.pattern_table == ref.pattern_table


class ReferenceMlop:
    """MLOP scored with a touch bitmap and per-line stamp list per zone, and
    one increment per lookahead level a touched neighbour reaches."""

    def __init__(self, zones: int = 64, levels: int = 8, max_offset: int = 16,
                 round_paes: int = 256, score_threshold: int = 16,
                 zone_lines: int = 64, max_line: int = DEFAULT_MAX_LINE):
        self.zones = zones
        self.levels = levels
        self.max_offset = max_offset
        self.round_paes = round_paes
        self.score_threshold = score_threshold
        self.zone_lines = zone_lines
        self.max_line = max_line
        # zone -> [bitmap, stamps], in touch order; stamps[i] is the PAE
        # count at line i's last touch
        self.zone_table: dict[int, list] = {}
        # preference order for ties: 1, -1, 2, -2, ...
        self._offsets = [o for mag in range(1, max_offset + 1) for o in (mag, -mag)]
        self.scores = {o: [0] * (levels + 1) for o in self._offsets}
        self.selected_offsets: list[int] = []
        self.round_counter = 0
        self._pae_count = 0

    def _end_round(self) -> None:
        chosen = []
        for level in range(1, self.levels + 1):
            best_offset = None
            best_score = self.score_threshold - 1
            for o in self._offsets:
                s = self.scores[o][level]
                if s > best_score:
                    best_score = s
                    best_offset = o
            if best_offset is not None and best_offset not in chosen:
                chosen.append(best_offset)
        self.selected_offsets = chosen
        for o in self._offsets:
            self.scores[o] = [0] * (self.levels + 1)
        self.round_counter = 0

    def on_pae(self, pc: int, line: int, seq: int) -> list[int]:
        self._pae_count = now = self._pae_count + 1
        zone_lines = self.zone_lines
        zone, x = divmod(line, zone_lines)
        table = self.zone_table
        entry = table.pop(zone, None)
        if entry is None:
            if len(table) >= self.zones:
                del table[next(iter(table))]
            entry = [0, [0] * zone_lines]
        table[zone] = entry
        bitmap, stamps = entry[0], entry[1]
        levels = self.levels
        scores = self.scores
        for o in self._offsets:
            j = x - o
            if 0 <= j < zone_lines and (bitmap >> j) & 1:
                age = now - stamps[j]
                top = age if age < levels else levels
                col = scores[o]
                for level in range(1, top + 1):
                    col[level] += 1
        entry[0] = bitmap | (1 << x)
        stamps[x] = now
        self.round_counter += 1
        if self.round_counter >= self.round_paes:
            self._end_round()
        if not self.selected_offsets:
            return []
        max_line = self.max_line
        out = []
        for o in self.selected_offsets:
            nxt = x + o
            if 0 <= nxt < zone_lines:
                cand = line + o
                if 0 <= cand <= max_line:
                    out.append(cand)
        return out


# strided runs (start, stride, count): a stride of 0 repeats a line, a run
# can cross zones, and runs of different strides pull the scores apart
mlop_runs = st.lists(st.tuples(st.integers(0, 600), st.integers(-6, 6),
                               st.integers(1, 60)), min_size=1, max_size=12)


@PROPERTY
@given(zones=st.integers(1, 5), zone_lines=st.integers(1, 128),
       levels=st.integers(1, 9), max_offset=st.integers(1, 20),
       round_paes=st.integers(1, 64), score_threshold=st.integers(0, 20),
       runs=mlop_runs)
def test_mlop_histogram_matches_per_level_reference(zones, zone_lines, levels,
                                                    max_offset, round_paes,
                                                    score_threshold, runs):
    kw = dict(zones=zones, zone_lines=zone_lines, levels=levels,
              max_offset=max_offset, round_paes=round_paes,
              score_threshold=score_threshold)
    mlop = MlopPrefetcher(**kw)
    ref = ReferenceMlop(**kw)
    lines = [start + stride * i for start, stride, count in runs
             for i in range(count) if start + stride * i >= 0]
    for seq, line in enumerate(lines):
        assert mlop.on_pae(0x400, line, seq) == ref.on_pae(0x400, line, seq)
        assert mlop.selected_offsets == ref.selected_offsets
        assert list(mlop.zone_table) == list(ref.zone_table)


class ReferenceTskid:
    """TSKID with a FIFO of (trigger_seq, line) per prediction for expiry,
    and a push counter breaking delay-queue ties."""

    def __init__(self, table_size: int = 64, lead: int = 4,
                 verification_expiry: int = 1024,
                 max_line: int = DEFAULT_MAX_LINE):
        if table_size < 1:
            raise ValueError("table_size must be >= 1")
        self.table_size = table_size
        self.lead = lead
        self.verification_expiry = verification_expiry
        self.max_line = max_line
        # pc -> [last_line, delta, confidence, use_distance], in touch order
        self.table: dict[int, list] = {}
        self._delay_queue: list[tuple[int, int, int]] = []  # (release_seq, tie, line)
        self._tie = 0
        # predicted_line -> (pc, trigger_seq); FIFO ring for expiry
        self._pending: dict[int, tuple[int, int]] = {}
        self._pending_fifo: list[tuple[int, int]] = []  # (trigger_seq, line)
        self._pending_head = 0

    def _expire_pending(self, now: int) -> None:
        fifo = self._pending_fifo
        head = self._pending_head
        horizon = now - self.verification_expiry
        while head < len(fifo) and fifo[head][0] < horizon:
            trigger_seq, line = fifo[head]
            head += 1
            rec = self._pending.get(line)
            if rec is not None and rec[1] == trigger_seq:
                del self._pending[line]
        if head > 64 and head * 2 > len(fifo):
            del fifo[:head]
            head = 0
        self._pending_head = head

    def _release_due(self, now: int, out: list[int]) -> None:
        dq = self._delay_queue
        while dq and dq[0][0] <= now:
            out.append(heapq.heappop(dq)[2])

    def on_pae(self, pc: int, line: int, seq: int) -> list[int]:
        now = seq
        out: list[int] = []
        self._release_due(now, out)
        self._expire_pending(now)
        rec = self._pending.pop(line, None)
        if rec is not None:
            owner_pc, trigger_seq = rec
            owner = self.table.get(owner_pc)
            if owner is not None:
                owner[3] = now - trigger_seq
        table = self.table
        entry = table.pop(pc, None)
        if entry is None:
            if len(table) >= self.table_size:
                del table[next(iter(table))]
            table[pc] = [line, 0, 0, 0]
            return out
        table[pc] = entry
        delta = line - entry[0]
        _train_stride(entry, delta)
        entry[0] = line
        if entry[2] >= 2 and entry[1] != 0:
            predicted = line + entry[1]
            if 0 <= predicted <= self.max_line:
                release = now + max(0, entry[3] - self.lead)
                self._tie += 1
                heapq.heappush(self._delay_queue, (release, self._tie, predicted))
                self._pending[predicted] = (pc, now)
                self._pending_fifo.append((now, predicted))
                self._release_due(now, out)  # untrained timing issues immediately
        return out


# Bursts (pc, target, stride, demand the target, filler PAEs, seq gap): a
# PC trains on the stride towards one of two far-apart targets and predicts
# it; filler PAEs, each from a PC of its own, predict nothing and only let
# time pass. A target is often predicted again while an earlier prediction
# of it is pending, with other predictions made in between.
tskid_bursts = st.lists(st.tuples(st.integers(0, 7), st.sampled_from([1000, 2000]),
                                  st.sampled_from([7, 11, -13]), st.booleans(),
                                  st.integers(0, 6), st.integers(1, 3)),
                        min_size=1, max_size=12)


def tskid_stream(bursts):
    seq = filler = 0
    for pc, target, stride, demand, fillers, gap in bursts:
        events = [(pc, target - k * stride) for k in range(3, -1 if demand else 0, -1)]
        for _ in range(fillers):
            filler += 1
            events.append((100 + filler, 10 ** 6 + 1000 * filler))
        for who, line in events:
            seq += gap  # strictly increasing
            yield 0x400 + 8 * who, line, seq


@settings(max_examples=200, deadline=None)
@given(lead=st.integers(0, 6), verification_expiry=st.integers(0, 60),
       table_size=st.integers(1, 4), bursts=tskid_bursts)
def test_tskid_dict_order_expiry_matches_fifo_reference(lead, verification_expiry,
                                                        table_size, bursts):
    kw = dict(table_size=table_size, lead=lead,
              verification_expiry=verification_expiry)
    tskid = TskidPrefetcher(**kw)
    ref = ReferenceTskid(**kw)
    for ctx in tskid_stream(bursts):
        assert tskid.on_pae(*ctx) == ref.on_pae(*ctx)
        assert tskid.table == ref.table
        assert tskid._pending == ref._pending
        # the same release order: ties go to the earlier push either way
        assert ([(release, line) for release, _, line in sorted(tskid._delay_queue)]
                == [(release, line) for release, _, line in sorted(ref._delay_queue)])
