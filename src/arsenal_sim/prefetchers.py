"""Component prefetchers behind a uniform shadow interface.

Every prefetcher exposes ``on_pae(pc, line, seq) -> list[int]``: given one
prefetch activation event (a miss or prefetch hit) as the PC, the demanded
line and the tick, return zero or more candidate line addresses.
Prefetchers never look at cache contents or at each other; replaying the
same PAE sequence yields the same candidates.

Five components: next-line with a score-driven degree, an IP-indexed stride
predictor, a signature-path predictor with recursive lookahead (spp), a
multi-lookahead offset scorer (mlop), and tskid: the IP-indexed stride table
at degree 1, plus timing that delays each issue to match the learned
trigger-to-use distance.
"""

import heapq
from collections import deque

DEFAULT_MAX_LINE = (1 << 58) - 1  # 64-bit byte addresses, 64-byte lines

# Each class's RANGES bounds its numeric constructor parameters, as (low,
# high) with a None end unbounded. MAX_PER_PAE caps each that sets how much a
# PAE walks or allocates (a degree, a lookahead depth, mlop's offsets and
# levels, spp's slots and GHR), so no value can stall a run or exhaust memory.
MAX_PER_PAE = 64


class NextLinePrefetcher:
    """Prefetch the next ``degree`` lines after every trigger.

    The degree follows the component's sandbox score: 1 + score // divisor,
    clamped to [1, max_degree].
    """

    RANGES = {"degree": (1, MAX_PER_PAE), "max_degree": (1, MAX_PER_PAE),
              "degree_divisor": (1, None)}

    def __init__(self, degree: int = 1, max_degree: int = 5,
                 degree_divisor: int = 512, max_line: int = DEFAULT_MAX_LINE):
        if degree > max_degree:
            raise ValueError("component_params.next_line field degree must be "
                             f"<= max_degree, got {degree} > {max_degree}")
        self.degree = degree
        self.max_degree = max_degree
        self.degree_divisor = degree_divisor
        self.max_line = max_line

    def set_degree(self, score: int) -> None:
        d = 1 + score // self.degree_divisor
        self.degree = min(self.max_degree, d)

    def on_pae(self, pc: int, line: int, seq: int) -> list[int]:
        top = min(line + self.degree, self.max_line)
        return list(range(line + 1, top + 1))


def _train_stride(entry: list, delta: int) -> None:
    # entry: [last_line, stride, confidence]; saturating confidence in [0, 3].
    # A mismatch that exhausts confidence re-learns: store the new delta and
    # restart at confidence 1, mirroring the first observation of a stride.
    if delta == entry[1]:
        if entry[2] < 3:
            entry[2] += 1
    else:
        entry[2] = entry[2] - 1 if entry[2] > 0 else 0
        if entry[2] == 0:
            entry[1] = delta
            entry[2] = 1


class IpStridePrefetcher:
    """Per-PC stride table: 64 LRU entries, degree-8 strided candidates."""

    RANGES = {"table_size": (1, None), "degree": (1, MAX_PER_PAE)}
    FRESH = (0, 0)  # a new PC's entry after its last_line: stride, confidence

    def __init__(self, table_size: int = 64, degree: int = 8,
                 max_line: int = DEFAULT_MAX_LINE):
        self.table_size = table_size
        self.degree = degree
        self.max_line = max_line
        # pc -> [last_line, stride, confidence, ...], a new PC's
        # [line, *FRESH], in touch order
        self.table: dict[int, list] = {}

    def on_pae(self, pc: int, line: int, seq: int) -> list[int]:
        table = self.table
        entry = table.pop(pc, None)
        if entry is None:
            if len(table) >= self.table_size:
                del table[next(iter(table))]
            table[pc] = [line, *self.FRESH]
            return []
        table[pc] = entry
        delta = line - entry[0]
        _train_stride(entry, delta)
        entry[0] = line
        stride = entry[1]
        if entry[2] >= 2 and stride != 0:
            max_line = self.max_line
            out = []
            cand = line
            for _ in range(self.degree):
                cand += stride
                if 0 <= cand <= max_line:
                    out.append(cand)
            return out
        return []


# The stride table's step, as TSKID calls it: by this name, a wrapper put on
# IpStridePrefetcher.on_pae from outside sees only IP-stride's own PAEs.
_stride_step = IpStridePrefetcher.on_pae


def _encode_delta(delta: int) -> int:
    # sign-magnitude, 7 bits: bit 6 sign, bits 0-5 magnitude
    if delta < 0:
        return 0x40 | (-delta)
    return delta


def _rank(slot: list) -> tuple:
    # an SPP slot's rank: count, then smaller |delta|, then positive; deltas
    # in an entry are distinct, so ranks never tie
    delta, count = slot
    return count, -abs(delta), delta > 0


class SppPrefetcher:
    """Signature-path predictor with recursive lookahead.

    Per page, a 12-bit signature compresses the recent in-page delta history
    (sig' = ((sig << 3) XOR encode(delta)) mod 2^12). The pattern table maps
    signatures to up to four observed deltas with confidence counters; the
    lookahead loop walks the table from the page's updated signature,
    multiplying per-step confidence into a path confidence and emitting
    predicted lines until the path drops below threshold, the chain reaches
    its depth cap, or it steps off the page (which parks a resume point in
    the global history register so the next page can pick the path up).
    """

    SIG_MASK = 0xFFF
    SIG_SHIFT = 3

    # a path's confidence starts at 1 and never rises
    RANGES = {"st_entries": (1, None), "pt_entries": (1, None),
              "pt_slots": (1, MAX_PER_PAE), "counter_max": (1, None),
              "ghr_entries": (1, MAX_PER_PAE), "lookahead_depth": (1, MAX_PER_PAE),
              "confidence_threshold": (None, 1), "page_lines": (1, None)}

    def __init__(self, st_entries: int = 256, pt_entries: int = 512,
                 pt_slots: int = 4, counter_max: int = 15,
                 ghr_entries: int = 8, lookahead_depth: int = 8,
                 confidence_threshold: float = 0.25,
                 page_lines: int = 64, max_line: int = DEFAULT_MAX_LINE):
        self.st_entries = st_entries
        self.pt_entries = pt_entries
        self.pt_slots = pt_slots
        self.counter_max = counter_max
        self.lookahead_depth = lookahead_depth
        self.confidence_threshold = confidence_threshold
        self.page_lines = page_lines
        self.max_line = max_line
        # page -> [signature, last_offset], in touch order
        self.signature_table: dict[int, list] = {}
        # pt index -> [c_sig, slots, best]; slot = [delta, c_delta], and
        # best is the slot of highest _rank
        self.pattern_table: dict[int, list] = {}
        # the last ghr_entries resume points (offset, signature), oldest
        # first: where a path stepped off its page, and its next signature
        self.ghr: deque[tuple[int, int]] = deque(maxlen=ghr_entries)

    def _train(self, sig: int, delta: int) -> None:
        idx = sig % self.pt_entries
        entry = self.pattern_table.get(idx)
        if entry is None:
            slot = [delta, 1]
            self.pattern_table[idx] = [1, [slot], slot]
            return
        slots = entry[1]
        # a halving can reorder slots, and so can replacing the best one
        rerank = entry[0] >= self.counter_max
        if rerank:
            # keep ratios meaningful: halve everything before counting on
            entry[0] >>= 1
            for slot in slots:
                slot[1] >>= 1
        entry[0] += 1
        for slot in slots:
            if slot[0] == delta:
                if slot[1] < self.counter_max:
                    slot[1] += 1
                break
        else:
            slot = [delta, 1]
            if len(slots) < self.pt_slots:
                slots.append(slot)
            else:
                counts = [s[1] for s in slots]
                weakest = counts.index(min(counts))
                rerank = rerank or slots[weakest] is entry[2]
                slots[weakest] = slot
        if rerank:
            entry[2] = max(slots, key=_rank)
        elif slot is not entry[2] and _rank(slot) > _rank(entry[2]):
            entry[2] = slot

    def _ghr_bootstrap(self, offset: int) -> int:
        for resume_offset, sig in reversed(self.ghr):
            if resume_offset == offset:
                return sig
        return 0

    def on_pae(self, pc: int, line: int, seq: int) -> list[int]:
        page_lines = self.page_lines
        page, offset = divmod(line, page_lines)
        st = self.signature_table
        entry = st.pop(page, None)
        if entry is None:
            sig = self._ghr_bootstrap(offset)
            if len(st) >= self.st_entries:
                del st[next(iter(st))]
            st[page] = [sig, offset]
        else:
            st[page] = entry
            delta = offset - entry[1]
            sig = entry[0]
            if delta:  # both offsets lie in [0, page_lines)
                self._train(sig, delta)
                sig = ((sig << self.SIG_SHIFT) ^ _encode_delta(delta)) & self.SIG_MASK
            entry[0] = sig
            entry[1] = offset
        return self._lookahead(sig, page, offset)

    def _lookahead(self, sig: int, page: int, offset: int) -> list[int]:
        threshold = self.confidence_threshold
        page_lines = self.page_lines
        page_base = page * page_lines
        pt, pt_entries = self.pattern_table, self.pt_entries
        shift, mask = self.SIG_SHIFT, self.SIG_MASK
        confidence = 1.0
        out = []
        while len(out) < self.lookahead_depth:
            entry = pt.get(sig % pt_entries)
            if entry is None:
                break
            delta, c_delta = entry[2]
            # _train keeps c_delta <= c_sig, so confidence never rises
            confidence *= c_delta / entry[0]
            if confidence < threshold:
                break
            nxt = offset + delta
            # on_pae's signature update, with _encode_delta inlined
            sig = ((sig << shift) ^ (0x40 | -delta if delta < 0 else delta)) & mask
            if nxt < 0 or nxt >= page_lines:
                # |delta| < page_lines, so nxt lies on an adjacent page;
                # a repeat of the newest point would push out older ones
                point = (nxt % page_lines, sig)
                if not self.ghr or self.ghr[-1] != point:
                    self.ghr.append(point)
                break
            cand = page_base + nxt
            if cand > self.max_line:
                break
            out.append(cand)
            offset = nxt
        return out


class MlopPrefetcher:
    """Offset scorer over sparse per-zone touch stamps with lookahead levels.

    Each zone maps its touched lines to the PAE count at their last touch.
    For a trigger at in-zone index x, offset o earns a point at lookahead
    level l when line x-o was touched at least l PAEs ago (the offset would
    have predicted this access l-or-more triggers in advance): scores[o][a]
    counts touches at age a capped at levels, and level l's score is the sum
    over a >= l. Every ROUND triggers, the best offset per level (ties:
    smaller magnitude, positive first) is selected if it clears the score
    threshold; the deduplicated selection is emitted until the next round.
    """

    RANGES = {"zones": (1, None), "levels": (1, MAX_PER_PAE),
              "max_offset": (1, MAX_PER_PAE), "round_paes": (1, None),
              "zone_lines": (1, None)}

    def __init__(self, zones: int = 64, levels: int = 8, max_offset: int = 16,
                 round_paes: int = 256, score_threshold: int = 16,
                 zone_lines: int = 64, max_line: int = DEFAULT_MAX_LINE):
        self.zones = zones
        self.levels = levels
        self.round_paes = round_paes
        self.score_threshold = score_threshold
        self.zone_lines = zone_lines
        self.max_line = max_line
        # zone -> {in-zone index: PAE count at its last touch}, zones in
        # touch order
        self.zone_table: dict[int, dict[int, int]] = {}
        # preference order for ties: 1, -1, 2, -2, ...
        self._offsets = [o for mag in range(1, max_offset + 1) for o in (mag, -mag)]
        self.scores = {o: [0] * (levels + 1) for o in self._offsets}
        self.selected_offsets: list[int] = []
        self._pae_count = 0

    def _end_round(self) -> None:
        for col in self.scores.values():  # level l: every capped age >= l
            for level in range(self.levels - 1, 0, -1):
                col[level] += col[level + 1]
        chosen = []
        for level in range(1, self.levels + 1):
            # the first offset in preference order wins a tie
            best = max(self._offsets, key=lambda o: self.scores[o][level])
            if self.scores[best][level] >= self.score_threshold and best not in chosen:
                chosen.append(best)
        self.selected_offsets = chosen
        self.scores = {o: [0] * (self.levels + 1) for o in self._offsets}

    def on_pae(self, pc: int, line: int, seq: int) -> list[int]:
        self._pae_count = now = self._pae_count + 1
        zone_lines = self.zone_lines
        zone, x = divmod(line, zone_lines)
        table = self.zone_table
        stamps = table.pop(zone, None)
        if stamps is None:
            if len(table) >= self.zones:
                del table[next(iter(table))]
            stamps = {}
        table[zone] = stamps
        levels = self.levels
        scores = self.scores
        touched = stamps.get
        for o in self._offsets:
            stamp = touched(x - o)
            if stamp is not None:
                age = now - stamp
                scores[o][age if age < levels else levels] += 1
        stamps[x] = now
        if now % self.round_paes == 0:
            self._end_round()
        max_line = self.max_line
        out = []
        for o in self.selected_offsets:
            nxt = x + o
            if 0 <= nxt < zone_lines:
                cand = line + o
                if cand <= max_line:
                    out.append(cand)
        return out


class TskidPrefetcher(IpStridePrefetcher):
    """The stride table at degree 1, plus timing.

    Each prediction is verified against later demands to learn the
    trigger-to-use distance for its PC (the entry's use_distance); later
    predictions are parked in a delay queue and released that many ticks
    (minus a fixed lead) after their trigger.
    """

    RANGES = {"table_size": (1, None), "lead": (0, None),
              "verification_expiry": (0, None)}
    FRESH = (0, 0, 0)  # stride, confidence, use_distance

    def __init__(self, table_size: int = 64, lead: int = 4,
                 verification_expiry: int = 1024,
                 max_line: int = DEFAULT_MAX_LINE):
        super().__init__(table_size, 1, max_line)
        self.lead = lead
        self.verification_expiry = verification_expiry
        # (release_seq, trigger_seq, line); trigger seqs rise strictly per
        # push, so they break release ties in push order
        self._delay_queue: list[tuple[int, int, int]] = []
        # predicted_line -> (pc, trigger_seq), in trigger order: a prediction
        # is popped and re-inserted, so the oldest is always the first key
        self._pending: dict[int, tuple[int, int]] = {}

    def _expire_pending(self, now: int) -> None:
        pending = self._pending
        horizon = now - self.verification_expiry
        while pending:
            line = next(iter(pending))
            if pending[line][1] >= horizon:
                break
            del pending[line]

    def _release_due(self, now: int, out: list[int]) -> None:
        dq = self._delay_queue
        while dq and dq[0][0] <= now:
            out.append(heapq.heappop(dq)[2])

    def on_pae(self, pc: int, line: int, seq: int) -> list[int]:
        out: list[int] = []
        self._release_due(seq, out)
        self._expire_pending(seq)
        rec = self._pending.pop(line, None)
        if rec is not None:
            owner_pc, trigger_seq = rec
            owner = self.table.get(owner_pc)
            if owner is not None:
                owner[3] = seq - trigger_seq
        for predicted in _stride_step(self, pc, line, seq):  # degree 1: at most one
            release = seq + max(0, self.table[pc][3] - self.lead)
            heapq.heappush(self._delay_queue, (release, seq, predicted))
            self._pending.pop(predicted, None)
            self._pending[predicted] = (pc, seq)
            self._release_due(seq, out)  # untrained timing issues immediately
        return out
