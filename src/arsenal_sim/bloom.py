"""Bloom filters for shadow-prefetch membership tracking.

Each component prefetcher owns one filter; candidate line addresses go in,
demanded line addresses are queried against it. Sizing follows the standard
optimal formulas from a projected capacity and a target false-positive
probability. Every Bloom filter counts its false-positive probes, and an
exact-set variant gives ground truth. Filter kind "paired" is an alias of
"bloom", kept for acceptance criterion 5 and the configs that name it.

The Bloom filter gives the answers of an m-bit table under Kirsch and
Mitzenmacher's double hashing ("Less Hashing, Same Performance: Building a
Better Bloom Filter"), but computes an element's positions only when a
query could turn out a false positive: most inserts repeat a member of the
same phase, and a query for a member is True without looking at the table.
"""

import math
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    # splitmix64 finalizer: cheap, well-distributed, platform-independent
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def component_seed(master_seed: int, component_index: int) -> int:
    """Derive a per-component filter seed from a master seed and an index."""
    return _mix64((master_seed & _MASK64) + (component_index + 1) * _GOLDEN)


def derive_parameters(n: int, p: float) -> tuple[int, int]:
    """Optimal bit-table size m and hash count k for n entries at rate p.

    m = ceil(n * ln(1/p) / (ln 2)^2), k = max(1, round((m/n) * ln 2)).
    """
    if n < 1:
        raise ValueError("projected capacity must be at least 1")
    if not (0.0 < p < 1.0):
        raise ValueError("false-positive probability must be in (0, 1)")
    try:  # n beyond float range, or a p so small that 1/p is infinite
        m = math.ceil(n * math.log(1.0 / p) / (math.log(2.0) ** 2))
    except OverflowError:
        raise ValueError(f"projected capacity {n} at false-positive probability "
                         f"{p!r} sizes a bit table beyond float range") from None
    k = max(1, int(round((m / n) * math.log(2.0))))
    return m, k


@dataclass(frozen=True)
class BloomParams:
    projected_capacity: int
    target_fpp: float
    bit_table_size: int
    hash_count: int
    seed: int

    @classmethod
    def create(cls, n: int, p: float, seed: int = 0) -> "BloomParams":
        m, k = derive_parameters(n, p)
        return cls(n, p, m, k, seed & _MASK64)

    @property
    def bit_table_bytes(self) -> int:
        return (self.bit_table_size + 7) // 8


class BloomFilter:
    """Approximate membership set over line addresses, double hashing.

    Bit i of element x is (h1(x) + i*h2(x)) mod m for two seeded 64-bit
    hashes. No false negatives; false positives at roughly the target rate
    once the filter holds its projected capacity.

    The filter computes an element's positions only when an answer could
    be a false positive. Its answers are those of the m-bit table,
    false positives included:

    - The elements inserted since the last ``clear`` are kept as a member
      set. A repeat insert is a set lookup, and a query for a member is
      True at once, since a Bloom filter has no false negatives.
    - A new member is queued. Its positions are set only when a query for
      a non-member needs the bit table, or when ``bits`` is read. The
      table is held as the set of its set-bit positions, so such a query
      is a superset test.
    - ``false_positive_probes`` counts True answers for non-members, which
      only the bit table gives; ``clear`` keeps the count.
    - Each element's k positions are memoised as a tuple, which depends
      only on the element and the seeds. ``clear`` keeps the memo, so the
      shadow streams' sliding windows are not rehashed phase after phase.
      The memo empties before it would grow past the projected capacity.
    """

    __slots__ = ("params", "inserted_count", "false_positive_probes", "_m", "_k",
                 "_seed_a", "_seed_b", "_set_bits", "members", "_queued",
                 "_positions")

    def __init__(self, capacity: int, fpp: float, seed: int = 0):
        self.params = params = BloomParams.create(capacity, fpp, seed)
        self._m = params.bit_table_size
        self._k = params.hash_count
        self._seed_a = params.seed
        self._seed_b = _mix64(params.seed ^ _GOLDEN)
        self._set_bits: set[int] = set()
        self.members: set[int] = set()
        self._queued: list[int] = []
        self.inserted_count = 0
        self.false_positive_probes = 0
        self._positions: dict[int, tuple[int, ...]] = {}

    @property
    def bits(self) -> bytearray:
        """The m-bit table, bit p at byte p >> 3, bit p & 7 (a fresh copy)."""
        self._set_queued()
        table = bytearray(self.params.bit_table_bytes)
        for p in self._set_bits:
            table[p >> 3] |= 1 << (p & 7)
        return table

    def _hash(self, element: int) -> tuple[int, ...]:
        h1 = _mix64(element ^ self._seed_a)
        h2 = _mix64(element ^ self._seed_b) | 1
        # (h1 + i*h2) mod m over small ints: h1 and h2 reduced first, and a
        # step of m where h2 % m == 0; the positions are the same
        m = self._m
        a = h1 % m
        b = h2 % m or m
        pos = tuple([p % m for p in range(a, a + self._k * b, b)])
        memo = self._positions
        if len(memo) >= self.params.projected_capacity:
            memo.clear()
        memo[element] = pos
        return pos

    def _set_queued(self) -> None:
        get = self._positions.get
        hash_ = self._hash
        self._set_bits.update(*[get(x) or hash_(x) for x in self._queued])
        self._queued.clear()

    def insert(self, element: int) -> None:
        self.inserted_count += 1
        if element not in self.members:
            self.members.add(element)
            self._queued.append(element)

    def query(self, element: int) -> bool:
        members = self.members
        if element in members:
            return True
        if not members:
            return False
        if self._queued:
            self._set_queued()
        answer = self._set_bits.issuperset(
            self._positions.get(element) or self._hash(element))
        self.false_positive_probes += answer
        return answer

    def clear(self) -> None:
        """Reset to the freshly-constructed state (same params and seed)
        but for ``false_positive_probes`` and the position memo, which
        ``_hash`` empties only once it holds the projected capacity."""
        self._set_bits.clear()
        self.members.clear()
        self._queued.clear()
        self.inserted_count = 0


class ExactFilter:
    """Drop-in exact-set replacement for BloomFilter (ground truth)."""

    __slots__ = ("members",)

    def __init__(self):
        self.members: set[int] = set()

    def insert(self, element: int) -> None:
        self.members.add(element)

    def query(self, element: int) -> bool:
        return element in self.members

    def clear(self) -> None:
        self.members.clear()


FILTER_KINDS = ("bloom", "exact", "paired")


def make_filter(kind: str, capacity: int, fpp: float, seed: int):
    """Build a shadow filter of one of FILTER_KINDS ('paired' is a Bloom one)."""
    if kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind: {kind!r}")
    return ExactFilter() if kind == "exact" else BloomFilter(capacity, fpp, seed)
