import math
import random
from functools import partial

import pytest

from arsenal_sim.bloom import (
    BloomFilter,
    BloomParams,
    ExactFilter,
    component_seed,
    derive_parameters,
    make_filter,
)


class TestDeriveParameters:
    def test_published_operating_point(self):
        # hand-evaluated: ceil(2000 * ln(100) / ln(2)^2) = 19171, k = round(9.5855 * ln 2) = 7
        m, k = derive_parameters(2000, 0.01)
        assert m == 19171
        assert k == 7
        table_bytes = (m + 7) // 8
        assert table_bytes == 2397
        assert abs(table_bytes - 2399) / 2399 < 0.01

    def test_single_element_half_rate(self):
        assert derive_parameters(1, 0.5) == (2, 1)

    def test_thousand_entries(self):
        assert derive_parameters(1000, 0.01) == (9586, 7)

    def test_matches_formula_for_random_inputs(self):
        rng = random.Random(1234)
        for _ in range(50):
            n = rng.randrange(1, 100000)
            p = rng.uniform(1e-6, 0.5)
            m, k = derive_parameters(n, p)
            assert m == math.ceil(n * math.log(1 / p) / math.log(2) ** 2)
            assert k == max(1, round(m / n * math.log(2)))

    @pytest.mark.parametrize("n,p", [(0, 0.01), (-5, 0.01), (10, 0.0),
                                     (10, 1.0), (10, 1.5), (10, -0.1)])
    def test_rejects_bad_inputs(self, n, p):
        with pytest.raises(ValueError):
            derive_parameters(n, p)


class TestBloomFilter:
    def test_insert_then_query(self):
        bf = BloomFilter(100, 0.01, seed=1)
        bf.insert(42)
        assert bf.query(42)

    def test_empty_filter_queries_false(self):
        bf = BloomFilter(100, 0.01, seed=1)
        for x in (0, 1, 7, 10**9):
            assert not bf.query(x)

    def test_duplicate_insert_counts_but_leaves_bits(self):
        bf = BloomFilter(100, 0.01, seed=1)
        bf.insert(7)
        snapshot = bytes(bf.bits)
        bf.insert(7)
        assert bf.inserted_count == 2
        assert bytes(bf.bits) == snapshot

    def test_no_false_negatives_bulk(self):
        bf = BloomFilter(2000, 0.01, seed=99)
        rng = random.Random(99)
        elements = [rng.randrange(1 << 58) for _ in range(100_000)]
        for x in elements:
            bf.insert(x)
        assert all(bf.query(x) for x in elements)

    def test_empirical_fpp_within_twice_target(self):
        bf = BloomFilter(2000, 0.01, seed=7)
        rng = random.Random(7)
        members = set()
        while len(members) < 2000:
            members.add(rng.randrange(1 << 40))
        for x in members:
            bf.insert(x)
        probes = 0
        positives = 0
        while probes < 100_000:
            x = rng.randrange(1 << 40, 1 << 41)  # disjoint from member range
            probes += 1
            if bf.query(x):
                positives += 1
        assert positives / probes <= 0.02

    def test_clear_resets_to_fresh_state(self):
        bf = BloomFilter(500, 0.01, seed=3)
        fresh = BloomFilter(500, 0.01, seed=3)
        inserted = list(range(100))
        for x in inserted:
            bf.insert(x)
        bf.clear()
        assert bytes(bf.bits) == bytes(fresh.bits)
        assert bf.inserted_count == 0
        assert not any(bf.query(x) for x in inserted)

    def test_clear_on_empty_is_noop(self):
        bf = BloomFilter(500, 0.01, seed=3)
        bf.clear()
        assert bf.inserted_count == 0
        assert not any(bf.bits)

    def test_insert_clear_insert(self):
        bf = BloomFilter(500, 0.01, seed=3)
        bf.insert(11)
        bf.clear()
        bf.insert(11)
        assert bf.query(11)

    def test_hash_determinism_across_instances(self):
        a = BloomFilter(1000, 0.01, seed=42)
        b = BloomFilter(1000, 0.01, seed=42)
        rng = random.Random(5)
        for _ in range(500):
            x = rng.randrange(1 << 58)
            a.insert(x)
            b.insert(x)
        assert bytes(a.bits) == bytes(b.bits)

    def test_different_seeds_give_different_layouts(self):
        a = BloomFilter(1000, 0.01, seed=component_seed(0xA5EE, 0))
        b = BloomFilter(1000, 0.01, seed=component_seed(0xA5EE, 1))
        for x in range(200):
            a.insert(x)
            b.insert(x)
        assert bytes(a.bits) != bytes(b.bits)

    def test_params_invariant(self):
        p = BloomParams.create(2000, 0.01, seed=5)
        assert p.bit_table_size == 19171
        assert p.hash_count == 7
        assert p.bit_table_bytes == 2397


class CountingBloom(BloomFilter):
    """A BloomFilter that lists the elements whose positions it computes."""

    __slots__ = ("hashed",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hashed = []

    def _hash(self, element):
        self.hashed.append(element)
        return super()._hash(element)


class TestLaziness:
    def test_repeat_inserts_and_member_queries_compute_no_positions(self):
        bf = CountingBloom(100, 0.01, seed=1)
        assert not bf.query(99)  # an empty filter has nothing to compare
        for _ in range(5):
            bf.insert(7)
        assert all(bf.query(7) for _ in range(5))
        assert bf.inserted_count == 5
        assert bf.hashed == []

    def test_non_member_query_sets_every_queued_member_first(self):
        bf = CountingBloom(100, 0.01, seed=1)
        fresh = BloomFilter(100, 0.01, seed=1)
        for x in (3, 1, 2, 3, 1):
            bf.insert(x)
            fresh.insert(x)
        assert not bf.query(99)
        assert bf.hashed == [3, 1, 2, 99]
        # the members' bits are set: reading the table computes nothing more
        assert bytes(bf.bits) == bytes(fresh.bits)
        assert bf.hashed == [3, 1, 2, 99]

    def test_bits_sets_the_queued_members(self):
        bf = CountingBloom(100, 0.01, seed=1)
        bf.insert(4)
        bf.insert(5)
        assert any(bf.bits)
        assert bf.hashed == [4, 5]

    def test_memo_outlives_clear(self):
        bf = CountingBloom(100, 0.01, seed=1)
        bf.insert(1)
        assert not bf.query(99)
        for _ in range(3):
            bf.clear()
        bf.insert(1)
        assert not bf.query(99)
        assert bf.hashed == [1, 99]   # both from the memo

    def test_memo_empties_at_the_projected_capacity(self):
        bf = CountingBloom(4, 0.01, seed=1)
        steps = [*(partial(bf.insert, x) for x in range(1, 5)),
                 partial(bf.query, 99), bf.clear, partial(bf.insert, 1),
                 partial(bf.query, 98)]
        for step in steps:
            step()
            assert len(bf._positions) <= 4   # the projected capacity
        # 99 found the memo full: it emptied, and 1 is hashed again
        assert bf.hashed == [1, 2, 3, 4, 99, 1, 98]


class TestExactAndPaired:
    def test_exact_filter_is_ground_truth(self):
        f = ExactFilter()
        f.insert(9)
        assert f.query(9)
        assert not f.query(10)
        f.clear()
        assert not f.query(9)

    def test_paired_filter_counts_false_positive_probes(self):
        pf = BloomFilter(50, 0.2, seed=1)  # small and sloppy on purpose
        rng = random.Random(11)
        for _ in range(200):
            pf.insert(rng.randrange(1 << 20))
        fp = 0
        for x in range(2_000_000, 2_010_000):
            before = pf.false_positive_probes
            answer = pf.query(x)
            if answer:
                # absent element, so any hit is an fp
                assert pf.false_positive_probes == before + 1
                fp += 1
        assert pf.false_positive_probes == fp
        assert fp > 0  # at this sizing some fps are expected

    def test_paired_filter_never_flags_members(self):
        pf = BloomFilter(100, 0.01, seed=2)
        for x in range(100):
            pf.insert(x)
        for x in range(100):
            assert pf.query(x)
            assert pf.false_positive_probes == 0
        assert pf.false_positive_probes == 0

    def test_make_filter_kinds(self):
        assert isinstance(make_filter("bloom", 10, 0.1, 1), BloomFilter)
        assert isinstance(make_filter("exact", 10, 0.1, 1), ExactFilter)
        assert isinstance(make_filter("paired", 10, 0.1, 1), BloomFilter)
        with pytest.raises(ValueError):
            make_filter("counting", 10, 0.1, 1)
