"""Hypothesis strategies for small random cache geometries and patterns,
shared by the property tests that simulate a trace."""

from hypothesis import strategies as st

from arsenal_sim.cache import CacheConfig
from arsenal_sim.traces import PatternSpec

PATTERNS = [
    {"kind": "sequential"},
    {"kind": "stride", "stride": 320},
    {"kind": "random_working_set", "working_set_lines": 96,
     "write_fraction": 0.3},
    {"kind": "pc_delta", "streams": [
        {"pc": 0x400, "start": 0, "delta": 128},
        {"pc": 0x408, "start": 1 << 20, "delta": -64}]},
    {"kind": "phased", "segments": [
        {"spec": {"kind": "stride", "stride": 192}, "length": 100},
        {"spec": {"kind": "random_working_set", "working_set_lines": 64},
         "length": 150}]},
]

caches = st.builds(
    CacheConfig,
    sets=st.sampled_from([1, 4, 16]),
    ways=st.sampled_from([1, 2, 4]),
    prefetch_fill_delay=st.sampled_from([0, 3, 40]),
    prefetch_queue_capacity=st.sampled_from([0, 2, 16]),
)
patterns = st.builds(lambda spec, seed: PatternSpec.from_dict({**spec, "seed": seed}),
                     st.sampled_from(PATTERNS), st.integers(0, 50))
# score steps either side of the published 4 and 1, zero included
score_steps = st.integers(0, 8)
