"""The Bloom filters hash no more elements on the bench's workloads than now.

Hashing is most of the filters' cost, and the bench's run-to-run spread is
wider than a sizeable rise in it, while a count of ``BloomFilter._hash``
calls is exact. Each workload is built by ``bench/workloads.py`` at seed 1
into a temporary directory and run through ``cli.main`` in this process;
the bench modules are loaded from their files and left as they are.
"""

import importlib.util
import pathlib

import pytest

from arsenal_sim import cli
from arsenal_sim.bloom import BloomFilter

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# _hash calls at seed 1: each element is hashed only when a query for a
# non-member needs the bit table, and its positions are memoised
HASH_BUDGET = {"phased-tc2": 25_287, "hotset-tc2": 1_737, "compare-tc1-files": 7_723}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


@pytest.mark.parametrize("workload", sorted(HASH_BUDGET))
def test_hashes_stay_within_budget(tmp_path, monkeypatch, workload):
    calls = [0]
    hash_ = BloomFilter._hash

    def counted(self, element):
        calls[0] += 1
        return hash_(self, element)

    monkeypatch.setattr(BloomFilter, "_hash", counted)
    invocation = workloads.WORKLOADS[workload](1, str(tmp_path))
    assert cli.main(invocation.argv) == 0
    assert 0 < calls[0] <= HASH_BUDGET[workload]
