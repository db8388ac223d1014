"""The bench's pinned reports (``bench/checks.py``) still come out byte for byte.

Each pinned ``(workload, seed)`` is built by ``bench/workloads.py`` into a
temporary directory and run through ``cli.main`` in this process, so a change
to any report shows up here rather than first in a benchmark run. The bench
modules are loaded from their files and left as they are.
"""

import importlib.util
import json
import pathlib

import pytest

from arsenal_sim import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")


@pytest.mark.parametrize("workload,seed", sorted(checks.PINNED_DIGESTS))
def test_pinned_report_is_unchanged(tmp_path, workload, seed):
    invocation = workloads.WORKLOADS[workload](seed, str(tmp_path))
    assert cli.main(invocation.argv) == 0
    data = pathlib.Path(invocation.report_path).read_bytes()
    assert checks.check_report(data, json.loads(data), invocation.expect(),
                               workload, seed) == []
