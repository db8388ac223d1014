"""Byte-for-byte pins of every engine's output.

``golden_report.json`` (``test_metrics``) pins one arsenal-tc2 ``run``.
The files here pin the rest: a tc1 and a tc2 ``compare``, which report
each engine's summary metrics per trace; one arsenal-tc1 ``run``, which
adds the tc1 selection timeline and the mlop and tskid ``by_source`` rows
that ``compare`` does not report; and one ``run`` of each standalone
engine and of ``none``, which pin the ``engine_detail``, ``prefetch`` and
``per_component`` sections that no ``compare`` reports. All of them read
the same three 6,144-event pattern traces.

The files are regenerated only on purpose, with a CHANGES.md note that
says why: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import pathlib

import pytest

from arsenal_sim.cli import main

DATA = pathlib.Path(__file__).parent / "data"
SEED = 17
LENGTH = 6144

# pc-stride: four per-PC streams of 1, 2, 3 and 5 lines a step
# hotset: random lines of a set 1.125x the default cache, 30% writes
PATTERNS = {
    "pc-stride": {"kind": "pc_delta", "streams": [
        {"pc": 0x401000 + 16 * i, "start": (i + 1) << 28, "delta": lines * 64}
        for i, lines in enumerate((1, 2, 3, 5))]},
    "hotset": {"kind": "random_working_set", "start": 1 << 30, "pc": 0x402000,
               "working_set_lines": 576, "write_fraction": 0.3},
    "sequential": {"kind": "sequential", "start": 3 << 30, "pc": 0x403000},
}


def compare_config(policy: str) -> dict:
    return {"policy": policy, "seed": SEED, "traces": [
        {"label": label, "pattern": dict(pattern, seed=SEED), "length": LENGTH}
        for label, pattern in PATTERNS.items()]}


# the three traces back to back, as the phases of one run
RUN_TC1 = {"engine": "arsenal-tc1", "seed": SEED, "label": "golden-tc1",
           "length": LENGTH * len(PATTERNS),
           "pattern": {"kind": "phased", "seed": SEED, "segments": [
               {"spec": pattern, "length": LENGTH}
               for pattern in PATTERNS.values()]}}

STANDALONE_ENGINES = ("none", "spp", "ip-stride", "next-line", "mlop", "tskid")

GOLDENS = {
    "golden_compare_tc1.json": ("compare", compare_config("tc1")),
    "golden_compare_tc2.json": ("compare", compare_config("tc2")),
    "golden_run_tc1.json": ("run", RUN_TC1),
    **{f"golden_run_{engine.replace('-', '_')}.json":
       ("run", dict(RUN_TC1, engine=engine, label=f"golden-{engine}"))
       for engine in STANDALONE_ENGINES},
}


def write_report(directory: pathlib.Path, name: str) -> pathlib.Path:
    """Run the CLI on golden ``name``'s config; the report's path."""
    verb, config = GOLDENS[name]
    path = directory / f"{name}.config"
    path.write_text(json.dumps(config))
    out = directory / name
    assert main([verb, "--config", str(path), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_report_matches_golden(tmp_path, name):
    assert write_report(tmp_path, name).read_bytes() == (DATA / name).read_bytes()


if __name__ == "__main__":
    for golden in sorted(GOLDENS):
        print(write_report(DATA, golden))
        (DATA / f"{golden}.config").unlink()
