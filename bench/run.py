"""The arsenal-sim benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout. Each operation is one ``arsenal-sim``
command invocation in a fresh process (``bench/op.py``), on inputs that
operation generates from the seed; its report is checked before its
figures count. Operations repeat until the next one would end after
``--seconds``.

With ``--trace 0`` the end-to-end metrics are printed, each the median over
the operations. With ``--trace 1`` untraced and traced operations
alternate, and the per-layer metrics are printed, including the tracing
overhead (traced minus untraced wall time). Why the workloads were chosen,
and what each metric is predicted to move, is in ``bench/RATIONALE.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH)
import checks  # noqa: E402
from tracing import unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0   # the whole run, set-up and checks included

END_TO_END = {
    "events_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "speedup_proxy": "x",
    "coverage": "ratio",
    "accuracy": "ratio",
}


class Operation:
    """The outcome of one command invocation: figures, or why it failed."""

    def __init__(self, figures=None, outcome=None, layers=None, error=None):
        self.figures = figures
        self.outcome = outcome
        self.layers = layers
        self.error = error


def run_operation(workload: str, seed: int, index: int, trace: bool,
                  timeout: float) -> Operation:
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}-{index}")
    os.makedirs(workdir)
    try:
        cmd = [sys.executable, os.path.join(BENCH, "op.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", workdir]
        if trace:
            cmd.append("--trace")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return Operation(error=f"timed out after {timeout:.0f} s")
        if proc.returncode != 0:
            return Operation(error=f"exit code {proc.returncode}: "
                                   f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["exit_code"] != 0:
            return Operation(error=f"arsenal-sim exit code {result['exit_code']}: "
                                   f"{proc.stderr.strip()[-2000:]}")
        with open(result["report_path"], "rb") as fh:
            data = fh.read()
        report = json.loads(data)
        expect = result["expect"]
        violations = checks.check_report(data, report, expect, workload, seed)
        outcome = checks.model_outcome(report, expect["kind"])
        if outcome["accuracy"] is None:
            violations.append("the meta-prefetcher filled no prefetch")
        if violations:
            return Operation(error="; ".join(violations))
        figures = {
            "events_per_s": result["simulated_accesses"] / result["wall_s"],
            "wall_s": result["wall_s"],
            "setup_s": result["setup_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        return Operation(figures, outcome, result["layers"])
    except (OSError, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return Operation(error=f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            started: float) -> tuple[list, list]:
    """Run operations for ``seconds``; returns (untraced, traced) lists.

    When tracing, operations alternate untraced and traced, so both sides
    of the overhead figure see the same load on the machine.
    """
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        index = len(untraced) + len(traced)
        want_trace = trace and index % 2 == 1
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - started))
        op = run_operation(workload, seed, index, want_trace, timeout)
        (traced if want_trace else untraced).append(op)
        print(f"[bench] {workload} seed {seed} op {index + 1}"
              f"{' traced' if want_trace else ''}: "
              + (op.error or " ".join(f"{k}={v:.6g}" for k, v in op.figures.items())),
              file=sys.stderr)
        if op.error is not None:
            break
        elapsed = time.perf_counter() - t0
        if trace and not traced:
            continue
        if elapsed * (index + 2) / (index + 1) > seconds:
            break
    return untraced, traced


def end_to_end(ops: list) -> dict:
    """Run-level figures: medians over the operations that passed their checks."""
    good = [op for op in ops if op.error is None]
    if not good:
        return {}
    out = {name: statistics.median(op.figures[name] for op in good)
           for name in good[0].figures}
    out.update(good[0].outcome)
    return out


def per_layer(untraced: list, traced: list) -> dict:
    good = [op for op in traced if op.error is None]
    if not good:
        return {}
    out = {name: statistics.median(op.layers[name] for op in good)
           for name in good[0].layers}
    traced_wall = statistics.median(op.figures["wall_s"] for op in good)
    untraced_wall = statistics.median(op.figures["wall_s"] for op in untraced
                                      if op.error is None)
    out["tracing.wall_s"] = traced_wall
    out["tracing.overhead_s"] = traced_wall - untraced_wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED,
                        help=f"input seed (default {checks.DEFAULT_SEED}; "
                             f"held-out seed {checks.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "arsenal_sim", "cli.py")):
        print(f"bench: error: no arsenal_sim sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: error: --seed must be >= 0", file=sys.stderr)
        return 2

    # compile the package once so no operation's set-up pays for bytecode
    warm = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = [{SRC!r}, {BENCH!r}]; "
         "import arsenal_sim.cli, tracing, workloads"], capture_output=True, text=True)
    if warm.returncode != 0:
        print(f"bench: error: cannot import arsenal_sim: {warm.stderr.strip()}",
              file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    try:
        untraced, traced = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), started)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    ops = untraced + traced
    failed = sum(op.error is not None for op in ops)
    # simulated figures repeat exactly for a seed; any difference is a failure
    outcomes = {json.dumps(op.outcome, sort_keys=True) for op in ops if op.error is None}
    if len(outcomes) > 1:
        failed = len(ops)
        print("[bench] simulated figures differ between operations", file=sys.stderr)

    if args.trace:
        layer = per_layer(untraced, traced)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layer.items()}
    else:
        e2e = end_to_end(untraced)
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items() if name in e2e}
        # printed, not listed: oracle_ratio exists for compare only
        if "oracle_ratio" in e2e:
            print(f"oracle_ratio {e2e['oracle_ratio']!r} ratio")
    print(f"failed_ratio {failed / len(ops)!r} ratio ({failed} of {len(ops)} operations)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
