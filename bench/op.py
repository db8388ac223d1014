"""One operation of the benchmark, in a fresh process.

Set-up (importing ``arsenal_sim`` and generating the workload's inputs) is
timed first, then one ``arsenal_sim.cli.main`` invocation, optionally under
the per-layer tracer. The last line of standard output is a JSON object
with the timings, the process's peak resident memory, the invocation's
exit code and, when traced, the per-layer metrics.

    python3 bench/op.py --workload NAME --seed N --workdir DIR [--trace]
"""

import time

_t_setup = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import arsenal_sim.cli
    import workloads
    if not os.path.abspath(arsenal_sim.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported arsenal_sim from {arsenal_sim.cli.__file__}, "
                           f"not from {SRC}")
    invocation = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - _t_setup

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        exit_code = arsenal_sim.cli.main(invocation.argv)
    finally:
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_code": exit_code,
        "report_path": invocation.report_path,
        "expect": invocation.expect(),
        "simulated_accesses": invocation.simulated_accesses,
        "layers": tracer.layer_metrics() if tracer is not None else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
