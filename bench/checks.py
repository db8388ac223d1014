"""Output checks for every report the benchmark produces.

Each check returns a list of violations; an empty list means the report is
correct. A violation fails the operation that produced the report.
"""

import hashlib
import math

# The seed used when --seed is omitted, and the held-out seed on which any
# later performance claim must also hold.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1911

# SHA-256 of the report bytes at the pinned seeds. Output must not change:
# a change to any of these is a change to the model, never a speed-up.
PINNED_DIGESTS = {
    ("phased-tc2", DEFAULT_SEED): "ef4640d21fe75c4e6e58d495d1e931a392aac55243eb42baaa379b50d9008863",
    ("phased-tc2", HELD_OUT_SEED): "30303082157f297c84c58d15884f7251932b2532fd190c91c7ff2aa7b42f97b7",
    ("hotset-tc2", DEFAULT_SEED): "dbf1deb6fa9e7e3ba96d91a97ad837b674f7575eb7b01aabb93c73e99848eb7c",
    ("hotset-tc2", HELD_OUT_SEED): "24f5fff6f242e5410602f8c7804ca87067b7ee996c7d4962109cc56dd8cef85c",
    ("compare-tc1-files", DEFAULT_SEED): "e5275a4eaac4c1e651961814c7f0a3c14d1c19032614ad9a5fbf44b9b0d5698a",
    ("compare-tc1-files", HELD_OUT_SEED): "4390512f658a8958923e9fe38f86ba3dabe61705e5c6e058b6bb21b2dcc287ac",
}

OUTCOMES = ("hits", "prefetch_hits", "late_prefetch_hits", "misses")
DROPS = ("dropped_resident", "dropped_in_flight", "dropped_queue_full")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_run(report: dict, expect: dict) -> list[str]:
    bad = []
    demand = report["demand"]
    prefetch = report["prefetch"]
    length = expect["trace_lengths"][0]
    if demand["total"] != length:
        bad.append(f"demand.total {demand['total']} != trace length {length}")
    if sum(demand[k] for k in OUTCOMES) != demand["total"]:
        bad.append("demand outcome counts do not sum to demand.total")
    if prefetch["attempted"] != prefetch["accepted"] + sum(prefetch[k] for k in DROPS):
        bad.append("prefetch.attempted != accepted + dropped_*")
    if prefetch["accepted"] != (prefetch["filled"] + prefetch["late_converted"]
                                + prefetch["in_flight_at_end"]):
        bad.append("prefetch.accepted != filled + late_converted + in_flight_at_end")
    per = report["per_component"].values()
    if sum(c["filled"] for c in per) != prefetch["filled"]:
        bad.append("per_component filled does not sum to prefetch.filled")
    if sum(c["useful"] for c in per) != demand["prefetch_hits"]:
        bad.append("per_component useful does not sum to demand.prefetch_hits")
    metrics = report["metrics"]
    if not _close(metrics["speedup_proxy"], metrics["baseline_amat"] / metrics["amat"]):
        bad.append("metrics.speedup_proxy != baseline_amat / amat")
    return bad


def check_compare(report: dict, expect: dict) -> list[str]:
    bad = []
    engines = expect["engines"]
    if report["engines"] != engines:
        bad.append(f"engines {report['engines']} != {engines}")
        return bad
    per_trace = report["per_trace"]
    if len(per_trace) != len(expect["trace_lengths"]):
        bad.append("per_trace does not list every trace")
    standalone = [e for e in engines if e != "none" and not e.startswith("arsenal")]
    sums = dict.fromkeys([*engines, "oracle"], 0.0)
    for entry in per_trace:
        results = entry["results"]
        if results["none"]["speedup_proxy"] != 1.0:
            bad.append(f"{entry['label']}: none has speedup "
                       f"{results['none']['speedup_proxy']}, not 1.0")
        best = max(results[e]["speedup_proxy"] for e in standalone)
        oracle = entry["oracle"]
        if oracle["engine"] not in standalone or oracle["speedup_proxy"] != best \
                or results[oracle["engine"]]["speedup_proxy"] != best:
            bad.append(f"{entry['label']}: oracle is not the best standalone")
        for e in engines:
            sums[e] += results[e]["speedup_proxy"]
        sums["oracle"] += oracle["speedup_proxy"]
    average = report["average_speedup_proxy"]
    for name, total in sums.items():
        if not _close(average[name], total / max(1, len(per_trace))):
            bad.append(f"average_speedup_proxy[{name}] is not the per-trace mean")
    return bad


def check_digest(data: bytes, workload: str, seed: int) -> list[str]:
    pinned = PINNED_DIGESTS.get((workload, seed))
    if pinned is None:
        return []
    digest = hashlib.sha256(data).hexdigest()
    if digest != pinned:
        return [f"report sha256 {digest} != pinned {pinned} at seed {seed}"]
    return []


def check_report(data: bytes, report: dict, expect: dict,
                 workload: str, seed: int) -> list[str]:
    check = check_compare if expect["kind"] == "compare" else check_run
    return check(report, expect) + check_digest(data, workload, seed)


def model_outcome(report: dict, kind: str) -> dict:
    """The meta-prefetcher's simulated outcome from a checked report.

    For ``compare`` each figure is the mean over traces, and accuracy the
    mean over the traces on which the meta-prefetcher filled a prefetch.
    """
    if kind == "run":
        m = report["metrics"]
        return {"speedup_proxy": m["speedup_proxy"], "coverage": m["coverage"],
                "accuracy": m["accuracy"]}
    meta = [e for e in report["engines"] if e.startswith("arsenal")][0]
    results = [entry["results"][meta] for entry in report["per_trace"]]
    accuracies = [r["accuracy"] for r in results if r["accuracy"] is not None]
    average = report["average_speedup_proxy"]
    return {
        "speedup_proxy": average[meta],
        "coverage": sum(r["coverage"] for r in results) / len(results),
        "accuracy": sum(accuracies) / len(accuracies) if accuracies else None,
        "oracle_ratio": average[meta] / average["oracle"],
    }
