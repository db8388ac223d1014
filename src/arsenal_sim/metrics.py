"""Metrics, hardware-overhead accounting, and report serialization."""

import csv
import io
import json
import math

from .arsenal import COMPONENTS, PREFETCH_COUNTER_MAX, SCORE_MAX, ArsenalConfig, roster
from .bloom import BloomParams
from .cache import CacheConfig, amat
from .traces import INT_CAP, check_fields

# per-component framework counter widths (bits). The evaluation counter
# holds at most eval_cnt - 1 (9 bits at the default 512): its carry-out on
# the eval_cnt-th PAE fires the decision, so eval_cnt is never stored.
# The selection timeline's eval_counters show the saturated count instead.
EVAL_COUNTER_BITS = (ArsenalConfig.eval_cnt - 1).bit_length()
PREFETCH_COUNTER_BITS = PREFETCH_COUNTER_MAX.bit_length()
SCORE_BITS = SCORE_MAX.bit_length()

# fixed per-filter metadata carried alongside the bit table (bits)
BLOOM_METADATA_BITS = {
    "false_positive_probability": 5,
    "random_seed": 32,
    "inserted_element_count": 11,
    "projected_element_count": 11,
    "table_size": 15,
    "salt_count": 3,
}
SALT_TABLE_BITS = 135 * 32

THRESHOLDS_KB_PER_COMPONENT = 0.1

KB = 1024.0

# what compare reports per engine and trace, in CSV column order
COMPARE_METRICS = ("amat", "speedup_proxy", "coverage", "accuracy")
COMPARE_CSV_COLUMNS = ["trace", "engine", *COMPARE_METRICS]


def compute_metrics(demand: dict, prefetch: dict, config: CacheConfig,
                    baseline_amat: float) -> dict:
    """Summary ratios for one run.

    useful = prefetch hits (a prefetched line demanded before eviction);
    accuracy = useful / prefetches filled (null when nothing filled);
    coverage = useful / (useful + demands that still paid a miss-class
    latency, i.e. misses plus late prefetch hits);
    speedup_proxy = baseline_amat (a no-prefetch run's) / this run's AMAT.
    """
    total = demand["total"]
    useful = demand["prefetch_hits"]
    remaining_misses = demand["misses"] + demand["late_prefetch_hits"]
    filled = prefetch["filled"]
    run_amat = amat(demand, config)
    cov_denom = useful + remaining_misses
    return {
        "amat": run_amat,
        "baseline_amat": baseline_amat,
        "speedup_proxy": baseline_amat / run_amat,
        "accuracy": (useful / filled) if filled > 0 else None,
        "coverage": (useful / cov_denom) if cov_denom > 0 else 0.0,
        "late_rate": demand["late_prefetch_hits"] / total,
        "useful": useful,
        "remaining_misses": remaining_misses,
        "filled": filled,
    }


def overhead(n_components: int, bloom_capacity: int = ArsenalConfig.bf_est_cap,
             bloom_fpp: float = ArsenalConfig.bf_fpp,
             component_costs_kb: dict | None = None) -> dict:
    """Hardware budget: framework cost per component plus component storage.

    Per component the framework carries three scoreboard counters, one Bloom
    filter (bit table sized from the capacity/fpp operating point, its
    metadata fields, and the hash-salt table of the reference filter layout),
    and a share of the threshold registers.
    """
    check_fields("overhead", {"n_components": n_components}, {"n_components": 1},
                 ranges={"n_components": (1, INT_CAP)})
    component_costs_kb = component_costs_kb or {}

    counter_bits = EVAL_COUNTER_BITS + PREFETCH_COUNTER_BITS + SCORE_BITS
    params = BloomParams.create(bloom_capacity, bloom_fpp)
    bit_table_bytes = params.bit_table_bytes
    metadata_bits = sum(BLOOM_METADATA_BITS.values())
    bloom_bits = metadata_bits + SALT_TABLE_BITS + bit_table_bytes * 8
    bloom_bytes = bloom_bits / 8.0
    thresholds_bytes = THRESHOLDS_KB_PER_COMPONENT * KB
    per_component_bytes = counter_bits / 8.0 + bloom_bytes + thresholds_bytes

    framework_kb = n_components * per_component_bytes / KB
    component_total_kb = sum(component_costs_kb.values())
    grand_total_kb = framework_kb + component_total_kb
    if not math.isfinite(grand_total_kb):  # JSON has no Infinity
        raise ValueError(f"overhead of {n_components} components totals beyond "
                         "float range")
    exact_counter_kb = n_components * counter_bits / 8.0 / KB
    notes = [
        f"exact scoreboard counter storage is {counter_bits} x "
        f"{n_components} = {counter_bits * n_components} bits "
        f"({exact_counter_kb:.5f} KB); reference budgets round this "
        "line item to 0.03 KB, which does not follow from the bit widths",
    ]
    return {
        "schema": "arsenal-sim-overhead-v1",
        "n_components": n_components,
        "bloom_parameters": {
            "projected_capacity": bloom_capacity,
            "target_fpp": bloom_fpp,
            "bit_table_bits": params.bit_table_size,
            "bit_table_bytes": bit_table_bytes,
            "hash_count": params.hash_count,
        },
        "per_component": {
            "counter_bits": {
                "eval": EVAL_COUNTER_BITS,
                "prefetch": PREFETCH_COUNTER_BITS,
                "score": SCORE_BITS,
                "total": counter_bits,
            },
            "bloom_metadata_bits": dict(BLOOM_METADATA_BITS),
            "salt_table_bits": SALT_TABLE_BITS,
            "bloom_bytes": bloom_bytes,
            "thresholds_bytes": thresholds_bytes,
            "total_bytes": per_component_bytes,
        },
        "framework_total_kb": framework_kb,
        "component_costs_kb": dict(component_costs_kb),
        "component_total_kb": component_total_kb,
        "grand_total_kb": grand_total_kb,
        "notes": notes,
    }


def overhead_for_test_case(policy: str,
                           bloom_capacity: int = ArsenalConfig.bf_est_cap,
                           bloom_fpp: float = ArsenalConfig.bf_fpp) -> dict:
    costs = {name: COMPONENTS[name].cost_kb for name in roster(policy)}
    report = overhead(len(costs), bloom_capacity, bloom_fpp, costs)
    report["policy"] = policy
    return report


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _run_row(report: dict) -> dict:
    exp = report["experiment"]
    demand = report["demand"]
    prefetch = report["prefetch"]
    metrics = report["metrics"]
    trace = exp["trace"]
    trace_label = trace.get("file") or trace["pattern"]["kind"]
    dropped = (prefetch["dropped_resident"] + prefetch["dropped_in_flight"]
               + prefetch["dropped_queue_full"])
    return {
        "label": exp["label"],
        "engine": exp["engine"],
        "trace": trace_label,
        "seed": exp["seed"],
        "total_accesses": demand["total"],
        "hits": demand["hits"],
        "prefetch_hits": demand["prefetch_hits"],
        "late_prefetch_hits": demand["late_prefetch_hits"],
        "misses": demand["misses"],
        "amat": metrics["amat"],
        "baseline_amat": metrics["baseline_amat"],
        "speedup_proxy": metrics["speedup_proxy"],
        "accuracy": metrics["accuracy"],
        "coverage": metrics["coverage"],
        "late_rate": metrics["late_rate"],
        "prefetch_attempted": prefetch["attempted"],
        "prefetch_accepted": prefetch["accepted"],
        "prefetch_filled": prefetch["filled"],
        "prefetch_dropped": dropped,
    }


def to_csv(report: dict) -> str:
    """Flatten a run or compare report: one CSV row per experiment."""
    out = io.StringIO()
    schema = report.get("schema", "")
    if schema == "arsenal-sim-compare-v1":
        writer = csv.DictWriter(out, fieldnames=COMPARE_CSV_COLUMNS,
                                lineterminator="\n")
        writer.writeheader()
        for entry in report["per_trace"]:
            for engine in report["engines"]:
                res = entry["results"][engine]
                writer.writerow({"trace": entry["label"], "engine": engine,
                                 **{key: _fmt(res[key]) for key in COMPARE_METRICS}})
    else:
        row = _run_row(report)  # its keys, in order, are the columns
        writer = csv.DictWriter(out, fieldnames=row, lineterminator="\n")
        writer.writeheader()
        writer.writerow({k: _fmt(v) for k, v in row.items()})
    return out.getvalue()


_WRITERS = {"json": to_json, "csv": to_csv}
FORMATS = tuple(_WRITERS)  # the first is the default


def emit_report(report: dict, format: str, sink) -> None:
    """Serialize a report deterministically to a writable text sink."""
    if format not in _WRITERS:
        raise ValueError(f"unknown format: {format!r}")
    sink.write(_WRITERS[format](report))
