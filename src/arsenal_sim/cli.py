"""Command-line entry point.

Verbs:
  run       one experiment (trace or synthetic pattern, one engine)
  compare   meta-prefetcher vs each standalone component vs no-prefetch vs
            a best-per-trace oracle, over a trace list from a config file
  overhead  print the hardware-overhead accounting
  gen       write a synthetic trace file
"""

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager

from .harness import (
    ENGINE_NAMES,
    cache_config_from_dict,
    compare_engines,
    experiment_from_dict,
    run_experiment,
)
from .arsenal import POLICIES, TEST_CASE_2, ArsenalConfig
from .metrics import FORMATS, emit_report, overhead, overhead_for_test_case
from .traces import SEED_RANGE, check_fields, write_trace


def _json_value(text: str, where: str):
    """``text`` parsed as JSON; bad JSON is an input error naming ``where``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{where}: JSON nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _pattern_fields(text: str) -> dict:
    """--pattern's fields: inline JSON, or 'kind[:key=value,...]' shorthand."""
    text = text.strip()
    if text.startswith("{"):
        return _json_value(text, "--pattern")
    kind, _, rest = text.partition(":")
    params: dict = {"kind": kind}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"bad pattern parameter: {item!r}")
            try:
                params[key] = int(value, 0)
            except ValueError:
                try:
                    params[key] = float(value)
                except ValueError:
                    params[key] = value
    return params


def _load_config(args, flags: tuple) -> dict:
    """The --config file's object, each of ``flags`` given set over its key."""
    data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
        data = _json_value(text, args.config)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: a configuration must be a JSON object")
    data.update((key, getattr(args, key)) for key in flags
                if getattr(args, key) is not None)
    return data


def _checked_sink(data: dict) -> tuple:
    """The report's path and format, once the format is known good, the
    path's directory exists and the path is not itself a directory; the
    error is the one opening it would raise."""
    fmt = data.get("format", FORMATS[0])
    if fmt not in FORMATS:
        raise ValueError(f"unknown format: {fmt!r}")
    out = data.get("out")
    if out not in (None, "-"):
        folder = os.path.dirname(out) or ("." if out else "")
        if os.path.isdir(out) or not os.path.isdir(folder):
            code = (errno.EISDIR if os.path.isdir(out) else
                    errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT)
            raise OSError(code, os.strerror(code), out)
    return out, fmt


@contextmanager
def _open_sink(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as sink:
            yield sink


def _emit(report: dict, fmt: str, out_path) -> None:
    with _open_sink(out_path) as sink:
        emit_report(report, fmt, sink)


def cmd_run(args) -> int:
    data = _load_config(args, ("engine", "length", "seed", "out", "format"))
    if args.trace and args.pattern:
        raise ValueError("--trace and --pattern are two trace sources; give one")
    if args.trace:
        data["trace_file"] = args.trace
        data.pop("pattern", None)
        if args.length is None:  # the pattern's length goes with it
            data.pop("length", None)
    if args.pattern:
        data["pattern"] = _pattern_fields(args.pattern)
        data.pop("trace_file", None)
    cfg = experiment_from_dict(data)
    out, fmt = _checked_sink(data)
    _emit(run_experiment(cfg), fmt, out)
    return 0


# Each compare config field, typed by its default; None marks a value that
# its own parser checks.
_COMPARE_DEFAULTS = {"policy": TEST_CASE_2, "traces": [], "cache": None,
                     "arsenal": None, "component_params": None, "seed": 0,
                     "out": "", "format": FORMATS[0]}


def cmd_compare(args) -> int:
    data = _load_config(args, ("seed", "out", "format"))
    check_fields("compare", data, _COMPARE_DEFAULTS, required=("traces",),
                 ranges=SEED_RANGE)
    out, fmt = _checked_sink(data)
    report = compare_engines(
        traces=data["traces"],
        cache=cache_config_from_dict(data.get("cache", {})),
        **{key: data[key] for key in ("policy", "seed", "arsenal", "component_params")
           if key in data},
    )
    _emit(report, fmt, out)
    return 0


def cmd_overhead(args) -> int:
    if args.test_case:
        report = overhead_for_test_case(args.test_case, args.capacity, args.fpp)
    else:
        report = overhead(args.components, args.capacity, args.fpp)
    _emit(report, "json", args.out)
    return 0


def cmd_gen(args) -> int:
    cfg = experiment_from_dict({"pattern": _pattern_fields(args.pattern),
                                "length": args.length, "seed": args.seed or 0})
    with _open_sink(args.out) as sink:
        write_trace(cfg.events(), sink)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arsenal-sim",
        description="Trace-driven cache and prefetcher-selection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--config", help="experiment configuration file (JSON)")
    run.add_argument("--trace", help="trace file (PC ADDR R|W per line)")
    run.add_argument("--pattern", help="synthetic pattern (JSON or kind[:k=v,...])")
    run.add_argument("--engine", choices=ENGINE_NAMES)
    run.add_argument("--length", type=int, help="synthetic trace length")
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="output path (default stdout)")
    run.add_argument("--format", choices=FORMATS)
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="compare engines over a trace list")
    cmp_.add_argument("--config", required=True,
                      help="compare configuration file (JSON)")
    cmp_.add_argument("--seed", type=int)
    cmp_.add_argument("--out")
    cmp_.add_argument("--format", choices=FORMATS)
    cmp_.set_defaults(func=cmd_compare)

    ovh = sub.add_parser("overhead", help="print hardware-overhead accounting")
    ovh.add_argument("--test-case", choices=tuple(POLICIES),
                     help="use a predefined component roster and its costs")
    ovh.add_argument("--components", type=int, default=1,
                     help="component count when no test case is given")
    ovh.add_argument("--capacity", type=int, default=ArsenalConfig.bf_est_cap)
    ovh.add_argument("--fpp", type=float, default=ArsenalConfig.bf_fpp)
    ovh.add_argument("--out")
    ovh.set_defaults(func=cmd_overhead)

    gen = sub.add_parser("gen", help="write a synthetic trace file")
    gen.add_argument("--pattern", required=True)
    gen.add_argument("--length", type=int, required=True)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"arsenal-sim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
