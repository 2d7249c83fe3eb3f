"""Benchmark of weylord: run one workload for a while and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cli-oneshot, library-profile, oracle-verify (see README.md in this
directory).  With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 the layers are wrapped in spans and the
object holds the per-layer metrics instead.  Every query's answer is checked
outside the timed region.  The program is imported from src/ of the checkout;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from common import KERNEL_S, OUT_DIR, SRC, WORKLOADS, timing_metrics

END_TO_END = ("setup_s", "query_p50_ms", "query_p90_ms", "queries_per_s", "peak_rss_mb", "ok_frac")
DEFAULT_SEED = 1


def _units(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def traced_metrics(tracer, result: dict) -> dict:
    """Per-layer metrics of a traced run, plus what the tracing itself cost.

    The cost is measured, not estimated: after the timed loop the workload
    replays a fixed slice of its queries once without and once with the
    wrappers, both with the caches the loop already filled.
    """
    from tracing import layer_metrics

    traces = result.get("traces") or [tracer.export()]
    metrics = layer_metrics(traces, result.get("cli_calls"))
    tracer.uninstall()
    untraced = result["replay"](False)
    tracer.install()
    try:
        traced = result["replay"](True)
    finally:
        tracer.uninstall()
    metrics["trace.overhead_frac"] = traced / untraced - 1
    metrics["trace.queries_per_s"] = result["attempted"] / result["timed_s"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{result['workload']}-{result['seed']}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for trace in traces:
            for span in trace["spans"]:
                fh.write(json.dumps(span) + "\n")
    return {name: (value, _units(name)) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weylord" / "__init__.py").is_file():
        print(f"error: no weylord sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(WORKLOADS[args.workload])
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    started = time.perf_counter()
    result = module.run(args.seed, args.seconds, tracer)
    result.update(workload=args.workload, seed=args.seed)
    if tracer:
        metrics = traced_metrics(tracer, result)
    else:
        metrics = result["metrics"]
        missing = [m for m in END_TO_END if m not in metrics]
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {result['samples']}, "
        f"timed {result['timed_s']:.2f} s of {time.perf_counter() - started:.2f} s"
    )
    if not tracer:
        raw = timing_metrics(result["raw"])
        print(
            "unscaled: " + ", ".join(f"{name} {value:.4g}" for name, (value, _) in raw.items())
            + f"; reference kernel median {result['kernel_ms']:.3f} ms (scaled to {KERNEL_S * 1e3:g} ms)"
        )
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
