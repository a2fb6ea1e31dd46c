#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded workloads.

Usage::

    python3 perfbench/run.py --workload {sweep,serve,harq} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice, traced and untraced, and reports the per-layer metrics
of the traced run plus the tracing overhead on every end-to-end metric
(``overhead.<metric>`` = traced minus untraced).  Every run checks the
program's outputs and exits non-zero if a check fails; its last stdout
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Each run is appended to ``perfbench/results/history.jsonl``
with its provenance.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("sweep", "serve", "harq")
END_TO_END = {
    "setup_s": "s",
    "info_mbps": "Mbit/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "fer": "ratio",
    "harq_rounds": "count",
    "rss_mb": "MiB",
}
LAYER_UNITS = {
    "decoder.busy_share": "ratio",
    "decoder.ns_per_edge": "ns",
    "decoder.copy_floor_ns_per_edge": "ns",
    "decoder.roofline_share": "ratio",
    "decoder.update_layer_us_p50": "us",
    "decoder.call_ms_p50": "ms",
    "decoder.frames_per_call": "count",
    "decoder.iterations_mean": "count",
    "decoder.et_share": "ratio",
    "encoder.busy_share": "ratio",
    "channel.busy_share": "ratio",
    "service.submit_us_p50": "us",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.batch_frames_mean": "count",
    "service.mode_switches": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.build_ms": "ms",
    "pool.busy_share": "ratio",
    "server.parse_us_p50": "us",
    "server.respond_us_p50": "us",
    "server.bytes_per_request": "B",
    "server.transport_ms_p50": "ms",
    "nr.combine_us_p50": "us",
    "nr.condition_us_p50": "us",
    "nr.soft_buffers_live": "count",
    "loadgen.lateness_p99_ms": "ms",
    **{
        f"loadgen.{phase}.{what}": "count"
        for phase in ("warmup", "measured")
        for what in ("sent", "succeeded", "failed")
    },
    **{f"overhead.{name}": unit for name, unit in END_TO_END.items()},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a smoke-test size")
    parser.add_argument("--inject-flip", action="store_true",
                        help="flip one bit of a checked response (tests that "
                        "the output check fires)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--copy-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.setup_probe or args.copy_probe) and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def copy_bandwidth() -> float:
    """Measured in a child, so its buffers never count toward rss_mb."""
    import subprocess

    out = subprocess.run(
        [sys.executable, __file__, "--copy-probe"], env=common.child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_once(args, traced: bool) -> dict:
    """One measured phase of the workload, traced or not."""
    if args.workload == "sweep":
        import sweep

        return sweep.run(args.seed, args.seconds, args.tiny, traced)
    import serving

    drive = serving.run_serve if args.workload == "serve" else serving.run_harq
    return asyncio.run(drive(args.seed, args.seconds, args.tiny, traced,
                             args.inject_flip))


def layer_metrics(out, bandwidth: float) -> dict:
    from tracing import layer_metrics as derive, transport_ms

    values = derive(out["spans"], out["buffer_events"], out["window"], bandwidth)
    values["server.transport_ms_p50"] = common.percentile(
        transport_ms(out["client_records"], out["spans"]), 50)
    values["loadgen.lateness_p99_ms"] = common.percentile(out["lateness_ms"], 99)
    for phase in ("warmup", "measured"):
        for what, count in out["phases"][phase].items():
            values[f"loadgen.{phase}.{what}"] = float(count)
    return values


def write_trace(args, out) -> Path:
    from tracing import self_times_ms

    common.RESULTS.mkdir(parents=True, exist_ok=True)
    path = common.RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "window_ns": list(out["window"]),
        "self_times": self_times_ms(out["spans"]),
        "spans": out["spans"],
    }), encoding="utf-8")
    return path


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.copy_probe:
        print(common.measure_copy_bandwidth())
        return 0
    common.use_checkout_sources()
    if args.setup_probe:
        import sweep
        from tracing import Tracer

        if args.trace:
            Tracer().install()
        sweep.setup_probe()
        return 0

    started = time.time()
    bandwidth = copy_bandwidth()
    checks: list = []
    if args.trace:
        traced = run_once(args, traced=True)
        plain = run_once(args, traced=False)
        metrics = layer_metrics(traced, bandwidth)
        for name in END_TO_END:
            metrics[f"overhead.{name}"] = (
                traced["metrics"][name] - plain["metrics"][name]
            )
        units = LAYER_UNITS
        checks += traced["failures"]
        trace_path = write_trace(args, traced)
        from tracing import self_times_ms

        for name, row in self_times_ms(traced["spans"]).items():
            common.log(f"  {name:28s} calls {row['calls']:>8d}  "
                       f"total {row['total_ms']:>10.1f} ms  self {row['self_ms']:>10.1f} ms")
        common.log(f"trace written to {trace_path}")
    else:
        plain = run_once(args, traced=False)
        metrics = dict(plain["metrics"])
        units = END_TO_END
    checks += plain["failures"]
    if args.workload == "sweep":
        import sweep

        checks += sweep.check_against_reference(args.seed, args.tiny, args.inject_flip)

    correct = not checks
    for failure in checks:
        common.log(f"CHECK FAILED: {failure}")
    result = {
        "correct": correct,
        "attempted": int(plain["attempted"]),
        "failed": int(plain["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    common.append_history({
        "started": started,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "backend": plain["backend"],
        "setup_samples": plain["setup_samples"],
        "latency_samples": plain["latency_samples"],
        "latency_p99_ms": plain["latency_p99_ms"],
        "phases": plain["phases"],
        "checks_failed": checks,
        "result": result,
        **common.provenance(bandwidth),
    })
    for name, unit in units.items():
        common.log(f"{name:32s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
