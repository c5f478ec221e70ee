#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload skewed-noisy --seed 1 --seconds 10 --trace 0

Workloads, metrics and bounds are named in ``BENCHMARK.json`` at the
repository root; ``perfbench/README.md`` explains them.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
repeat the metrics for people, with the machine fingerprint.

The exit status is 0 when every operation matched its reference, 1 when
one failed (the result line is still printed), and 2 when the benchmark
could not run at all (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
MB = 1024 * 1024


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("skewed-noisy", "wide-spill", "delta-ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the closed loop of timed operations runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced run and print per-layer metrics")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is for quick checks only")
    return parser.parse_args(argv)


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run the timed loop (and the traced run) and derive metrics."""
    from probes import calibrate, quartiles, reset_peak_rss
    from tracing import Recorder, instrument, layer_metrics

    calibration = calibrate()
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        reset_peak_rss()
        ops.append(workload.operation())
        if time.perf_counter() >= deadline:
            break
    done = [op for op in ops if op.latencies]
    if not done:
        raise RuntimeError(f"no operation completed: {ops[0].errors}")
    latencies = [t for op in done for t in op.latencies]
    p50, p75 = quartiles(latencies)
    untraced_elapsed = statistics.median(op.elapsed for op in done)
    e2e = {
        "elapsed_s": untraced_elapsed,
        "cpu_s": statistics.median(op.cpu for op in done),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in done),
        "ingest_p50_s": p50,
        "ingest_p75_s": p75,
        "state_mb": statistics.median(op.state_bytes for op in done) / MB,
    }
    report = {"e2e": e2e, "ops": ops, "calibration_s": calibration,
              "latency_samples": len(latencies)}
    if not trace:
        return report

    recorder = Recorder()
    with instrument(recorder):
        cpu_start = time.process_time()
        traced = workload.operation(recorder)
        driver_cpu = time.process_time() - cpu_start
    ops.append(traced)
    layer_op, layer_recorder = traced, recorder
    if workload.replay_serial:
        layer_recorder = Recorder()
        with instrument(layer_recorder):
            layer_op = workload.operation(layer_recorder, serial=True)
        ops.append(layer_op)
    own = layer_metrics(recorder.spans)
    layers = layer_metrics(layer_recorder.spans)
    lookups = layer_op.cache_hits + layer_op.cache_misses
    report["layers"] = {
        **layers,
        "matcher.cache_hits": layer_op.cache_hits,
        "matcher.cache_misses": layer_op.cache_misses,
        "matcher.cache_hit_ratio": layer_op.cache_hits / lookups if lookups else 0.0,
        "dist.first_result_s": own["dist.first_result_s"],
        "dist.reduce_tail_s": own["dist.reduce_tail_s"],
        "dist.driver_cpu_s": driver_cpu,
        "trace.overhead_s": traced.elapsed - untraced_elapsed,
        "machine.calib_s": calibration,
    }
    out = ROOT / ".perfbench" / "traces"
    recorder.write_jsonl(out / f"{workload.name}.jsonl", workload=workload.name)
    if layer_recorder is not recorder:
        layer_recorder.write_jsonl(out / f"{workload.name}.serial.jsonl",
                                   workload=workload.name, replay="serial")
    return report


def set_up(args: argparse.Namespace, work: Path):
    """Run the set-ups in a child process, so that the memory they leave
    to the allocator never counts in the timed operations' peak RSS;
    returns their durations and the last set-up workload."""
    out = work / "setup.pickle"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), args.workload, args.size,
         str(args.seed), str(work), str(SETUPS), str(out)],
        env=env, check=True,
    )
    with out.open("rb") as handle:
        return pickle.load(handle)


def run(args: argparse.Namespace, work: Path) -> dict:
    from probes import fingerprint

    setup_times, workload = set_up(args, work)
    report = measure(workload, args.seconds, bool(args.trace))
    report["e2e"]["setup_s"] = statistics.median(setup_times)
    report["setup_times_s"] = setup_times
    report["fingerprint"] = fingerprint()
    attempted = sum(op.attempted for op in report["ops"])
    failed = sum(op.failed for op in report["ops"])
    report["e2e"]["success_ratio"] = 1.0 - failed / attempted
    report["attempted"], report["failed"] = attempted, failed
    return report


def render(report: dict, args: argparse.Namespace) -> dict:
    """The result object, with units from BENCHMARK.json; prints the
    human-readable lines before it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section, values = (
        ("per_layer", report["layers"]) if args.trace else ("end_to_end", report["e2e"])
    )
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in spec[section]
    }
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"# fingerprint {json.dumps(report['fingerprint'], sort_keys=True)}")
    print(f"# calibration_s {report['calibration_s']:.6f}  "
          f"setup_times_s {[round(t, 4) for t in report['setup_times_s']]}")
    print(f"# operations {len(report['ops'])}  "
          f"latency samples {report['latency_samples']}")
    print(f"# op elapsed_s {[round(op.elapsed, 4) for op in report['ops']]}")
    print(f"# op peak_rss_mb {[round(op.peak_rss_mb, 1) for op in report['ops']]}")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'failed_ratio':28s} {report['failed'] / report['attempted']:>14.6g} "
          "ratio  (= 1 - success_ratio)")
    for op in report["ops"]:
        for error in op.errors:
            print(f"# FAILED: {error}")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Spill files and other temporaries stay inside the checkout.
    saved = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    try:
        report = run(args, work)
        result = render(report, args)
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if saved[0] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved[0]
        tempfile.tempdir = saved[1]
    save_record(report, result, args)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def save_record(report: dict, result: dict, args: argparse.Namespace) -> None:
    """Keep the result with what it was measured on, for later comparison."""
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "size": args.size,
        "fingerprint": report["fingerprint"],
        "calibration_s": report["calibration_s"],
        "setup_times_s": report["setup_times_s"],
        "op_elapsed_s": [op.elapsed for op in report["ops"]],
        "errors": [error for op in report["ops"] for error in op.errors],
        **result,
    }
    path = ROOT / ".perfbench" / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
