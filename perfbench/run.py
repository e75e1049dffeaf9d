"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload checker --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it): the simulator is
imported from ``src/`` next to this directory, so nothing needs to be
installed.  ``--trace 0`` measures the end-to-end metrics with tracing
off: cells run back to back for ``--seconds`` (the last cell always
completes), and set-up is timed in separate fresh processes.
``--trace 1`` is the separate traced run: it executes a fixed number of
cells untraced, then the same cells again with every layer probed, and
reports the per-layer metrics, the tracing overhead, and a Chrome trace
under ``.perfbench/traces/``.

Every line but the last is for people; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fig-rollback", "fig-unmodified", "checker", "server-chaos")
#: fresh processes timed from spawn to the first cell; the median is
#: ``setup_s``
SETUP_PROBES = 11
#: reference loops timed before each set-up probe and after the last
SETUP_SPEED_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up, print 'ready' and exit (set-up timing)",
    )
    return parser.parse_args(argv)


def set_up(name: str, seed: int, scratch: Path):
    """Everything a run does before its first cell: imports, the source
    digest, the golden load and the input stream."""
    from perfbench.workloads import make_workload, pin_environment
    from repro.bench.parallel import source_digest

    ignored = pin_environment()
    source_digest()
    return make_workload(name, seed, scratch), ignored


def time_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to
    run its first cell."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-only",
    ]
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return elapsed


# ------------------------------------------------------------- host record
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; "unknown" when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, workload, ignored: dict) -> dict:
    from repro.bench.parallel import source_digest

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
        },
        "commit": git_commit(ROOT),
        "source_digest": source_digest(),
        "ignored_env": ignored,
    }


# ----------------------------------------------------------------- metrics
def end_to_end(tally, setup_samples: list[float], rss_kb: int) -> dict:
    """``name -> (value, unit, samples)`` of one untraced run.

    Times are divided, and the rate multiplied, by the run's host
    slowdown factor (:class:`perfbench.hostspeed.HostSpeed`), so runs
    made while a shared host is slow or fast stay comparable;
    ``setup_samples`` come already scaled by the factor measured around
    them.
    """
    from repro.util.stats import nearest_rank

    slow = tally.speed.factor
    lat = sorted(tally.latencies_ns)
    n = len(lat)
    return {
        "cells_per_s": (
            tally.attempted / (tally.wall_ns / 1e9) * slow, "1/s",
            tally.attempted),
        "cell_p50_ms": (nearest_rank(lat, 50, 100) / 1e6 / slow, "ms", n),
        "cell_p90_ms": (nearest_rank(lat, 90, 100) / 1e6 / slow, "ms", n),
        "setup_s": (
            statistics.median(setup_samples), "s", len(setup_samples)),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
    }


def print_metrics(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit:<9} (n={samples})")


def result_line(tally, metrics: dict) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    })


def run_traced(workload, trace_path: Path) -> tuple:
    from perfbench.probes import (
        Probes,
        Recorder,
        calibrate,
        layer_metrics,
        write_chrome_trace,
    )
    from perfbench.workloads import Tally, measure

    units = workload.trace_units
    plain = measure(workload, units=units)
    rec = Recorder()
    calibrate(rec)
    probes = Probes(rec)
    with probes:
        probes.wrap_workload(workload)
        traced = measure(workload, units=units)
    layers = layer_metrics(rec, probes, traced)
    # both walls scaled by their own host slowdown, like end-to-end times
    plain_s = plain.wall_ns / 1e9 / plain.speed.factor
    traced_s = traced.wall_ns / 1e9 / traced.speed.factor
    layers["bench.trace.overhead_s"] = (traced_s - plain_s, "s")
    layers["bench.trace.overhead_ratio"] = (
        (traced_s - plain_s) / plain_s, "ratio")
    layers["bench.trace.spans"] = (len(rec.spans), "count")

    self_s = rec.self_s()
    layer_self = rec.layer_self_s()
    write_chrome_trace(trace_path, rec, {
        "workload": workload.name,
        "seed": workload.seed,
        "cells": traced.attempted,
        "untraced_wall_s": plain.wall_ns / 1e9,
        "traced_wall_s": traced.wall_ns / 1e9,
        "host_slowdown": {
            "untraced": plain.speed.factor, "traced": traced.speed.factor,
        },
        "probe_overhead_ns": {
            "inside_call": rec.overhead_in_ns,
            "charged_to_caller": rec.overhead_out_ns,
        },
        "layer_self_s": dict(sorted(layer_self.items())),
        "probes": {
            name: {
                "calls": calls,
                "total_s": total / 1e9,
                "raw_self_s": own / 1e9,
                "self_s": self_s[name],
            }
            for name, (calls, total, own, _) in sorted(rec.stats.items())
        },
    })
    print(f"chrome trace: {trace_path}")
    print(
        "layer self time, traced pass, probe cost removed "
        f"({rec.overhead_in_ns:.0f} + {rec.overhead_out_ns:.0f} ns/call):"
    )
    total = sum(layer_self.values()) or 1.0
    for layer, sec in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<16} {sec:10.4f} s  {100 * sec / total:5.1f}%")

    both = Tally(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
    )
    metrics = {
        name: (value, unit, traced.attempted)
        for name, (value, unit) in layers.items()
    }
    return both, metrics


def time_setups(args) -> tuple[list[float], str]:
    """``SETUP_PROBES`` set-up times, each scaled by the host slowdown
    measured around the probes, plus a note with the raw figures."""
    from perfbench.hostspeed import HostSpeed

    speed = HostSpeed()

    def sample_speed():
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample(force=True)

    raw = []
    for _ in range(SETUP_PROBES):
        sample_speed()
        raw.append(time_setup(args))
    sample_speed()
    note = (f"set-up {statistics.median(raw):.4f} s raw, host slowdown "
            f"{speed.factor:.4f} around it")
    return [t / speed.factor for t in raw], note


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no simulator sources under {ROOT / 'src'}; run "
            "from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    scratch = ROOT / ".perfbench" / f"scratch-{os.getpid()}"
    if args.setup_only:
        set_up(args.workload, args.seed, scratch)
        print("ready", flush=True)
        return 0

    from perfbench import hostspeed

    # the host-speed helper starts before the simulator is imported
    hostspeed.start()
    try:
        return measured_run(args, scratch)
    finally:
        hostspeed.stop()


def measured_run(args, scratch: Path) -> int:
    from perfbench.workloads import measure

    notes = []
    if not args.trace:
        setup_samples, note = time_setups(args)
        notes.append(note)
    workload, ignored = set_up(args.workload, args.seed, scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            traces = ROOT / ".perfbench" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tally, metrics = run_traced(
                workload, traces / f"{args.workload}-seed{args.seed}.json"
            )
        else:
            tally = measure(workload, seconds=args.seconds)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = end_to_end(tally, setup_samples, rss_kb)
            notes.insert(0, (
                f"host slowdown {tally.speed.factor:.4f} (median of "
                f"{len(tally.speed.samples)} reference loops); raw: "
                f"{tally.attempted / (tally.wall_ns / 1e9):.6g} cells/s "
                f"over {tally.wall_ns / 1e9:.3f} s"
            ))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("run: " + json.dumps(run_record(args, workload, ignored)))
    for note in notes:
        print(note)
    print_metrics(metrics)
    print(
        f"fail_ratio  {tally.failed / tally.attempted:.6g} ratio "
        f"(failed {tally.failed} of {tally.attempted} attempted cells)"
    )
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
