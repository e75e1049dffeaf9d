"""Steadiness check: run every workload N times and report the spread.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload fig-rollback
    python3 perfbench/steady.py --runs 10 --out a.json
    python3 perfbench/steady.py --runs 10 --baseline a.json

Each run is a fresh process of the command in ``BENCHMARK.json`` with
its own seed (``--seed-base`` + run index); the workload order
alternates between forward and reverse from one round to the next.  For
every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread IQR / median next
to the metric's bound.  A spread must stay within the bound (``OVER``
fails); under a third of it is ``steady``, the tuning target.  Every run
measures for ``run_seconds`` of ``BENCHMARK.json``.  With
``--baseline`` it also prints how far each median moved, in the
metric's worse direction, against an earlier ``--out`` file; that must
stay within the bound for every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, IQR / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(new: float, old: float, better: str) -> float:
    """Relative change of a median in the metric's worse direction."""
    change = (new - old) / old
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload (at least 2)")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out", help="write every run's result as JSON")
    parser.add_argument("--baseline", help="an earlier --out file")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    workloads = args.workload or names

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run_once(bench, workload, args.seed_base + r)
            results[workload].append(result)
            print(
                f"run {r + 1}/{args.runs} {workload}: correct="
                f"{result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']}",
                file=sys.stderr,
            )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)

    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)

    ok = True
    header = (f"{'workload':<15} {'metric':<12} {'unit':<5} {'n':>3} "
              f"{'median':>11} {'q1':>11} {'q3':>11} {'iqr/med':>8} "
              f"{'bound':>6}  verdict")
    if baseline is not None:
        header += "   drift"
    print(header)
    for workload, runs in results.items():
        if not all(r["correct"] for r in runs):
            ok = False
            print(f"{workload}: {sum(not r['correct'] for r in runs)} "
                  "run(s) reported failed cells")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, rel = spread(values)
            if rel < metric["bound"] / 3:
                verdict = "steady"
            elif rel <= metric["bound"]:
                verdict = "within"
            else:
                verdict = "OVER"
                ok = False
            line = (f"{workload:<15} {name:<12} {metric['unit']:<5} "
                    f"{len(values):>3} {median:>11.5g} {q1:>11.5g} "
                    f"{q3:>11.5g} {rel:>8.4f} {metric['bound']:>6}  "
                    f"{verdict:<7}")
            if baseline is not None and workload in baseline:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in baseline[workload]
                )
                drift = worse_by(median, old, metric["better"])
                flag = "ok" if drift <= metric["bound"] else "WORSE"
                ok = ok and flag == "ok"
                line += f" {drift:+.4f} {flag}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
