"""Lane scaling measurement: the evidence artifact ``BENCH_fleet.json``.

Measures host wall-clock of the fig5–8 bench matrix and a DPOR checker
campaign at each lane count ``n`` under both parallel lanes of
:meth:`~repro.bench.parallel.RunEngine.map` — the process pool
(``jobs=n``; ``jobs=1`` is the serial inline lane) and the loopback
fleet (``local:n``) — with caches disabled everywhere, so every number
is a real execution.  The artifact records only measurements, together
with ``host_cpus``: lanes can only speed a campaign up when the host
has cores to run them on.

Each cell records the engine's own ``host_wall_s`` (time inside
``map``) and ``campaign_wall_s`` (engine construction to close, the
wall a CLI user sees: it includes spawning and draining the fleet's
worker processes).

Report schema (``repro.bench.fleet-perf/2``)::

    {
      "schema": "repro.bench.fleet-perf/2",
      "host_cpus": 2,
      "panels": ["5a", ...], "repetitions": 2, "seed": ...,
      "scale": 1.0, "lanes": [1, 2],
      "bench": {
        "jobs=1": {"runs": 144, "host_wall_s": ..., "run_wall_s": ...,
                   "campaign_wall_s": ..., "bytes_sent": 0, ...},
        "local:1": {...}, "jobs=2": {...}, "local:2": {...}
      },
      "dpor": {"scenario": "handoff-trio", "jobs=1": {...}, ...},
      "measured": {"bench_speedup_2_vs_1": ..., "pool_bench_speedup_2_vs_1":
                   ..., "bench_fleet_over_pool_2": ..., "dpor_...": ...}
    }

``bench_speedup_N_vs_1`` is the fleet's own scaling (``local:N`` over
``local:1``), ``pool_bench_speedup_N_vs_1`` the pool's, and
``bench_fleet_over_pool_N`` the fleet's host wall as a multiple of the
pool's at equal lanes.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Optional, Sequence

from repro.bench.figures import WRITE_RATIOS, bench_scale, run_panel
from repro.bench.hostperf import DEFAULT_PANELS
from repro.bench.parallel import RunEngine
from repro.fleet.engine import FleetEngine

SCHEMA = "repro.bench.fleet-perf/2"
DEFAULT_OUTPUT = "BENCH_fleet.json"
DPOR_SCENARIO = "handoff-trio"

#: keep worker-local caches off so scaling numbers are real executions
_NO_CACHE_ENV = {"REPRO_BENCH_CACHE": "0"}


def _parse_panels(spec: Optional[str]):
    if not spec:
        return DEFAULT_PANELS
    from repro.bench.__main__ import _parse_panel

    return [_parse_panel(p) for p in spec.split(",") if p.strip()]


def _engine(lane: str) -> RunEngine:
    """An uncached engine for lane ``jobs=N`` (pool) or ``local:N``."""
    if lane.startswith("local:"):
        return FleetEngine.local(
            int(lane[6:]), cache=None, worker_env=_NO_CACHE_ENV
        )
    return RunEngine(jobs=int(lane[5:]), cache=None)


def _measure(lane: str, campaign: Callable[[RunEngine], str],
             progress) -> dict:
    t0 = time.perf_counter()
    engine = _engine(lane)
    try:
        done = campaign(engine)
    finally:
        engine.close()
    elapsed = time.perf_counter() - t0
    stats = engine.stats
    if progress is not None:
        progress(f"[fleet-perf] {lane}: {done} in {elapsed:.1f}s")
    return {
        "runs": stats.runs,
        "host_wall_s": round(stats.host_wall, 3),
        "run_wall_s": round(stats.run_wall, 3),
        "campaign_wall_s": round(elapsed, 3),
        "bytes_sent": sum(
            rec["bytes_sent"] for rec in stats.workers.values()
        ),
        "bytes_received": sum(
            rec["bytes_received"] for rec in stats.workers.values()
        ),
        "reassigned": stats.reassigned,
    }


def _ratio(num: float, den: float) -> float:
    return round(num / den, 2) if den else 0.0


def measure_fleet_perf(
    *,
    worker_counts: Sequence[int] = (1, 2),
    repetitions: int = 2,
    seed: int = 0x5EED,
    panels: Optional[str] = None,
    include_dpor: bool = True,
    progress=None,
) -> dict:
    """Measure pool and fleet at every lane count; assemble the report."""
    panel_list = _parse_panels(panels)

    def bench_campaign(engine: RunEngine) -> str:
        for panel in panel_list:
            run_panel(
                panel, repetitions=repetitions,
                write_ratios=WRITE_RATIOS, seed=seed, engine=engine,
            )
        return f"bench {len(panel_list)} panel(s)"

    def dpor_campaign(engine: RunEngine) -> str:
        from repro.check.dpor import explore_dpor

        report = explore_dpor(DPOR_SCENARIO, engine=engine)
        return f"dpor {report.schedules} schedules"

    lanes = [
        f"{kind}{n}" for n in worker_counts for kind in ("jobs=", "local:")
    ]
    bench = {lane: _measure(lane, bench_campaign, progress)
             for lane in lanes}
    dpor: dict[str, object] = {"scenario": DPOR_SCENARIO}
    if include_dpor:
        for lane in lanes:
            dpor[lane] = _measure(lane, dpor_campaign, progress)

    base = worker_counts[0]
    measured: dict[str, float] = {}
    sections = [("bench", bench, "host_wall_s")]
    if include_dpor:
        sections.append(("dpor", dpor, "campaign_wall_s"))
    for name, cells, wall in sections:
        for n in worker_counts[1:]:
            measured[f"{name}_speedup_{n}_vs_{base}"] = _ratio(
                cells[f"local:{base}"][wall], cells[f"local:{n}"][wall]
            )
            measured[f"pool_{name}_speedup_{n}_vs_{base}"] = _ratio(
                cells[f"jobs={base}"][wall], cells[f"jobs={n}"][wall]
            )
        for n in worker_counts:
            measured[f"{name}_fleet_over_pool_{n}"] = _ratio(
                cells[f"local:{n}"][wall], cells[f"jobs={n}"][wall]
            )

    return {
        "schema": SCHEMA,
        "host_cpus": os.cpu_count() or 1,
        "panels": [f"{p.figure}{p.panel}" for p in panel_list],
        "repetitions": repetitions,
        "seed": seed,
        "scale": bench_scale(),
        "lanes": list(worker_counts),
        "bench": bench,
        "dpor": dpor if include_dpor else None,
        "measured": measured,
    }


def write_fleet_perf(report: dict, path: str = DEFAULT_OUTPUT) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
