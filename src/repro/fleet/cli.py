"""Shared campaign-engine plumbing for bench / check / server / obs /
faults.

Every campaign CLI declares the same engine flags through
:func:`campaign_args`::

    --jobs N              local execution lanes (default REPRO_BENCH_JOBS
                          or the cpu count; 1 = inline, no pool)
    --no-cache            skip the on-disk result cache
    --fleet local:N       coordinator + N loopback worker subprocesses
    --fleet coordinator   bind --fleet-bind, wait for --fleet-workers
                          workers started with ``python -m repro.fleet
                          worker --connect HOST:PORT``

builds its engine through :func:`campaign_engine`, which always closes
it, and reports host-side stats through :func:`print_stats`.  Campaign
stdout stays byte-identical to the serial run in every mode — the lanes
only change where the pure runs execute.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator

from repro.bench.parallel import EngineStats, RunEngine, _env_cache, _env_jobs

__all__ = [
    "campaign_args",
    "campaign_engine",
    "parse_hostport",
    "print_stats",
]


def _fleet_mode(text: str) -> str:
    if text == "coordinator":
        return text
    kind, sep, count = text.partition(":")
    if kind == "local" and sep and count.isdigit() and int(count) >= 1:
        return text
    raise argparse.ArgumentTypeError(
        f"expected local:N or coordinator, got {text!r} (workers are "
        "started with: python -m repro.fleet worker --connect HOST:PORT)"
    )


def campaign_args(parser: argparse.ArgumentParser) -> None:
    """Add the shared campaign-engine flag group to ``parser``."""
    group = parser.add_argument_group("campaign engine")
    group.add_argument(
        "--jobs", type=int, default=None,
        help="local execution lanes (default REPRO_BENCH_JOBS or cpu "
             "count; 1 = inline)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk result cache for this invocation",
    )
    group.add_argument(
        "--fleet", type=_fleet_mode, default=None, metavar="MODE",
        help="distributed execution: 'local:N' (N loopback worker "
             "subprocesses) or 'coordinator' (bind --fleet-bind, wait "
             "for --fleet-workers workers)",
    )
    group.add_argument(
        "--fleet-bind", default="0.0.0.0:0", metavar="HOST:PORT",
        help="coordinator listen address (default 0.0.0.0:0 — an "
             "ephemeral port, printed on stderr)",
    )
    group.add_argument(
        "--fleet-workers", type=int, default=2, metavar="N",
        help="workers a coordinator waits for before starting "
             "(default 2)",
    )


def parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _build_engine(args: argparse.Namespace) -> RunEngine:
    cache = None if args.no_cache else _env_cache()
    if args.fleet is None:
        jobs = _env_jobs() if args.jobs is None else max(1, args.jobs)
        return RunEngine(jobs=jobs, cache=cache)
    from repro.fleet.engine import FleetEngine

    if args.fleet == "coordinator":
        host, port = parse_hostport(args.fleet_bind)
        return FleetEngine.coordinate(
            host, port, workers=max(1, args.fleet_workers), cache=cache
        )
    return FleetEngine.local(int(args.fleet.split(":", 1)[1]), cache=cache)


@contextmanager
def campaign_engine(args: argparse.Namespace) -> Iterator[RunEngine]:
    """The engine :func:`campaign_args` describes; closed on exit, so a
    fleet always sends its workers shutdown frames."""
    engine = _build_engine(args)
    try:
        yield engine
    finally:
        engine.close()


def print_stats(stats: EngineStats, prefix: str = "") -> None:
    """The aggregate stats line plus the per-worker lines, on stderr."""
    print(f"{prefix}{stats.render()}", file=sys.stderr)
    for line in stats.render_workers():
        print(line, file=sys.stderr)
