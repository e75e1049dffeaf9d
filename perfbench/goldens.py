"""Regenerate the committed golden digests from the reference interpreter.

The goldens under ``perfbench/data/`` pin what every benchmark cell must
compute.  They are produced once with ``interp="reference"`` — the
instruction-at-a-time differential oracle — never with the fast path
that performance changes touch, so a fast-path bug shows up as a failed
cell instead of a silently re-blessed golden::

    python3 perfbench/goldens.py                      # all four
    python3 perfbench/goldens.py --workload checker   # one

Regenerate only when the simulated semantics change on purpose (a new
cost model, a changed preset), and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

if __package__ in (None, ""):
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from perfbench.workloads import (  # noqa: E402
    CHECKER_ROUND,
    DATA_DIR,
    SERVER_POOL,
    PinnedEngine,
    Tally,
    all_fig_cells,
    digest,
    exploration_summary,
    fig_digest,
    pin_environment,
    server_spec,
)

FORMAT = "perfbench.golden/1"


def fig_golden(mode: str) -> dict:
    from repro.bench.parallel import execute_spec

    return {
        cell.key: fig_digest(
            execute_spec(cell.spec(mode, interp="reference"))
        )
        for cell in all_fig_cells()
    }


def server_golden() -> dict:
    from repro.server.plane import run_server_cell

    cells = {}
    for index in range(1, SERVER_POOL + 1):
        report = run_server_cell(server_spec(index, interp="reference"))
        if report["violations"]:
            raise RuntimeError(
                f"storm seed index {index} reports violations: "
                f"{report['violations']}"
            )
        cells[str(index)] = digest(report)
    return cells


def reference_scenarios():
    """Run check cells on the reference interpreter.  (The DPOR search
    itself already does: memory tracing forces it.)"""
    from repro.check import explorer

    original = explorer.get_scenario

    def get_scenario(name):
        scenario = original(name)
        return replace(
            scenario, options={**scenario.options, "interp": "reference"}
        )

    return mock.patch.object(explorer, "get_scenario", get_scenario)


def checker_golden(explorations=CHECKER_ROUND) -> dict:
    out = {}
    with reference_scenarios():
        for exploration in explorations:
            engine = PinnedEngine(Tally())
            report = exploration.run(engine)
            if report.divergences:
                raise RuntimeError(
                    f"{exploration.scenario}: "
                    f"{len(report.divergences)} divergence(s)"
                )
            out[exploration.scenario] = {
                "summary": exploration_summary(report),
                "cells": [digest(r) for r in engine.results],
            }
    return out


def build_golden(name: str) -> dict:
    doc = {
        "format": FORMAT,
        "workload": name,
        "interp": "reference",
        "regenerate": f"python3 perfbench/goldens.py --workload {name}",
    }
    if name == "checker":
        doc["explorations"] = checker_golden()
    elif name == "server-chaos":
        doc["cells"] = server_golden()
    else:
        doc["cells"] = fig_golden(name.split("-", 1)[1])
    return doc


def main(argv=None) -> int:
    names = ("fig-rollback", "fig-unmodified", "checker", "server-chaos")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=names,
        help="workload to regenerate (repeatable; default all)",
    )
    args = parser.parse_args(argv)
    pin_environment()
    DATA_DIR.mkdir(exist_ok=True)
    for name in args.workload or names:
        doc = build_golden(name)
        path = DATA_DIR / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
