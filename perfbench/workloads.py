"""The benchmark's four workloads and their closed measurement loop.

Every workload is one client running *cells* back to back on one
thread, through a pinned ``RunEngine(jobs=1)``: the next cell starts
only when the previous one has returned (a closed loop with one client).
A cell is the workload's unit of user-visible work:

* ``fig-rollback`` / ``fig-unmodified``: one VM run of one Figures 5-8
  configuration (panel x write ratio x seeded repetition);
* ``checker``: one explored schedule checked under all three policies
  (one ``run_check_cell`` call);
* ``server-chaos``: one ``run_server_cell`` of the ``storm`` preset under
  the chaos fault plan.

Inputs come from the workload seed only; the program receives the
generated configs, never the seed itself.  Each cell's output is checked
against a digest produced once by the *reference* interpreter
(``perfbench/goldens.py``), so a perf change to the fast path cannot
silently change what it computes.  A cell counts as failed when it
raises, mismatches its golden, reports a server invariant violation,
diverges across checker policies, or is served from the result cache.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, Optional

from perfbench.hostspeed import HostSpeed
from repro.bench.figures import WRITE_RATIOS, FigurePanel
from repro.bench.parallel import (
    ResultCache,
    RunEngine,
    RunSpec,
    execute_spec,
    guest_instructions,
)
from repro.check.dpor import explore_dpor
from repro.check.explorer import explore
from repro.server.plane import ServerSpec, run_server_cell
from repro.util.rng import DeterministicRng, derive_seed
from repro.vm.vmcore import VMOptions

DATA_DIR = Path(__file__).resolve().parent / "data"

#: The distinct run matrices behind Figures 5-8 (7/8 replot 5/6's runs).
FIG_PANELS = ("5a", "5b", "5c", "6a", "6b", "6c")
#: Seeded repetitions per (panel, write ratio); the workload seed picks
#: one per cell.  Rep ``k`` is the figure harness's own repetition ``k``
#: (``derive_seed(base.seed, "rep", k)``), so reps 0-1 are the very runs
#: behind ``BENCH_interp.json``.
FIG_REPS = 8
#: ``storm`` seed indices the workload seed draws from (1-based, as in
#: ``python -m repro.server --seeds``).
SERVER_POOL = 256
#: A timed run ends only after this many cells, so that at least ten
#: latency samples lie beyond the reported 90th percentile.
MIN_CELLS = 100


#: ``REPRO_BENCH_*`` knobs that would change what or how the benchmark
#: runs: worker count, a warm result cache, and the figure work scale
#: (``FigurePanel.base_config`` silently rescales on it).
PINNED_ENV = (
    "REPRO_BENCH_JOBS",
    "REPRO_BENCH_CACHE",
    "REPRO_BENCH_CACHE_DIR",
    "REPRO_BENCH_SCALE",
    "REPRO_BENCH_REPS",
)


def pin_environment(environ=os.environ) -> dict:
    """Drop every pinned knob from ``environ``; returns what was set."""
    ignored = {k: environ.pop(k) for k in PINNED_ENV if k in environ}
    from repro.bench.figures import bench_scale

    if bench_scale() != 1.0:  # pragma: no cover - guards the pop above
        raise RuntimeError("REPRO_BENCH_SCALE still in effect")
    return ignored


def digest(obj: Any) -> str:
    """Short content digest of a JSON-serializable value."""
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def load_golden(name: str) -> dict:
    with open(DATA_DIR / f"{name}.json") as fh:
        return json.load(fh)


@dataclass
class Tally:
    """What one measured stretch of cells did (host-side only)."""

    attempted: int = 0
    failed: int = 0
    wall_ns: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    #: exact per-layer counts read from report objects
    counts: Counter = field(default_factory=Counter)
    engines: list[RunEngine] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)

    def record(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n


class PinnedEngine(RunEngine):
    """``RunEngine(jobs=1)`` that times every call of the cell function
    from outside it and keeps each result for the golden check.

    Pinned by construction: one inline lane, and either no cache or the
    fresh directory it is given, whatever ``REPRO_BENCH_*`` says.
    """

    def __init__(self, tally: Tally, cache: Optional[ResultCache] = None):
        super().__init__(jobs=1, cache=cache)
        self.tally = tally
        self.results: list[Any] = []
        #: per result: False when the cache served it without running
        self.fresh: list[bool] = []
        tally.engines.append(self)

    def map(self, fn, items, *, key_fn=None):
        latencies = self.tally.latencies_ns
        speed = self.tally.speed
        ran: set[int] = set()

        def timed(item):
            speed.sample()
            ran.add(id(item))
            t0 = time.perf_counter_ns()
            try:
                return fn(item)
            finally:
                latencies.append(time.perf_counter_ns() - t0)

        results = super().map(timed, items, key_fn=key_fn)
        self.results.extend(results)
        self.fresh.extend(id(item) in ran for item in items)
        return results


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ------------------------------------------------------------------ figures
@dataclass(frozen=True)
class FigCell:
    panel: str       # "5a" .. "6c"
    write_pct: int
    rep: int

    @property
    def key(self) -> str:
        return f"{self.panel}/w{self.write_pct}/r{self.rep}"

    def spec(self, mode: str, interp: str = "fast") -> RunSpec:
        base = FigurePanel(int(self.panel[0]), self.panel[1]).base_config()
        config = replace(
            base,
            write_pct=self.write_pct,
            seed=derive_seed(base.seed, "rep", self.rep),
        )
        options = VMOptions(interp=interp) if interp != "fast" else None
        return RunSpec(config=config, mode=mode, options=options)


def all_fig_cells() -> list[FigCell]:
    return [
        FigCell(panel, pct, rep)
        for panel in FIG_PANELS
        for pct in WRITE_RATIOS
        for rep in range(FIG_REPS)
    ]


def fig_passes(seed: int) -> Iterator[list[FigCell]]:
    """Endless seeded stream of passes: each pass visits every panel x
    write ratio once, in a shuffled order, with a seeded repetition
    each.  Runs end on a pass boundary, so every run has the matrix's
    exact mix of cheap and expensive configs."""
    rng = DeterministicRng(derive_seed(seed, "perfbench", "fig"))
    while True:
        order = [(p, w) for p in FIG_PANELS for w in WRITE_RATIOS]
        rng.shuffle(order)
        yield [
            FigCell(panel, pct, rng.randint(0, FIG_REPS - 1))
            for panel, pct in order
        ]


def fig_digest(result) -> str:
    """Golden digest of one figure run: every number the figures plot or
    the reports cite, plus the guest instruction count."""
    return digest([
        result.total_cycles,
        result.high_elapsed,
        result.overall_elapsed,
        result.rollbacks,
        result.undo_logged,
        result.undo_restored,
        guest_instructions(result),
    ])


# ------------------------------------------------------------------ server
def server_spec(seed_index: int, interp: str = "fast") -> ServerSpec:
    return ServerSpec(
        "storm", seed_index=seed_index, mode="rollback", interp=interp,
        chaos=True,
    )


def server_cells(seed: int) -> Iterator[int]:
    """Endless seeded stream of ``storm`` seed indices: each pass is a
    fresh shuffle of the whole pool."""
    rng = DeterministicRng(derive_seed(seed, "perfbench", "server"))
    while True:
        pool = list(range(1, SERVER_POOL + 1))
        rng.shuffle(pool)
        yield from pool


# ----------------------------------------------------------------- checker
@dataclass(frozen=True)
class Exploration:
    """One whole schedule space the checker workload explores."""

    scenario: str
    strategy: str            # "exhaustive" | "dpor"
    bound: int = -1

    def run(self, engine):
        if self.strategy == "dpor":
            return explore_dpor(self.scenario, engine=engine)
        return explore(self.scenario, self.bound, engine=engine)


#: The checker's round: full-bound exhaustive ``mini-barge`` (1488
#: schedules) and DPOR over ``handoff-trio`` (64 explored).  Whole
#: schedule spaces, so the workload is seed-invariant by construction.
CHECKER_ROUND = (
    Exploration("mini-barge", "exhaustive", 99),
    Exploration("handoff-trio", "dpor"),
)


def exploration_summary(report) -> dict:
    """Exploration-level result pinned by the checker golden."""
    return {
        "schedules": report.schedules,
        "divergences": len(report.divergences),
        "distinct_states": report.distinct_states,
        "reduction": report.reduction_line(),
    }


# --------------------------------------------------------------- workloads
class Workload:
    """A named, seeded stream of units of work with a golden check.

    ``units()`` is the endless input stream; ``run_unit`` executes one
    unit and records every cell it ran into the tally.  A timed run ends
    on a unit boundary and after at least ``min_cells`` cells;
    ``trace_units`` is the fixed number of units a traced run executes,
    so its exact counts repeat from run to run.
    """

    name = ""
    trace_units = 1
    min_cells = MIN_CELLS

    def __init__(self, seed: int, golden: dict, scratch: Path):
        self.seed = seed
        self.golden = golden
        self.scratch = scratch

    def units(self) -> Iterator[Any]:
        raise NotImplementedError

    def run_unit(self, unit: Any, tally: Tally) -> None:
        raise NotImplementedError

    @staticmethod
    def engine(tally: Tally) -> PinnedEngine:
        """The tally's one cache-less engine (cell-at-a-time workloads)."""
        return tally.engines[0] if tally.engines else PinnedEngine(tally)

    def params(self) -> dict:
        """The workload parameters recorded with every result."""
        raise NotImplementedError


class FigWorkload(Workload):
    mode = ""

    def units(self) -> Iterator[list[FigCell]]:
        return fig_passes(self.seed)

    def run_unit(self, cells: list[FigCell], tally: Tally) -> None:
        engine = self.engine(tally)
        for cell in cells:
            ok = False
            try:
                [result] = engine.map(execute_spec, [cell.spec(self.mode)])
            except Exception:
                _report_failure(f"{self.name} cell {cell.key}")
            else:
                ok = fig_digest(result) == self.golden["cells"].get(
                    cell.key)
            tally.record(ok)

    def params(self) -> dict:
        return {
            "seed": self.seed, "mode": self.mode, "panels": FIG_PANELS,
            "write_ratios": WRITE_RATIOS, "reps": FIG_REPS,
            "interp": "fast", "engine": "RunEngine(jobs=1, cache=None)",
        }


class FigRollback(FigWorkload):
    # Why: VMs live long and the paper's barriers run ~10^5 times per
    # cell; after_load/before_store/JMM/location_of are a third or more
    # of host time and translation under 1%.  A barrier or interpreter
    # change shows here.
    name = "fig-rollback"
    mode = "rollback"


class FigUnmodified(FigWorkload):
    # Why: the same configs through the same execute layer with zero
    # barrier calls.  The control for a barrier change (which must
    # predict no change here); shows an interpreter change undiluted.
    name = "fig-unmodified"
    mode = "unmodified"


class ServerChaos(Workload):
    # Why: the only workload through the server plane, the fault plane,
    # the abort-storm detector and the streaming EpisodeSink tracer; it
    # drives the revocation layer under storms and escalation rather
    # than fig-rollback's steady sections, so a gain on one of them that
    # costs the other shows.
    name = "server-chaos"
    trace_units = 36  # as many cells as one fig pass
    # Storm cells vary in cost with their seed index and have a long
    # tail; drawing half the pool per run keeps the mix, and with it
    # the 90th percentile, from moving much between seeds.
    min_cells = SERVER_POOL // 2

    def units(self) -> Iterator[int]:
        return server_cells(self.seed)

    def run_unit(self, seed_index: int, tally: Tally) -> None:
        ok = False
        try:
            [report] = self.engine(tally).map(
                run_server_cell, [server_spec(seed_index)]
            )
        except Exception:
            _report_failure(f"{self.name} seed index {seed_index}")
        else:
            ok = (
                not report["violations"]
                and digest(report)
                == self.golden["cells"].get(str(seed_index))
            )
            tally.counts["storm_events"] += len(report["storm"]["events"])
            tally.counts["episodes"] += report["episodes"]["total"]
            tally.counts["injected"] += sum(report["injected"].values())
        tally.record(ok)

    def params(self) -> dict:
        return {
            "seed": self.seed, "preset": "storm", "mode": "rollback",
            "chaos": True, "seed_index_pool": SERVER_POOL,
            "interp": "fast", "engine": "RunEngine(jobs=1, cache=None)",
        }


class Checker(Workload):
    # Why: thousands of tiny VMs run identical guest code, so program
    # build and translation (predecode + compile()) dominate and
    # barriers are noise; snapshot/restore and the per-cell engine and
    # cache-put overhead also run here.  A translation cache or an
    # engine change shows here; the fig workloads predict no change.
    # Seed-invariant: its inputs are whole schedule spaces.
    name = "checker"

    def __init__(self, seed, golden, scratch, explorations=CHECKER_ROUND):
        super().__init__(seed, golden, scratch)
        self.explorations = tuple(explorations)

    def units(self):
        return itertools.repeat(self.explorations)

    def run_unit(self, explorations, tally: Tally) -> None:
        # A fresh, empty result cache per round, like a user's first run.
        cache_dir = tempfile.mkdtemp(prefix="check-cache-", dir=self.scratch)
        engine = PinnedEngine(tally, cache=ResultCache(cache_dir))
        for exploration in explorations:
            self._explore(exploration, engine, tally)

    def _explore(self, exploration, engine, tally: Tally) -> None:
        golden = self.golden["explorations"][exploration.scenario]
        first = len(engine.results)
        try:
            report = exploration.run(engine)
        except Exception:
            _report_failure(f"checker exploration {exploration.scenario}")
            tally.record(False, len(golden["cells"]))
            return
        cells = engine.results[first:]
        fresh = engine.fresh[first:]
        if report.strategy == "dpor":
            for key in ("explored", "pruned", "transitions", "restores"):
                tally.counts[key] += getattr(report, key)
        if exploration_summary(report) != golden["summary"]:
            # The exploration itself went wrong: none of its cells count,
            # and a short exploration fails every cell it should have run.
            tally.record(False, max(len(cells), len(golden["cells"])))
            return
        for result, ran, want in itertools.zip_longest(
            cells, fresh, golden["cells"]
        ):
            # A cell served from the cache did no work: it fails too.
            tally.record(
                bool(ran)
                and not result["problems"]
                and digest(result) == want
            )

    def params(self) -> dict:
        return {
            "seed": self.seed, "seed_invariant": True,
            "explorations": [
                f"{e.scenario}:{e.strategy}"
                + (f":bound={e.bound}" if e.bound >= 0 else "")
                for e in self.explorations
            ],
            "modes": ["rollback", "inheritance", "unmodified"],
            "interp": "fast",
            "engine": "RunEngine(jobs=1, cache=<fresh temp dir per round>)",
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FigRollback, FigUnmodified, Checker, ServerChaos)
}


def make_workload(name: str, seed: int, scratch: Path) -> Workload:
    """Set up one workload: load its golden, prepare its input stream."""
    cls = WORKLOADS[name]
    return cls(seed, load_golden(name), scratch)


def measure(
    workload: Workload,
    *,
    seconds: Optional[float] = None,
    units: Optional[int] = None,
) -> Tally:
    """Run units back to back until ``seconds`` of host time have passed
    and at least ``workload.min_cells`` cells ran (the last unit always
    completes), or exactly ``units`` units ran."""
    tally = Tally()
    stream = workload.units()
    if units is not None:
        stream = itertools.islice(stream, units)
    deadline = None if seconds is None else int(seconds * 1e9)
    tally.speed.sample(force=True)
    spent = tally.speed.spent_ns
    start = time.perf_counter_ns()
    for unit in stream:
        workload.run_unit(unit, tally)
        if (
            deadline is not None
            and time.perf_counter_ns() - start >= deadline
            and tally.attempted >= workload.min_cells
        ):
            break
    tally.wall_ns = (
        time.perf_counter_ns() - start - (tally.speed.spent_ns - spent)
    )
    tally.speed.sample(force=True)
    return tally
