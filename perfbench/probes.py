"""Per-layer tracing for the benchmark's traced run.

The traced run wraps the public entry points of each layer *from the
benchmark's own code* (nothing under ``src/`` changes) and records:

* a **span** (name, start, end, parent span, cell id) at every coarse
  boundary — cell, program build, ``JVM.run``, translation, snapshot,
  DPOR search, check cell, oracle, engine map, cache put, server report
  and invariants, episode finish;
* an **aggregate** (calls + inclusive and self nanoseconds, no span per
  call) at every per-access entry point — barriers, JMM, ``location_of``,
  tracer sinks, the storm detector — because a span per barrier call
  would cost more than the barrier;
* a bare **count** for ``BaseScheduler.step``, whose time is the whole
  execution and would otherwise swallow ``JVM.run``'s self time.

A frame's *self time* is its duration minus the part covered by its
children; children nest strictly (one thread, call-stack order), so the
covered part is the sum of the children's durations.  Spans stay in
memory and are written once, at the end, as Chrome trace-event JSON that
opens in Perfetto next to the obs plane's virtual-time traces.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import replace
from typing import Any, Callable, Optional

#: layer of every probed entry point (self times add up per layer)
LAYERS = {
    "cell": "bench.loop",
    "round": "bench.loop",
    "exploration": "bench.loop",
    "build_microbench_class": "vm.build",
    "CheckScenario.build": "vm.build",
    "build_server": "vm.build",
    "Workload.install": "vm.build",
    "JVM.load": "vm.build",
    "predecode_method": "vm.translate",
    "compile_superblocks": "vm.translate",
    "JVM.run": "vm.execute",
    "after_load": "core.revocation",
    "before_store": "core.revocation",
    "before_store_batch": "core.revocation",
    "jmm.on_read": "core.jmm",
    "jmm.on_write": "core.jmm",
    "location_of": "vm.heap",
    "snapshot_vm": "vm.snapshot",
    "restore_vm": "vm.snapshot",
    "DporExplorer.explore": "check.dpor",
    "run_check_cell": "check.explorer",
    "final_fingerprint": "check.oracle",
    "RunEngine.map": "bench.parallel",
    "ResultCache.put": "bench.parallel",
    "build_report": "server.plane",
    "check_server_invariants": "server.plane",
    "AbortStormDetector.__call__": "server.plane",
    "EpisodeSink.__call__": "obs.episodes",
    "EpisodeSink.finish": "obs.episodes",
}

BUILD_SPANS = (
    "build_microbench_class", "CheckScenario.build", "build_server",
    "Workload.install", "JVM.load",
)
BARRIERS = ("after_load", "before_store", "before_store_batch")

_MISSING = object()


class Recorder:
    """In-memory spans and per-name aggregates with exact self time.

    Self time needs no frame objects: ``acc`` holds the nanoseconds (and
    number) of probed calls finished so far at the current call depth.
    A probe saves and zeroes it on entry; on exit its own duration minus
    ``acc`` is its self time, and it hands its full duration back to the
    caller's level.  Children nest strictly (one thread, call-stack
    order), so this is "duration minus the part covered by children".
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: (id, name, start_ns, end_ns, parent id, cell id, self_ns)
        self.spans: list[tuple] = []
        #: name -> [calls, total_ns, self_ns, direct probed children]
        self.stats: dict[str, list[int]] = {}
        #: bare counters (no timing) and exact VM counts
        self.counts: Counter = Counter()
        #: [ns, calls] of finished probed children at the current depth
        self.acc = [0, 0]
        #: ids of the open spans, innermost last
        self.open_spans: list[int] = []
        #: id of the benchmark cell running now (-1 between cells)
        self.cell = -1
        self.cells = 0
        #: per-probe cost measured by :func:`calibrate`: inside a
        #: probed call's own duration, and charged to its caller
        self.overhead_in_ns = 0.0
        self.overhead_out_ns = 0.0

    def stat(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0, 0, 0])

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def total_s(self, name: str) -> float:
        return self.stats[name][1] / 1e9 if name in self.stats else 0.0

    def aggregate(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn``: count + ns per call, no span."""
        stat, acc, clock = self.stat(name), self.acc, self.clock

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            outer_ns, outer_n = acc
            acc[0] = acc[1] = 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - acc[0]
                stat[3] += acc[1]
                acc[0] = outer_ns + duration
                acc[1] = outer_n + 1

        return probe

    def span(self, name: str, fn: Callable, *, cell: bool = False,
             after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn``: a span per call (plus the aggregate).  ``cell``
        marks one benchmark cell; ``after(args)`` runs once it returns."""
        stat, acc, clock = self.stat(name), self.acc, self.clock
        spans, open_spans = self.spans, self.open_spans

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            outer_ns, outer_n = acc
            acc[0] = acc[1] = 0
            parent = open_spans[-1] if open_spans else -1
            sid = len(spans) + len(open_spans) + 1
            open_spans.append(sid)
            if cell:
                self.cells += 1
                self.cell = self.cells
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - t0
                own = duration - acc[0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += own
                stat[3] += acc[1]
                open_spans.pop()
                spans.append((sid, name, t0, end, parent, self.cell, own))
                if cell:
                    self.cell = -1
                acc[0] = outer_ns + duration
                acc[1] = outer_n + 1
                if after is not None:
                    after(args)

        return probe

    def count(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn``: a bare call count, no timing."""
        counts = self.counts

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return probe

    def self_s(self) -> dict[str, float]:
        """Self seconds per probed name, less the calibrated probe cost:
        each call's own share and each direct child's share charged to
        its parent.  Raw figures stay in ``stats``."""
        return {
            name: max(0.0, (
                own
                - calls * self.overhead_in_ns
                - kids * self.overhead_out_ns
            ) / 1e9)
            for name, (calls, _, own, kids) in self.stats.items()
        }

    def layer_self_s(self) -> dict[str, float]:
        out: Counter = Counter()
        for name, seconds in self.self_s().items():
            out[LAYERS.get(name, name)] += seconds
        return dict(out)

    def chrome_trace(self, other: dict) -> dict:
        """Chrome trace-event JSON (complete events, microseconds)."""
        origin = min((s[2] for s in self.spans), default=0)
        events = [
            {
                "name": name, "cat": LAYERS.get(name, "bench"), "ph": "X",
                "ts": (start - origin) / 1000, "dur": (end - start) / 1000,
                "pid": 1, "tid": 1,
                "args": {
                    "id": sid, "parent": parent, "cell": cell,
                    "self_us": own / 1000,
                },
            }
            for sid, name, start, end, parent, cell, own in sorted(
                self.spans, key=lambda s: (s[2], s[0])
            )
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": other,
        }


class Probes:
    """Installs and removes the traced run's wrappers.

    Module-level functions are rebound in every ``repro`` module that
    imported them by name; methods are replaced on their class.  All of
    it is undone by :meth:`uninstall`.
    """

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._undo: list[tuple[Any, str, Any]] = []
        #: distinct method bytecodes seen by predecode_method
        self.method_keys: set[str] = set()

    # --------------------------------------------------------- wrapping
    def _wrap(self, name: str, fn: Callable, *, span: bool, **kw):
        if span:
            return self.rec.span(name, fn, **kw)
        return self.rec.aggregate(name, fn)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _method(self, cls, attr: str, name: str, **kw) -> None:
        self._set(cls, attr, self._wrap(name, cls.__dict__[attr], **kw))

    def _function(self, module, attr: str, name: str, **kw) -> None:
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, **kw)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    # ---------------------------------------------------------- install
    def install(self) -> None:
        (microbench, parallel, workloads, dpor, explorer, oracle, jmm,
         revocation, episodes, plane, report, workload, heap, predecode,
         scheduler, snapshot, support, tracecomp, vmcore) = (
            importlib.import_module(f"repro.{name}") for name in (
                "bench.microbench", "bench.parallel", "bench.workloads",
                "check.dpor", "check.explorer", "check.oracle", "core.jmm",
                "core.revocation", "obs.episodes", "server.plane",
                "server.report", "server.workload", "vm.heap",
                "vm.predecode", "vm.scheduler", "vm.snapshot", "vm.support",
                "vm.tracecomp", "vm.vmcore",
            )
        )
        JVM = vmcore.JVM
        self._function(microbench, "build_microbench_class",
                       "build_microbench_class", span=True)
        self._function(workload, "build_server", "build_server", span=True)
        self._method(workloads.Workload, "install", "Workload.install",
                     span=True)
        self._method(JVM, "load", "JVM.load", span=True)
        self._method(JVM, "run", "JVM.run", span=True,
                     after=self._after_run)
        self._scenario_builds(explorer, dpor)

        self._function(predecode, "predecode_method", "predecode_method",
                       span=True, after=self._after_predecode)
        self._function(tracecomp, "compile_superblocks",
                       "compile_superblocks", span=True)
        self._function(snapshot, "snapshot_vm", "snapshot_vm", span=True)
        self._function(snapshot, "restore_vm", "restore_vm", span=True)

        self._method(dpor.DporExplorer, "explore", "DporExplorer.explore",
                     span=True)
        self._function(explorer, "run_check_cell", "run_check_cell",
                       span=True, cell=True)
        self._function(oracle, "final_fingerprint", "final_fingerprint",
                       span=True)
        self._method(parallel.RunEngine, "map", "RunEngine.map", span=True)
        self._method(parallel.ResultCache, "put", "ResultCache.put",
                     span=True)
        self._function(report, "build_report", "build_report", span=True)
        self._function(plane, "check_server_invariants",
                       "check_server_invariants", span=True)
        self._method(episodes.EpisodeSink, "finish", "EpisodeSink.finish",
                     span=True)

        for cls in (support.RuntimeSupport, revocation.RollbackSupport):
            for attr in BARRIERS:
                if attr in cls.__dict__:
                    self._method(cls, attr, attr, span=False)
        self._method(jmm.JmmTracker, "on_read", "jmm.on_read", span=False)
        self._method(jmm.JmmTracker, "on_write", "jmm.on_write", span=False)
        self._function(heap, "location_of", "location_of", span=False)
        self._method(episodes.EpisodeSink, "__call__",
                     "EpisodeSink.__call__", span=False)
        self._method(plane.AbortStormDetector, "__call__",
                     "AbortStormDetector.__call__", span=False)
        self._set(scheduler.BaseScheduler, "step", self.rec.count(
            "BaseScheduler.step", scheduler.BaseScheduler.__dict__["step"]
        ))

    def wrap_workload(self, workload) -> None:
        """Span the benchmark's own units: one ``cell`` per fig/server
        unit; for the checker one ``round`` and an ``exploration`` per
        schedule space (its cells are the ``run_check_cell`` spans)."""
        from perfbench.workloads import Checker, Exploration

        if isinstance(workload, Checker):
            self._set(workload, "run_unit",
                      self._wrap("round", workload.run_unit, span=True))
            self._method(Exploration, "run", "exploration", span=True)
        else:
            self._set(workload, "run_unit", self._wrap(
                "cell", workload.run_unit, span=True, cell=True))

    def _scenario_builds(self, *modules) -> None:
        """``CheckScenario.build`` is a per-instance callable field, so
        wrap it on every scenario the checker looks up."""
        scenarios = importlib.import_module("repro.check.scenarios")
        original = scenarios.get_scenario
        wrap = self._wrap

        def get_scenario(name):
            scenario = original(name)
            return replace(scenario, build=wrap(
                "CheckScenario.build", scenario.build, span=True
            ))

        for module in modules:
            self._set(module, "get_scenario", get_scenario)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def __enter__(self) -> "Probes":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------ exact counts
    def _after_run(self, args) -> None:
        """Fold the finished VM's exact counters into the recorder.

        Only VMs driven by ``JVM.run`` get here: the DPOR search steps
        its VMs itself, so their counts stay out (see the README)."""
        vm = args[0]
        counts = self.rec.counts
        counts["guest_instructions"] += sum(
            t.instructions_executed for t in vm.threads
        )
        counts["slices"] += vm.scheduler.slices
        counts["context_switches"] += vm.scheduler.context_switches
        collect = getattr(vm.support, "collect_metrics", None)
        if callable(collect):
            support = collect()
            for key in (
                "undo_entries_logged", "undo_entries_restored",
                "revocations_completed", "sections_entered",
                "sections_committed",
            ):
                counts[key] += support.get(key, 0)

    def _after_predecode(self, args) -> None:
        method = args[1]
        self.method_keys.add(hashlib.sha256(
            f"{method.qualified_name()}\n{method.code!r}".encode()
        ).hexdigest())


def calibrate(rec: Recorder, n: int = 20_000, rounds: int = 5) -> None:
    """Measure what one probe adds to a call, and where that time lands.

    Times loops of bare and of probed calls to the same four-argument
    no-op.  The probed call's recorded duration minus a bare call is the
    share inside the probe; the rest of the difference is charged to the
    caller's self time.  Medians over ``rounds`` repetitions.
    """
    def noop(a, b, c, d):
        return None

    scratch = Recorder(rec.clock)
    probed = scratch.aggregate("noop", noop)
    stat = scratch.stat("noop")
    clock = rec.clock

    def per_call(call) -> float:
        t0 = clock()
        for _ in range(n):
            call(1, 2, 3, 4)
        return (clock() - t0) / n

    inside, outside = [], []
    for _ in range(rounds):
        bare = per_call(noop)
        before = stat[1]
        wrapped = per_call(probed)
        own = (stat[1] - before) / n - bare
        inside.append(own)
        outside.append(wrapped - bare - own)
    rec.overhead_in_ns = max(0.0, statistics.median(inside))
    rec.overhead_out_ns = max(0.0, statistics.median(outside))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, probes: Probes, tally) -> dict:
    """Every per-layer metric of one traced pass, ``name -> (value,
    unit)``.  Counts are exact; times are host seconds (self time unless
    the name says otherwise)."""
    s = rec.self_s()
    calls, counts = rec.calls, rec.counts
    run_s = rec.total_s("JVM.run")
    engines = tally.engines
    map_wall = sum(e.stats.host_wall for e in engines)
    run_wall = sum(e.stats.run_wall for e in engines)
    cache_bytes = sum(
        p.stat().st_size
        for e in engines if e.cache is not None
        for p in e.cache.directory.rglob("*.pkl")
    )
    explored = tally.counts["explored"]
    pruned = tally.counts["pruned"]
    m = {
        "vm.build.calls": (sum(calls(n) for n in BUILD_SPANS), "count"),
        "vm.build.busy_s": (sum(s.get(n, 0.0) for n in BUILD_SPANS), "s"),
        "vm.translate.predecode_calls": (calls("predecode_method"), "count"),
        "vm.translate.predecode_busy_s": (
            s.get("predecode_method", 0.0), "s"),
        "vm.translate.superblock_calls": (
            calls("compile_superblocks"), "count"),
        "vm.translate.superblock_busy_s": (
            s.get("compile_superblocks", 0.0), "s"),
        "vm.translate.useful_ratio": (
            _ratio(len(probes.method_keys), calls("predecode_method")),
            "ratio"),
        "vm.execute.run_self_s": (s.get("JVM.run", 0.0), "s"),
        "vm.execute.guest_instructions": (
            counts["guest_instructions"], "count"),
        "vm.execute.guest_mips": (
            _ratio(counts["guest_instructions"] / 1e6, run_s), "Minstr/s"),
        "vm.scheduler.steps": (counts["BaseScheduler.step"], "count"),
        "vm.scheduler.slices": (counts["slices"], "count"),
        "vm.scheduler.context_switches": (
            counts["context_switches"], "count"),
        "core.revocation.read_barrier_calls": (calls("after_load"), "count"),
        "core.revocation.write_barrier_calls": (
            calls("before_store") + calls("before_store_batch"), "count"),
        "core.revocation.barrier_busy_s": (
            sum(s.get(n, 0.0) for n in BARRIERS), "s"),
        "core.revocation.undo_logged": (
            counts["undo_entries_logged"], "count"),
        "core.revocation.undo_restored": (
            counts["undo_entries_restored"], "count"),
        "core.revocation.revocations": (
            counts["revocations_completed"], "count"),
        "core.revocation.commit_ratio": (
            _ratio(counts["sections_committed"],
                   counts["sections_entered"]), "ratio"),
        "core.jmm.calls": (
            calls("jmm.on_read") + calls("jmm.on_write"), "count"),
        "core.jmm.busy_s": (
            s.get("jmm.on_read", 0.0) + s.get("jmm.on_write", 0.0), "s"),
        "vm.heap.location_of_calls": (calls("location_of"), "count"),
        "vm.snapshot.snapshots": (calls("snapshot_vm"), "count"),
        "vm.snapshot.restores": (calls("restore_vm"), "count"),
        "vm.snapshot.busy_s": (
            s.get("snapshot_vm", 0.0) + s.get("restore_vm", 0.0), "s"),
        "check.dpor.search_busy_s": (
            s.get("DporExplorer.explore", 0.0), "s"),
        "check.dpor.explored": (explored, "count"),
        "check.dpor.pruned": (pruned, "count"),
        "check.dpor.transitions": (tally.counts["transitions"], "count"),
        "check.dpor.prune_ratio": (
            _ratio(pruned, explored + pruned), "ratio"),
        "check.explorer.cells": (calls("run_check_cell"), "count"),
        "check.explorer.cell_busy_s": (s.get("run_check_cell", 0.0), "s"),
        "check.oracle.busy_s": (s.get("final_fingerprint", 0.0), "s"),
        "bench.parallel.map_overhead_s": (map_wall - run_wall, "s"),
        "bench.parallel.cache_puts": (calls("ResultCache.put"), "count"),
        "bench.parallel.cache_put_busy_s": (
            s.get("ResultCache.put", 0.0), "s"),
        "bench.parallel.cache_bytes": (cache_bytes, "bytes"),
        "bench.parallel.cache_hits": (
            sum(e.stats.cache_hits for e in engines), "count"),
        "server.plane.detector_calls": (
            calls("AbortStormDetector.__call__"), "count"),
        "server.plane.detector_busy_s": (
            s.get("AbortStormDetector.__call__", 0.0), "s"),
        "server.plane.invariants_busy_s": (
            s.get("check_server_invariants", 0.0), "s"),
        "server.plane.report_busy_s": (s.get("build_report", 0.0), "s"),
        "server.plane.storm_events": (tally.counts["storm_events"], "count"),
        "obs.episodes.sink_events": (calls("EpisodeSink.__call__"), "count"),
        "obs.episodes.sink_busy_s": (
            s.get("EpisodeSink.__call__", 0.0), "s"),
        "obs.episodes.finish_busy_s": (
            s.get("EpisodeSink.finish", 0.0), "s"),
        "obs.episodes.episodes": (tally.counts["episodes"], "count"),
        "faults.plane.injected": (tally.counts["injected"], "count"),
    }
    return m


def write_chrome_trace(path, rec: Recorder, other: dict) -> None:
    with open(path, "w") as fh:
        json.dump(rec.chrome_trace(other), fh)
