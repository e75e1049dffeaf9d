"""Cycle profiler: exactness by construction.

The profiler is a :class:`VirtualClock` listener, so every advanced
cycle lands in exactly one (track, category) cell — the grand total
*must* equal the final virtual clock with zero residue, in every policy
mode, under either interpreter.  Per-method totals come from the
interpreters' flush points, which the parity suite already pins as
identical, so the per-track guest total must equal the per-method sum.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import (
    build_deadlock_pair,
    build_medium_inversion,
    build_philosophers,
)
from repro.vm.vmcore import JVM, VMOptions

MODES = ("unmodified", "rollback", "inheritance", "ceiling")


def _run(build, mode="rollback", interp="fast", **overrides):
    opts = dict(mode=mode, interp=interp, trace=True, profile=True,
                seed=7, max_cycles=50_000_000)
    opts.update(overrides)
    vm = JVM(VMOptions(**opts))
    build().install(vm)
    try:
        vm.run()
    except Exception:
        pass
    return vm


def _medium():
    return build_medium_inversion(
        medium_threads=2, low_section_iters=300,
        medium_work_iters=500, high_section_iters=60,
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("interp", ("fast", "reference"))
def test_total_equals_final_clock_exactly(mode, interp):
    vm = _run(_medium, mode=mode, interp=interp)
    assert vm.profiler.total_cycles() == vm.clock.now


@pytest.mark.parametrize("mode", MODES)
def test_guest_track_equals_per_method_sum(mode):
    vm = _run(_medium, mode=mode)
    per_method: dict = {}
    for (track, _method), (cycles, _insns) in vm.profiler.methods.items():
        per_method[track] = per_method.get(track, 0) + cycles
    for track, cats in vm.profiler.tracks.items():
        if track == "(vm)":
            continue
        assert cats.get("guest", 0) == per_method.get(track, 0), track


def test_rollback_cycles_attributed():
    vm = _run(lambda: build_deadlock_pair(hold_cycles=800, work=20))
    rollback = sum(
        cats.get("rollback", 0) for cats in vm.profiler.tracks.values()
    )
    assert rollback > 0
    assert rollback == vm.metrics()["support"]["rollback_cycles"]


def test_mechanism_split_present_under_rollback():
    vm = _run(_medium, mode="rollback")
    rows = vm.profiler.method_table()
    assert rows
    top = rows[0]
    # rollback mode runs write barriers + undo logging on guest stores
    assert sum(r["barrier"] for r in rows) > 0
    assert sum(r["undo_log"] for r in rows) > 0
    for r in rows:
        assert r["work"] >= 0
        # in-flush mechanisms never exceed the method's flushed cycles
        inflush = (r["barrier"] + r["undo_log"] + r["monitor"]
                   + r["native"])
        assert inflush <= r["cycles"]
    assert top["cycles"] >= rows[-1]["cycles"]


def test_switch_cycles_match_context_switch_cost():
    vm = _run(_medium, mode="unmodified")
    switch = sum(
        cats.get("switch", 0) for cats in vm.profiler.tracks.values()
    )
    m = vm.metrics()
    assert switch == m["context_switches"] * vm.cost_model.context_switch


def test_profiler_absent_by_default():
    vm = JVM(VMOptions(mode="rollback", trace=True))
    assert vm.profiler is None
    build_deadlock_pair(hold_cycles=800, work=20).install(vm)
    vm.run()  # no profiling machinery in the way


def test_profile_identical_across_interpreters():
    a = _run(_medium, interp="fast")
    b = _run(_medium, interp="reference")
    assert a.profiler.tracks == b.profiler.tracks
    assert a.profiler.methods == b.profiler.methods
    assert a.profiler.stacks == b.profiler.stacks
    assert a.profiler.mech == b.profiler.mech


def test_folded_stacks_cover_guest_cycles():
    vm = _run(lambda: build_philosophers(
        3, rounds=3, think_cycles=300, eat_iters=15
    ))
    by_track: dict = {}
    for (track, _stack), cycles in vm.profiler.stacks.items():
        by_track[track] = by_track.get(track, 0) + cycles
    for track, cats in vm.profiler.tracks.items():
        if track == "(vm)":
            continue
        assert by_track.get(track, 0) == cats.get("guest", 0)


def test_profiling_does_not_change_the_run():
    plain = _run(_medium, profile=False)
    profiled = _run(_medium, profile=True)
    assert plain.clock.now == profiled.clock.now
    assert plain.clock.events == profiled.clock.events
    assert [str(e) for e in plain.tracer.events] == [
        str(e) for e in profiled.tracer.events
    ]
    pm, qm = plain.metrics(), profiled.metrics()
    assert pm["support"] == qm["support"]
