"""Deep deterministic VM checkpoints (snapshot / restore).

A snapshot captures *everything the guest can observe*: heap objects,
arrays and statics, thread stacks (frames, operand stacks, saved-state
slots), monitors (owners, entry queues, wait sets), scheduler queues and
sleepers, the virtual clock, per-thread and global RNG state, the runtime
support layer (undo logs, section records, JMM dependency map, site
degradation ladders), the fault plane, and the stored trace.  Restoring a
snapshot yields an *independent* VM positioned at exactly the captured
point: driving it forward produces byte-identical clocks, traces, metrics
and final-state fingerprints to a from-zero replay of the same schedule
(pinned by ``tests/test_vm_snapshot.py`` under both block-table
sources, ``interp="fast"`` and ``"reference"``).

The schedule checker's DPOR engine (:mod:`repro.check.dpor`) checkpoints
at scheduler decision points so explored prefixes resume from snapshots
instead of replaying from cycle zero; the same machinery is the seed of a
time-travel debugger over the observability plane's spans.

What a snapshot deliberately does **not** capture:

* **External observers** — the scheduler decision hook, tracer sinks,
  post-slice hooks, and any non-profiler clock listener.  They reference
  host-side analyses whose state is not part of the VM; callers reinstall
  what they need on the restored VM.  (The cycle profiler *is* VM state:
  it is carried across and re-wired as the clock listener on restore.)
* **Predecode results** — translated basic blocks (``interp="fast"``)
  are host-side closures bound to one VM's runtime; they are dropped on
  both sides.  On next execution each method re-binds its translation
  template from the process-wide cache (:mod:`repro.vm.predecode`): a
  fresh namespace and fresh inline-cache cells around the already
  compiled code, no code generation or ``compile``.  This is
  observably free (virtual costs were assigned at link time).  The
  untranslated tables of ``interp="reference"`` are process-wide and
  never stored on the VM, so there is nothing to drop.

Snapshots are copy-on-capture: the master copy inside a
:class:`VMSnapshot` is never executed, and every :func:`restore_vm` call
produces a fresh independent VM, so one checkpoint can seed any number of
divergent continuations.  Stored trace events are immutable and shared
structurally between the original VM, the snapshot, and every restore —
checkpointing stays O(live state), not O(execution history).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.vmcore import JVM


class VMSnapshot:
    """One frozen checkpoint of a :class:`~repro.vm.vmcore.JVM`.

    Treat instances as opaque: the master copy inside is quiescent and
    must only ever be cloned by :func:`restore_vm`, never run.
    """

    __slots__ = ("_master", "_events", "clock_now", "clock_events",
                 "slices", "decisions")

    def __init__(self, master: "JVM", events: tuple) -> None:
        self._master = master
        self._events = events
        #: capture-time identity, handy for assertions and debug output
        self.clock_now = master.clock.now
        self.clock_events = master.clock.events
        self.slices = master.scheduler.slices
        self.decisions = master.scheduler.decisions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VMSnapshot(clock={self.clock_now}, slices={self.slices}, "
            f"decisions={self.decisions}, events={len(self._events)})"
        )


def _drop_decoded(vm: "JVM") -> None:
    """Drop every method's predecode result (host-side closures)."""
    for classdef in vm.classes.values():
        for method in classdef.methods.values():
            method.invalidate_decoded()


def snapshot_vm(vm: "JVM") -> VMSnapshot:
    """Capture a deep deterministic checkpoint of ``vm``.

    The VM must be at a quiescent point between scheduler steps (no slice
    in flight): ``vm.current_thread`` is None there and every mutation is
    parked in heap/thread/scheduler state.  The original VM is returned to
    service untouched (observers reattached, trace log back in place).
    """
    if vm.current_thread is not None:
        raise ValueError(
            "snapshot_vm requires a quiescent VM (between scheduler "
            "steps); a slice is currently executing"
        )
    scheduler = vm.scheduler
    tracer = vm.tracer
    # Detach everything a snapshot must not capture. Trace events are
    # swapped out and shared structurally (TraceEvent is frozen).
    hook, scheduler.decision_hook = scheduler.decision_hook, None
    sinks, tracer._sinks = tracer._sinks, []
    slice_hooks, vm.slice_hooks = vm.slice_hooks, []
    listener, vm.clock.listener = vm.clock.listener, None
    events, tracer.events = tracer.events, []
    _drop_decoded(vm)
    try:
        master = copy.deepcopy(vm)
    finally:
        scheduler.decision_hook = hook
        tracer._sinks = sinks
        vm.slice_hooks = slice_hooks
        vm.clock.listener = listener
        tracer.events = events
    return VMSnapshot(master, tuple(events))


def restore_vm(snapshot: VMSnapshot) -> "JVM":
    """Materialize an independent runnable VM from ``snapshot``.

    Each call clones the frozen master, so restoring the same checkpoint
    twice yields two fully isolated continuations.  External observers
    (decision hook, tracer sinks, slice hooks) come back empty; the
    profiler, when present, is re-wired as the clock listener.
    """
    vm = copy.deepcopy(snapshot._master)
    vm.tracer.events = list(snapshot._events)
    if vm.profiler is not None:
        vm.clock.listener = vm.profiler
    return vm
