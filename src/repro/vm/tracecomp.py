"""Superblock trace compilation: whole loop iterations per Python call.

Predecoded basic blocks (:mod:`repro.vm.predecode`) stop at every yield
point, so a hot guest loop still pays one trip through the interpreter's
yield-point machinery — clock flush, starvation check, revocation poll,
fault probe, preemption test — per iteration, plus one Python call per
basic block of the body.  This module compiles eligible loops into
*superblocks*: one generated function that runs iterations back to back,
hoisting the yield-point checks into a guard-and-commit protocol.

Eligibility and anchoring
-------------------------

A superblock is anchored at a backward unconditional ``GOTO`` yield point
``t -> h`` (a loop back-edge; see
:func:`repro.vm.bytecode.is_backward_branch`) whose whole body ``[h, t)``
is fusable (:func:`repro.vm.predecode._fusable`): no yield points, no
parking/trace-emitting ops, heap ops excluded under ``trace_memory``.
Backward branches are yield points by construction, so the body contains
only *forward* control flow, which the lowering shared with basic
blocks (:class:`repro.vm.predecode._Lowering`) turns into nested ``if``
statements; anything it cannot nest
(:class:`~repro.vm.predecode._Unstructured`) simply stays un-fused —
superblock coverage, like block coverage, can only affect speed, never
behaviour.

The guard-and-commit protocol
-----------------------------

The dispatch loop enters a superblock from the anchor's yield point
*after* the inlined flush and checks have all passed (so the unflushed
accumulators are zero), and only when every hoisted check is provably
constant for the duration of the run:

* ``thread.revocation_request is None`` — revocation requests are posted
  by other threads, which cannot run during this thread's slice
  (deterministic uniprocessor), so "no request now" means "no request
  until we return";
* the fault plane is absent or :meth:`~repro.faults.plane.FaultPlane.
  yield_quiet` — its yield-point probe is a pure no-op (no RNG draw, no
  injection), so skipping it is unobservable;
* no profiler and no clock listener — both attribute per-flush, which a
  batched commit cannot replicate;
* preemption inputs are constants: ``preempt_requested`` can only be set
  by code this thread runs (none inside a loop body), and the sleeper
  queue cannot change (no parking ops in the body), so the pending wake
  time ``PW`` is read once at entry.

Inside the generated function each iteration charges the back-edge and
the executed body exactly as the dispatch chain would, then
*commits* the iteration — ``dn += acc; de += 1`` — and re-evaluates the
hoisted checks against the VM's quantum and cycle cap.  Those two are
not baked into the source: they are the namespace bindings ``QU`` and
``MAXC`` of the VM the template is bound to (see
:mod:`repro.vm.predecode`), read into locals once per call, so VMs that
differ only in quantum or cap share one translation.  Whether a cap is
set at all *is* part of the translation (the test is omitted without
one).  On any exit the accumulated cycles and flush-event count
are folded into the clock in one :meth:`Clock.commit_batch` call plus
the three thread mirrors, which is byte-identical (clock value *and*
event count) to the per-iteration flushes the chain performs.

Exits:

* **preemption / due wake-up** — commit, ``return -1``; the dispatcher
  parks the frame at the anchor pc exactly like the inline check;
* **starvation** — commit, raise :class:`~repro.errors.StarvationError`
  (not a guest error: it passes through every guest handler, as in the
  reference);
* **branch out of the loop** and **guest exception** — commit the
  completed iterations, then hand the partial iteration back exactly as
  a basic block does (the hand-back protocol of
  :mod:`repro.vm.predecode`): its unflushed ``acc``/``ic`` in the ``A``
  cells, the target pc as the return value or the faulting pc in
  ``F[0]``; the dispatcher continues accumulating from there or
  re-raises into the chain's exception path.
"""

from __future__ import annotations

from repro.vm import bytecode as bc
from repro.vm.predecode import _Lowering, _Unstructured, _fusable


class SuperBlock:
    """A compiled loop trace anchored at one backward-GOTO yield point."""

    __slots__ = ("anchor", "head", "fn", "source")

    def __init__(self, anchor: int, head: int, fn, source: str):
        #: pc of the backward GOTO the trace is entered from
        self.anchor = anchor
        #: loop header (the GOTO's target); iterations run [head, anchor)
        self.head = head
        #: ``fn(stack, locals_, F, A, T, PW) -> exit pc | -1`` (bound by
        #: the method-level compile)
        self.fn = fn
        self.source = source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SuperBlock @{self.anchor} loop [{self.head},{self.anchor})>"


def find_regions(pre) -> list[tuple[int, int]]:
    """Candidate loops ``(head, anchor)``: a backward-GOTO yield point
    whose whole body is fusable."""
    code = pre.method.code
    out = []
    for t, ins in enumerate(code):
        if ins.op != bc.GOTO or not ins.ypoint:
            continue
        if not isinstance(ins.a, int) or ins.a >= t:
            continue  # unresolved or degenerate (empty) self-loop
        head = ins.a
        if all(_fusable(code[pc], pre.fuse_heap) for pc in range(head, t)):
            out.append((head, t))
    return out


def compile_superblocks(pre) -> list[SuperBlock]:
    """Compile every structurizable candidate loop of ``pre.method``."""
    out = []
    for head, anchor in find_regions(pre):
        try:
            out.append(_SuperCompiler(pre, head, anchor).compile())
        except _Unstructured:
            continue
    return out


class _SuperCompiler(_Lowering):
    """Lower one loop body inside the iteration-batching loop, commit and
    guard wrapper."""

    def __init__(self, pre, head: int, anchor: int):
        super().__init__(pre, head, anchor)
        self.head = head
        self.anchor = anchor

    def compile(self) -> SuperBlock:
        em = self.em
        em.emit("n0 = CLK.now")
        em.emit("qu = T.quantum_used")
        em.emit("quantum = QU")
        if self.pre.bounded:
            em.emit("cap = MAXC")
        em.emit("dn = 0")
        em.emit("de = 0")
        em.emit("di = 0")
        self._guarded(self._loop)
        name = f"_s{self.anchor}"
        body = "\n".join(em.lines)
        source = f"def {name}(stack, locals_, F, A, T, PW):\n{body}\n"
        return SuperBlock(self.anchor, self.head, None, source)

    def _loop(self) -> None:
        em = self.em
        em.emit("while True:")
        em.indent += 1
        em.emit("acc = 0")
        em.emit("ic = 0")
        # every iteration charges the back-edge GOTO first (the reference
        # charges it when dispatching the anchor, before the body runs)
        em.charge(self.code[self.anchor])
        self._gen(self.head, self.anchor)
        em.flush_batch()
        em.flush_charges()
        em.flush_stack()
        em.emit("dn += acc")
        em.emit("de += 1")
        em.emit("di += ic")
        if self.pre.bounded:
            em.emit("if n0 + dn > cap:")
            em.indent += 1
            self._commit()
            em.emit("raise SERR(cap)")
            em.indent -= 1
        em.emit("if qu + dn >= quantum or PW <= n0 + dn:")
        em.indent += 1
        self._commit()
        em.emit("A[0] = 0")
        em.emit("A[1] = 0")
        em.emit("return -1")
        em.indent -= 1
        em.indent -= 1  # while

    def _commit(self) -> None:
        """Fold the completed iterations into the clock and the thread."""
        em = self.em
        em.emit("CLK.commit_batch(dn, de)")
        em.emit("T.cycles_executed += dn")
        em.emit("T.quantum_used += dn")
        em.emit("T.instructions_executed += di")
