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
only *forward* control flow, which the structurizer lowers to nested
``if`` statements; anything it cannot prove structured
(:class:`_Unstructured`) simply stays un-fused — superblock coverage,
like block coverage, can only affect speed, never behaviour.

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
* **branch out of the loop** — commit the *completed* iterations, hand
  the partial iteration's unflushed ``acc``/``ic`` back through the
  ``A`` cells and return the target pc, where normal dispatch continues
  accumulating;
* **guest exception** — commit completed iterations, hand back the
  partial accumulators (cost model: charge-before-execute, so the
  faulting op is included) and the faulting pc through ``F[0]``; the
  dispatcher re-raises into the chain's exception path.

Static costs are charged lazily at code-generation time: a pending
(cost, count) pair accrues per emitted instruction and is flushed into
the ``acc``/``ic`` locals before any op that can raise, at control-flow
splits, and at iteration boundaries — so the locals equal the
chain's unflushed accumulators at every observable escape point
without per-instruction arithmetic in the common case.
"""

from __future__ import annotations

from typing import Optional

from repro.vm import bytecode as bc
from repro.vm.predecode import _CMP_EXPR, _Emitter, _fusable


class _Unstructured(Exception):
    """Loop body control flow the structurizer cannot lower; not an
    error — the loop just stays block-at-a-time."""


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


class _SuperCompiler:
    """Lower one loop body to a generated iteration-batching function."""

    def __init__(self, pre, head: int, anchor: int):
        self.pre = pre
        self.code = pre.method.code
        self.head = head
        self.anchor = anchor
        self.em = _Emitter(pre, "super")

    # ------------------------------------------------------------ framework
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
        em.emit("try:")
        em.indent += 1
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
            self._writeback()
            em.emit("raise SERR(cap)")
            em.indent -= 1
        em.emit("if qu + dn >= quantum or PW <= n0 + dn:")
        em.indent += 1
        self._writeback()
        em.emit("A[0] = 0")
        em.emit("A[1] = 0")
        em.emit("return -1")
        em.indent -= 1
        em.indent -= 1  # while
        em.indent -= 1  # try
        em.emit("except GRE:")
        em.indent += 1
        self._writeback()
        em.emit("A[0] = acc")
        em.emit("A[1] = ic")
        em.emit("raise")
        em.indent -= 1

        name = f"_s{self.anchor}"
        body = "\n".join(em.lines)
        source = f"def {name}(stack, locals_, F, A, T, PW):\n{body}\n"
        return SuperBlock(self.anchor, self.head, None, source)

    def _writeback(self) -> None:
        em = self.em
        em.emit("CLK.commit_batch(dn, de)")
        em.emit("T.cycles_executed += dn")
        em.emit("T.quantum_used += dn")
        em.emit("T.instructions_executed += di")

    def _exit(self, target: int) -> None:
        """Leave the trace mid-iteration for ``target`` (outside the
        loop): commit completed iterations, hand the partial iteration's
        accumulators to the dispatcher."""
        em = self.em
        em.flush_batch()
        em.flush_charges()
        em.flush_stack()
        self._writeback()
        em.emit("A[0] = acc")
        em.emit("A[1] = ic")
        em.emit(f"return {target}")

    def _arm(self, header: str, body) -> None:
        """Emit ``header``, generate ``body`` indented under it, and close
        the arm with the batch/charge/stack flushes a join requires."""
        em = self.em
        em.flush_batch()
        em.flush_charges()
        em.flush_stack()
        em.emit(header)
        em.indent += 1
        before = len(em.lines)
        body()
        em.flush_batch()
        em.flush_charges()
        em.flush_stack()
        if len(em.lines) == before:
            em.emit("pass")  # e.g. an arm of only zero-pending charges
        em.indent -= 1

    def _outside(self, target: int) -> bool:
        """True when ``target`` leaves the loop region entirely."""
        return target < self.head or target > self.anchor

    # ------------------------------------------------------------- lowering
    def _gen(self, lo: int, hi: int) -> None:
        """Lower ``[lo, hi)``; control falls off the end into the caller's
        continuation (the loop back-edge when ``hi == anchor``)."""
        em = self.em
        code = self.code
        pc = lo
        while pc < hi:
            ins = code[pc]
            op = ins.op

            if op in _CMP_EXPR or op == bc.EQ or op == bc.NE:
                nxt = code[pc + 1] if pc + 1 < hi else None
                if nxt is not None and nxt.op in (bc.IF, bc.IFNOT):
                    em.charge(ins)
                    em.charge(nxt)
                    cond = em.branch_cond(op)
                    self.pre._bump("cmp+branch")
                    self._branch(pc + 1, nxt, cond, hi)
                    return
                em.charge(ins)
                em.emit_op(pc, ins)
            elif op == bc.IF or op == bc.IFNOT:
                em.charge(ins)
                v = em.pop()
                self._branch(pc, ins, v.expr, hi)
                return
            elif op == bc.GOTO:
                g = ins.a
                if g == hi and pc + 1 == hi:
                    em.charge(ins)
                    return  # jump to the join the caller generates next
                if self._outside(g) and pc + 1 == hi:
                    em.charge(ins)
                    self._exit(g)
                    return
                # a join-skipping GOTO with trailing code, or a forward
                # jump into the middle of the region: the trailing code
                # may be a branch target this linear lowering cannot
                # represent — leave the loop un-fused.
                raise _Unstructured
            else:
                em.charge(ins)
                em.emit_op(pc, ins)
            pc += 1

    def _branch(self, bpc: int, ins, cond: str, hi: int) -> None:
        """Lower a forward IF/IFNOT at ``bpc`` (condition already popped;
        its cost already charged)."""
        code = self.code
        L = ins.a
        f = bpc + 1
        taken = cond if ins.op == bc.IF else f"not ({cond})"
        nottaken = f"not ({cond})" if ins.op == bc.IF else cond

        if L == f:
            # degenerate branch to its own fall-through: no split
            self._gen(f, hi)
            return
        if L == hi:
            # if_then: the taken path jumps straight to the join
            self._arm(f"if {nottaken}:", lambda: self._gen(f, hi))
            return
        if self._outside(L):
            # loop exit on the taken path; fall-through stays in the body
            self._arm(f"if {taken}:", lambda: self._exit(L))
            self._gen(f, hi)
            return
        if f < L < hi:
            prev = code[L - 1]
            if (prev.op == bc.GOTO and isinstance(prev.a, int)
                    and L < prev.a <= hi):
                # diamond: else-arm [f, L-1) ends in GOTO join; then-arm
                # [L, J); both meet at J
                J = prev.a

                def else_arm() -> None:
                    self._gen(f, L - 1)
                    self.em.charge(prev)  # the join-skipping GOTO

                self._arm(f"if {taken}:", lambda: self._gen(L, J))
                self._arm("else:", else_arm)
                self._gen(J, hi)
                return
            # one-armed skip: taken jumps over [f, L)
            self._arm(f"if {nottaken}:", lambda: self._gen(f, L))
            self._gen(L, hi)
            return
        raise _Unstructured
