"""Interactive inspection: step a VM slice by slice and look inside it.

The :class:`Inspector` drives the same scheduler entry point the normal
run loop uses, one scheduling decision at a time, so a debugging session
observes exactly the execution a plain ``vm.run()`` would produce::

    vm = JVM(VMOptions(mode="rollback", trace=True))
    ...load/spawn...
    insp = Inspector(vm)
    insp.run_until_event("rollback_begin")     # stop at the first rollback
    print(insp.stack_trace(vm.thread_named("low")))
    print(insp.disassemble_around(vm.thread_named("low")))
    insp.finish()                              # drive the rest to completion
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import VMStateError
from repro.vm.bytecode import disassemble
from repro.vm.threads import ThreadState, VMThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.vmcore import JVM


class Inspector:
    """Slice-stepping controller for one :class:`~repro.vm.vmcore.JVM`.

    Construct it *instead of* calling ``vm.run()``; call :meth:`finish`
    (or step to exhaustion) to complete the run.  The VM is marked as run
    once the inspector drains it, so the usual one-shot rules apply.
    """

    def __init__(self, vm: "JVM"):
        if vm._ran:
            raise VMStateError("this VM already completed run()")
        self.vm = vm
        self._exhausted = False
        if vm.options.modified and vm.options.barrier_elision:
            vm._run_barrier_elision()

    # --------------------------------------------------------------- driving
    def step_slice(self, n: int = 1) -> list[tuple[Optional[str], str]]:
        """Execute up to ``n`` scheduling decisions.

        Returns the executed steps as ``(thread name or None, reason)``
        pairs; fewer than ``n`` entries means the VM ran out of work.
        """
        steps: list[tuple[Optional[str], str]] = []
        for _ in range(n):
            result = self._step()
            if result is None:
                break
            thread, reason = result
            steps.append((thread.name if thread else None, reason))
        return steps

    def run_until(
        self,
        predicate: Callable[["JVM"], bool],
        *,
        max_slices: int = 1_000_000,
    ) -> bool:
        """Step until ``predicate(vm)`` holds.  Returns False when the VM
        finished (or the slice budget ran out) without satisfying it."""
        for _ in range(max_slices):
            if predicate(self.vm):
                return True
            if self._step() is None:
                return predicate(self.vm)
        return False

    def run_until_event(self, kind: str, **match) -> bool:
        """Step until a trace event of ``kind`` (with matching detail
        key/values) has been recorded.  Requires tracing."""
        if not self.vm.tracer.enabled:
            raise VMStateError(
                "run_until_event needs VMOptions(trace=True)"
            )

        def seen(vm: "JVM") -> bool:
            for e in vm.tracer.of_kind(kind):
                if all(e.details.get(k) == v for k, v in match.items()):
                    return True
            return False

        return self.run_until(seen)

    def finish(self) -> "JVM":
        """Drive the remaining work to completion (like ``vm.run()``)."""
        while self._step() is not None:
            pass
        return self.vm

    def _step(self):
        if self._exhausted:
            return None
        result = self.vm.scheduler.step()
        if result is None:
            self._exhausted = True
            self.vm._ran = True
            if self.vm.uncaught and self.vm.options.raise_on_uncaught:
                from repro.errors import UncaughtGuestException

                thread, exc = self.vm.uncaught[0]
                raise UncaughtGuestException(
                    thread.name,
                    exc.classdef.name,
                    str(exc.fields.get("message", "")),
                )
        return result

    @property
    def finished(self) -> bool:
        return self._exhausted

    # ------------------------------------------------------------ inspection
    def stack_trace(self, thread: VMThread) -> str:
        """Render the thread's call stack, innermost frame first."""
        lines = [
            f"{thread.name} [{thread.state.value}] "
            f"prio={thread.priority}"
            + (f" (eff {thread.effective_priority})"
               if thread.effective_priority != thread.priority else "")
        ]
        for frame in reversed(thread.frames):
            ins = (
                frame.code[frame.pc] if frame.pc < len(frame.code) else "?"
            )
            lines.append(
                f"  at {frame.method.qualified_name()} pc={frame.pc}: "
                f"{ins!r}"
            )
        if thread.sections:
            lines.append(
                "  sections: "
                + " > ".join(repr(s) for s in thread.sections)
            )
        if thread.blocked_on is not None:
            lines.append(f"  blocked on {thread.blocked_on!r}")
        return "\n".join(lines)

    def disassemble_around(
        self, thread: VMThread, *, window: int = 4
    ) -> str:
        """Disassembly of the current frame around its pc."""
        if not thread.frames:
            return f"{thread.name}: no frames"
        frame = thread.frames[-1]
        lo = max(0, frame.pc - window)
        hi = min(len(frame.code), frame.pc + window + 1)
        lines = []
        for pc in range(lo, hi):
            marker = "->" if pc == frame.pc else "  "
            lines.append(f"{marker} {pc:>4}: {frame.code[pc]!r}")
        return "\n".join(lines)

    def locals_of(self, thread: VMThread) -> list:
        """Snapshot of the current frame's local variables."""
        if not thread.frames:
            return []
        return list(thread.frames[-1].locals)

    def operand_stack_of(self, thread: VMThread) -> list:
        if not thread.frames:
            return []
        return list(thread.frames[-1].stack)

    def threads_summary(self) -> str:
        """One line per thread: state, priority, position."""
        lines = []
        for t in self.vm.threads:
            pos = ""
            if t.frames and t.state is not ThreadState.TERMINATED:
                frame = t.frames[-1]
                pos = f" @ {frame.method.qualified_name()}:{frame.pc}"
            lines.append(
                f"{t.name:>12}  {t.state.value:<10} prio={t.priority}"
                f"{pos}"
            )
        return "\n".join(lines)

    def disassemble_method(self, class_name: str, method: str) -> str:
        return disassemble(self.vm.resolve_method(class_name, method).code)

    def disassemble_decoded(self, class_name: str, method: str) -> str:
        """Predecode view of a method: fused basic blocks with their
        batched costs, superinstruction counts, and the generated Python
        source of each block (see :mod:`repro.vm.predecode`).

        Predecodes on demand, so it works regardless of whether the
        method has executed yet (and under ``interp="reference"``, where
        it shows what *would* fuse).
        """
        from repro.vm.predecode import predecode_method, render_decoded

        m = self.vm.resolve_method(class_name, method)
        return render_decoded(predecode_method(self.vm, m))
