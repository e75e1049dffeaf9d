"""Superblock trace compilation: formation, eligibility bail-outs, and
guard-failure parity (PR 7 tentpole).

Superblocks may only change speed, never behaviour, so every behavioural
test here runs the same guest program once per interpreter and compares
the full observable surface — clock value, clock event count, checker
fingerprint, metrics, trace stream.  The scenarios target the escape
hatches of the guard-and-commit protocol specifically: a revocation
arriving at the anchor, a fault plane going quiet mid-run, a guest
exception unwinding out of a fused iteration, quantum preemption, and
starvation detection firing from inside the generated function.
"""

from __future__ import annotations

import pytest

from repro import FaultPlan
from repro.check.oracle import final_fingerprint, fingerprint_digest
from repro.errors import StarvationError, UncaughtGuestException
from repro.vm.assembler import Asm
from repro.vm.predecode import predecode_method, render_decoded
from repro.vm.tracecomp import SuperBlock
from repro.vm.vmcore import JVM, VMOptions

from conftest import build_class, make_vm


def _snap(vm: JVM, outcome: str) -> dict:
    return {
        "outcome": outcome,
        "clock_now": vm.clock.now,
        "clock_events": vm.clock.events,
        "fingerprint": fingerprint_digest(final_fingerprint(vm, outcome)),
        "metrics": vm.metrics(),
        "trace": list(vm.tracer.events),
    }


def _run(install, mode: str, interp: str, **opts) -> dict:
    vm = make_vm(mode, interp=interp, seed=7, **opts)
    install(vm)
    outcome = "ok"
    try:
        vm.run()
    except StarvationError:
        outcome = "starved"
    except UncaughtGuestException as exc:
        outcome = f"uncaught:{exc}"
    return _snap(vm, outcome)


def _assert_parity(install, mode: str = "rollback", **opts) -> dict:
    """Run fast and reference; everything must match.  Returns the fast
    snapshot so callers can additionally assert the scenario engaged."""
    ref = _run(install, mode, "reference", **opts)
    fast = _run(install, mode, "fast", **opts)
    for key in ref:
        assert fast[key] == ref[key], f"{mode}: {key} diverged"
    return fast


# ------------------------------------------------------------- formation
def _hot_loop(count: int = 100) -> Asm:
    a = Asm("run", argc=0)
    i = a.local()
    a.for_range(i, lambda: a.const(count), lambda: (
        a.getstatic("C", "value"), a.const(1), a.add(),
        a.putstatic("C", "value"),
    ))
    a.ret()
    return a


def _decode(asm: Asm, mode: str = "unmodified"):
    vm = make_vm(mode, interp="fast")
    vm.load(build_class("C", ["lock:ref", "value"], [asm]))
    method = vm.classes["C"].method("run")
    return predecode_method(vm, method)


class TestFormation:
    def test_hot_loop_forms_a_superblock(self):
        dm = _decode(_hot_loop())
        assert dm.superblock_list, "for_range back-edge must fuse"
        sb = dm.superblock_list[0]
        assert isinstance(sb, SuperBlock)
        assert sb.head < sb.anchor
        assert callable(sb.fn)
        # the dispatch table points the anchor pc at the superblock
        assert dm.superblocks[sb.anchor] is sb
        # non-anchor pcs carry no superblock
        others = [s for pc, s in enumerate(dm.superblocks)
                  if s is not None and pc != sb.anchor]
        assert others == []

    def test_superblock_forms_inside_sync_section(self):
        """Barriered stores are batchable, so a loop inside a rollback
        section still fuses (the bench's dominant shape)."""
        a = Asm("run", argc=0)
        a.getstatic("C", "lock")
        with a.sync():
            i = a.local()
            a.for_range(i, lambda: a.const(50), lambda: (
                a.getstatic("C", "value"), a.const(1), a.add(),
                a.putstatic("C", "value"),
            ))
        a.ret()
        dm = _decode(a, mode="rollback")
        assert dm.superblock_list

    def test_render_decoded_shows_superblock_section(self):
        dm = _decode(_hot_loop())
        text = render_decoded(dm)
        sb = dm.superblock_list[0]
        assert f"-- superblock @{sb.anchor}" in text
        assert f"def _s{sb.anchor}(" in sb.source

    def test_loop_with_yield_point_in_body_not_fused(self):
        """A body op that is itself a yield point (here a call) keeps
        the loop block-at-a-time."""
        callee = Asm("leaf", argc=0)
        callee.const(1).putstatic("C", "value")
        callee.ret()
        a = Asm("run", argc=0)
        i = a.local()
        a.for_range(i, lambda: a.const(10), lambda: (
            a.invoke("C", "leaf", 0),
        ))
        a.ret()
        vm = make_vm("unmodified", interp="fast")
        vm.load(build_class("C", ["lock:ref", "value"], [a, callee]))
        dm = predecode_method(vm, vm.classes["C"].method("run"))
        assert dm.superblock_list == []

    def test_invalidate_drops_superblocks(self):
        vm = make_vm("unmodified", interp="fast")
        vm.load(build_class("C", ["lock:ref", "value"], [_hot_loop()]))
        method = vm.classes["C"].method("run")
        dm = predecode_method(vm, method)
        assert dm.superblock_list
        method.invalidate_decoded()
        assert method.__dict__.get("_decoded") is None


# ------------------------------------------------- guard-failure parity
def _install_inversion(vm: JVM) -> None:
    """Priority inversion over a fused loop inside a section: the high
    thread's revocation lands at the low thread's anchor yield point."""
    run = Asm("run", argc=2)  # (iters, delay)
    run.load(1).sleep()
    run.getstatic("T", "lock")
    with run.sync():
        i = run.local()
        run.for_range(i, lambda: run.load(0), lambda: (
            run.getstatic("T", "counter"), run.const(1), run.add(),
            run.putstatic("T", "counter"),
        ))
    run.ret()
    vm.load(build_class("T", ["lock:ref", "counter:int"], [run]))
    vm.set_static("T", "lock", vm.new_object("T"))
    vm.spawn("T", "run", args=[2_000, 1], priority=1, name="low")
    vm.spawn("T", "run", args=[60, 6_000], priority=10, name="high")


class TestGuardParity:
    def test_revocation_arriving_mid_loop(self):
        """A pending revocation must refuse superblock entry and take
        the inline rollback path, byte-identical to the reference."""
        fast = _assert_parity(_install_inversion, "rollback")
        assert fast["metrics"]["support"]["revocations_completed"] >= 1

    @pytest.mark.parametrize("mode", ("inheritance", "ceiling"))
    def test_inversion_parity_other_policies(self, mode):
        _assert_parity(_install_inversion, mode)

    def test_fault_plane_quieting_mid_run(self):
        """With guest-exception faults armed the anchor probe must run
        every iteration (no fusion); once the injection budget is spent
        ``yield_quiet`` flips and fusion resumes — both phases must stay
        byte-identical to the reference."""
        def install(vm: JVM) -> None:
            run = Asm("run", argc=0)
            i = run.local()
            run.for_range(i, lambda: run.const(500), lambda: (
                run.getstatic("C", "value"), run.const(1), run.add(),
                run.putstatic("C", "value"),
            ))
            run.ret()
            vm.load(build_class("C", ["lock:ref", "value"], [run]))
            for n in range(4):
                vm.spawn("C", "run", priority=5, name=f"t{n}")

        fast = _assert_parity(
            install, "rollback",
            faults=FaultPlan(guest_exception_rate=0.01, max_injections=2),
            raise_on_uncaught=False,
        )
        # the scenario engaged: the budget was actually spent, so the
        # run crossed from probing to fused execution
        injected = sum(
            e.details.get("count", 1)
            for e in fast["trace"] if e.kind == "fault_inject"
        )
        assert injected == 2

    def test_guest_exception_unwinding_from_fused_run(self):
        """A divide fault on iteration 50 of a fused loop, caught by a
        handler *outside* the loop: the superblock's partial-iteration
        accumulators and faulting pc must reproduce the reference's
        charge-before-execute accounting exactly."""
        def install(vm: JVM) -> None:
            a = Asm("run", argc=0)
            i = a.local()

            def body():
                a.for_range(i, lambda: a.const(200), lambda: (
                    a.getstatic("C", "value"), a.const(1), a.add(),
                    a.putstatic("C", "value"),
                    a.const(100), a.const(50),
                    a.getstatic("C", "value"), a.sub(), a.div(),
                    a.putstatic("C", "out"),
                ))

            def on_arith():
                a.pop()
                a.const(-1).putstatic("C", "err")

            a.try_(body, catches=[("ArithmeticException", on_arith)])
            a.ret()
            vm.load(build_class(
                "C", ["lock:ref", "value", "out", "err"], [a]
            ))
            vm.spawn("C", "run", priority=5, name="t0")

        for mode in ("unmodified", "rollback"):
            fast = _assert_parity(install, mode)
            assert fast["outcome"] == "ok"

    def test_quantum_preemption_inside_superblock(self):
        """Two competing threads force the in-trace preemption exit
        (commit + return -1) many times; slice boundaries, context
        switches and the clock must match the reference."""
        def install(vm: JVM) -> None:
            run = Asm("run", argc=0)
            i = run.local()
            run.for_range(i, lambda: run.const(5_000), lambda: (
                run.getstatic("C", "value"), run.const(1), run.add(),
                run.putstatic("C", "value"),
            ))
            run.ret()
            vm.load(build_class("C", ["lock:ref", "value"], [run]))
            vm.spawn("C", "run", priority=5, name="a")
            vm.spawn("C", "run", priority=5, name="b")

        fast = _assert_parity(install, "unmodified")
        assert fast["metrics"]["context_switches"] >= 2

    def test_starvation_raised_from_superblock(self):
        """The in-trace max-cycles check must starve at the same virtual
        cycle as the reference's per-yield-point check."""
        def install(vm: JVM) -> None:
            run = Asm("run", argc=0)
            i = run.local()
            run.for_range(i, lambda: run.const(1_000_000), lambda: (
                run.getstatic("C", "value"), run.const(1), run.add(),
                run.putstatic("C", "value"),
            ))
            run.ret()
            vm.load(build_class("C", ["lock:ref", "value"], [run]))
            vm.spawn("C", "run", priority=5, name="t0")

        fast = _assert_parity(install, "unmodified", max_cycles=20_000)
        assert fast["outcome"] == "starved"
