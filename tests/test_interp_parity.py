"""Differential parity: translated vs untranslated dispatch.

The VM has one dispatch loop (:mod:`repro.vm.interpreter`) with two
block-table sources.  ``interp="fast"`` runs predecoded basic blocks and
superblocks (:mod:`repro.vm.predecode`, :mod:`repro.vm.tracecomp`);
``interp="reference"`` runs every instruction through the dispatch
chain, which makes it the oracle.  The two must be *observationally
indistinguishable*: identical virtual clock totals **and** clock event
counts (every ``advance()`` call, even ``advance(0)``, is part of the
determinism fingerprint), identical trace event streams, identical
metrics, and identical checker fingerprints.  These tests run the same
guest program once per source and compare all of it.

The comparison is sound because every build and run is independent of
what ran before in the process: sync ids are numbered per assembler and
section ids per VM, so building and running a workload twice yields the
same bytecode and the same section names.  The last test guards the
oracle side: an untranslated run must never translate, or the suite
would compare translated code against itself.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_microbench
from repro.bench.microbench import MicrobenchConfig
from repro.bench.workloads import (
    build_bank,
    build_bounded_buffer,
    build_deadlock_pair,
    build_medium_inversion,
    build_philosophers,
)
from repro.check.oracle import final_fingerprint, fingerprint_digest
from repro.check.scenarios import scenarios
from repro.errors import DeadlockError, UncaughtGuestException
from repro.vm import predecode
from repro.vm.assembler import Asm
from repro.vm.predecode import TemplateCache
from repro.vm.vmcore import JVM, VMOptions

MODES = ("unmodified", "rollback", "inheritance", "ceiling")
INTERPS = ("reference", "fast")


def _snap(vm: JVM, outcome: str) -> dict:
    """Everything an interpreter can observably influence, in one dict."""
    import hashlib

    from repro.obs.export import chrome_trace_bytes, spans_jsonl_bytes
    from repro.obs.spans import build_spans

    # observability artifacts are derived from the trace + clock, so
    # they too must be byte-identical across interpreters
    spans = build_spans(vm.tracer.events, vm.clock.now)
    jsonl = spans_jsonl_bytes(spans)
    chrome = chrome_trace_bytes(
        spans,
        thread_names=[t.name for t in vm.threads],
        clock_now=vm.clock.now,
    )
    return {
        "outcome": outcome,
        "clock_now": vm.clock.now,
        "clock_events": vm.clock.events,
        "fingerprint": fingerprint_digest(final_fingerprint(vm, outcome)),
        "metrics": vm.metrics(),
        "trace": list(vm.tracer.events),
        "spans_sha": hashlib.sha256(jsonl).hexdigest(),
        "chrome_sha": hashlib.sha256(chrome).hexdigest(),
    }


def _run_workload(build, mode: str, interp: str, **overrides) -> dict:
    workload = build()
    opts = dict(
        mode=mode, interp=interp, trace=True, seed=7,
        max_cycles=50_000_000,
    )
    opts.update(overrides)
    vm = JVM(VMOptions(**opts))
    workload.install(vm)
    outcome = "ok"
    try:
        vm.run()
    except DeadlockError:
        outcome = "deadlock"
    except UncaughtGuestException as exc:
        outcome = f"uncaught:{exc}"
    return _snap(vm, outcome)


def _assert_identical(build, mode: str, **overrides) -> None:
    ref = _run_workload(build, mode, "reference", **overrides)
    fast = _run_workload(build, mode, "fast", **overrides)
    # Compare field by field so a failure names the diverging channel.
    for key in ref:
        assert fast[key] == ref[key], f"{mode}: {key} diverged"


# ------------------------------------------------------- checker scenarios
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(scenarios()))
def test_checker_scenario_parity(name: str, mode: str) -> None:
    scenario = scenarios()[name]
    _assert_identical(scenario.build, mode, **scenario.options)


# ------------------------------------------- one figure workload per policy
# Pair each policy mode with a different workload so the suite covers
# the product cheaply: revocation (rollback), priority donation
# (inheritance), eager boosting (ceiling), plain scheduling (unmodified),
# each over a distinct synchronization shape.
POLICY_WORKLOADS = [
    ("unmodified", lambda: build_bounded_buffer(
        capacity=2, items_per_producer=6, producers=2, consumers=2)),
    ("rollback", lambda: build_medium_inversion(
        medium_threads=2, low_section_iters=300, medium_work_iters=500,
        high_section_iters=60)),
    ("inheritance", lambda: build_bank(
        accounts=4, transfers=10, hold_cycles=120)),
    ("ceiling", lambda: build_philosophers(3, rounds=3, think_cycles=300,
                                           eat_iters=15)),
]


@pytest.mark.parametrize(
    "mode,build", POLICY_WORKLOADS, ids=[m for m, _ in POLICY_WORKLOADS]
)
def test_policy_workload_parity(mode: str, build) -> None:
    _assert_identical(build, mode)


def test_deadlock_outcome_parity() -> None:
    """Both interpreters must deadlock identically (or revoke out of it)."""
    for mode in ("unmodified", "rollback"):
        _assert_identical(
            lambda: build_deadlock_pair(hold_cycles=800, work=20), mode
        )


# ------------------------------------------------------ figure micro-bench
@pytest.mark.parametrize("mode", MODES)
def test_microbench_parity(mode: str) -> None:
    """One scaled-down figure point per policy through the real harness."""
    config = MicrobenchConfig(
        high_threads=2, low_threads=2, iters_high=25, iters_low=50,
        sections=4, write_pct=60, pause_mean=2_000, seed=42,
    )
    results = {}
    for interp in INTERPS:
        results[interp] = run_microbench(
            config, mode, options=VMOptions(interp=interp)
        )
    assert results["fast"] == results["reference"]


# --------------------------------------------------- exception-path parity
# Faults raised from *inside* a fused block exercise the cost-repair path
# (suffix subtraction + fault-pc rewind); the outcomes, handler-relative
# clock values and traces must match the reference exactly.
def _exception_workloads():
    from conftest import build_class

    def guest(emit) -> object:
        def build():
            a = Asm("main")
            emit(a)
            a.ret()
            cls = build_class("Exc", ["out", "err"], [a])

            from repro.bench.workloads import Workload

            return Workload(
                name="exc", classdef=cls, setup=lambda vm: None,
                spawns=[("main", [], 5, "t0")],
            )
        return build

    def div_zero(a: Asm) -> None:
        # caught ArithmeticException after fused arithmetic ran
        def body():
            a.const(7).const(21).const(3).div().add()
            a.const(5).const(0).div()          # faults mid-block
            a.putstatic("Exc", "out")
        def on_arith():
            a.pop()
            a.const(-1).putstatic("Exc", "err")
        a.try_(body, catches=[("ArithmeticException", on_arith)])
        a.getstatic("Exc", "err").putstatic("Exc", "out")

    def array_oob(a: Asm) -> None:
        def body():
            a.const(4).newarray(0)
            a.const(9).const(2).astore()        # index 9 > length: faults
        def on_oob():
            a.pop()
            a.const(13).putstatic("Exc", "err")
        a.try_(body, catches=[("ArrayIndexOutOfBoundsException", on_oob)])

    def npe(a: Asm) -> None:
        def body():
            a.const(None).getfield("x")         # NPE inside a fused block
            a.putstatic("Exc", "out")
        def on_npe():
            a.pop()
            a.const(99).putstatic("Exc", "err")
        a.try_(body, catches=[("NullPointerException", on_npe)])

    def uncaught(a: Asm) -> None:
        a.const(3).const(1).sub()
        a.const(1).const(0).mod()               # uncaught: kills the thread

    # Every fusable op that can raise, faulting first, in the middle and
    # last in its fused run: the unit must hand back exactly the charges
    # the chain accrued up to and including the faulting op.  A yield
    # point (never fused) before or after the op makes it start or end
    # its run.  Each entry: (exception, push operands, the op).
    raising = {
        "div": ("ArithmeticException",
                lambda a, v: a.load(v["x"]).load(v["zero"]),
                lambda a: a.div()),
        "mod": ("ArithmeticException",
                lambda a, v: a.load(v["x"]).load(v["zero"]),
                lambda a: a.mod()),
        "getfield": ("NullPointerException",
                     lambda a, v: a.const(None),
                     lambda a: a.getfield("x")),
        "putfield": ("NullPointerException",
                     lambda a, v: a.const(None).load(v["x"]),
                     lambda a: a.putfield("x")),
        "aload": ("ArrayIndexOutOfBoundsException",
                  lambda a, v: a.load(v["arr"]).const(9),
                  lambda a: a.aload()),
        "astore": ("ArrayIndexOutOfBoundsException",
                   lambda a, v: a.load(v["arr"]).const(9).load(v["x"]),
                   lambda a: a.astore()),
        "arraylen": ("NullPointerException",
                     lambda a, v: a.const(None),
                     lambda a: a.arraylen()),
        "newarray": ("NegativeArraySizeException",
                     lambda a, v: a.const(-1),
                     lambda a: a.newarray(0)),
    }

    def fault_at(op: str, position: str):
        exc, operands, fault = raising[op]

        def emit(a: Asm) -> None:
            v = {name: a.local(name) for name in ("x", "zero", "arr")}
            a.const(7).store(v["x"]).const(0).store(v["zero"])
            a.const(4).newarray(0).store(v["arr"])

            def body():
                if position != "first":
                    a.const(3).const(4).mul().putstatic("Exc", "out")
                operands(a, v)
                if position == "first":
                    a.yield_()
                fault(a)
                if position == "last":
                    a.yield_()
                a.const(5).const(6).add().store(v["x"])
            def on_fault():
                a.pop()
                a.const(13).putstatic("Exc", "err")
            a.try_(body, catches=[(exc, on_fault)])
        return emit

    return [
        ("div-zero", guest(div_zero)),
        ("array-oob", guest(array_oob)),
        ("npe", guest(npe)),
        ("uncaught", guest(uncaught)),
    ] + [
        (f"{op}-{position}", guest(fault_at(op, position)))
        for op in raising
        for position in ("first", "middle", "last")
    ]


@pytest.mark.parametrize(
    "name,build_factory", _exception_workloads(),
    ids=[n for n, _ in _exception_workloads()],
)
@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
def test_exception_path_parity(name, build_factory, mode) -> None:
    _assert_identical(build_factory, mode)


# ------------------------------------------------------- oracle guard
def _counting_run(monkeypatch, **options) -> dict:
    """Run a rollback workload, counting translations, cached templates,
    translated MethodDefs and executed basic blocks."""
    templates = TemplateCache(predecode.TEMPLATE_CACHE_CAPACITY)
    monkeypatch.setattr(predecode, "TEMPLATES", templates)
    translate = predecode.predecode_method
    counts = {"translations": 0, "blocks_run": 0}

    def counted(fn):
        def run(*args):
            counts["blocks_run"] += 1
            return fn(*args)
        return run

    def counting_predecode(vm, method):
        counts["translations"] += 1
        dm = translate(vm, method)
        for block in dm.block_list:
            block.fn = counted(block.fn)
        return dm

    monkeypatch.setattr(predecode, "predecode_method", counting_predecode)
    _, build = POLICY_WORKLOADS[1]
    vm = JVM(VMOptions(mode="rollback", trace=True, seed=7,
                       max_cycles=50_000_000, **options))
    build().install(vm)
    vm.run()
    counts["templates"] = len(templates)
    counts["decoded_methods"] = sum(
        "_decoded" in vars(m)
        for cls in vm.classes.values() for m in cls.methods.values()
    )
    return counts


def test_untranslated_side_never_translates(monkeypatch) -> None:
    """``interp="reference"`` and ``trace_memory`` (the lockset pass and
    DPOR exploration) must run every pc through the dispatch chain: no
    translation, no cached template, no ``MethodDef._decoded``.  The
    same workload translated must execute blocks, so the counters see
    translation when it happens."""
    opts = VMOptions(trace=True, trace_memory=True)
    assert opts.interp == "fast"
    assert opts.effective_interp == "reference"

    untranslated = {"translations": 0, "blocks_run": 0, "templates": 0,
                    "decoded_methods": 0}
    assert _counting_run(monkeypatch, interp="reference") == untranslated
    assert _counting_run(monkeypatch, trace_memory=True) == untranslated
    fast = _counting_run(monkeypatch, interp="fast")
    assert fast["translations"] > 0
    assert fast["templates"] > 0
    assert fast["decoded_methods"] > 0
    assert fast["blocks_run"] >= 1
