"""The process-wide translation-template cache (``repro.vm.predecode``).

Translation happens once per process: every VM whose method has the same
template key re-binds the cached compiled module instead of generating
and compiling it again.  The cache may only change speed, so these tests
pin what sharing must never break — reference parity for VMs that share
a template, no stale template after code mutation, per-VM inline-cache
cells, snapshot/restore and debugger seek fidelity, a bounded size, and
exact keys for operands Python compares loosely.
"""

from __future__ import annotations

import pytest

from repro.check.oracle import final_fingerprint, fingerprint_digest
from repro.errors import StarvationError
from repro.vm import predecode
from repro.vm.assembler import Asm
from repro.vm.clock import CostModel
from repro.vm.predecode import (
    TemplateCache,
    _operand_key,
    predecode_method,
    render_decoded,
)

from conftest import build_class, make_vm


@pytest.fixture
def templates(monkeypatch) -> TemplateCache:
    """A private, empty template cache for one test."""
    cache = TemplateCache(predecode.TEMPLATE_CACHE_CAPACITY)
    monkeypatch.setattr(predecode, "TEMPLATES", cache)
    return cache


def _hot_loop(count: int, *, const=1) -> Asm:
    a = Asm("run", argc=0)
    i = a.local()
    a.for_range(i, lambda: a.const(count), lambda: (
        a.getstatic("C", "value"), a.const(const), a.add(),
        a.putstatic("C", "value"),
    ))
    a.ret()
    return a


def _observe(vm, outcome: str) -> dict:
    return {
        "outcome": outcome,
        "clock_now": vm.clock.now,
        "clock_events": vm.clock.events,
        "fingerprint": fingerprint_digest(final_fingerprint(vm, outcome)),
        "metrics": vm.metrics(),
        "trace": vm.tracer.render(),
    }


def _run(asm_factory, interp: str, *, threads=1, mode="unmodified",
         **options) -> dict:
    vm = make_vm(mode, interp=interp, seed=7, **options)
    vm.load(build_class("C", ["lock:ref", "value"], [asm_factory()]))
    for k in range(threads):
        vm.spawn("C", "run", priority=5, name=f"t{k}")
    outcome = "ok"
    try:
        vm.run()
    except StarvationError:
        outcome = "starved"
    return _observe(vm, outcome)


def _assert_parity(asm_factory, **kw) -> dict:
    fast = _run(asm_factory, "fast", **kw)
    assert fast == _run(asm_factory, "reference", **kw)
    return fast


# ------------------------------------------------------------- sharing
class TestSharedTemplates:
    def test_quantum_and_cap_share_one_template(self, templates):
        """The quantum and cycle cap are namespace bindings, not
        literals: VMs differing only in them translate once, and each
        keeps parity — the quantum-preemption exit and the starvation
        exit inside the superblock included."""
        factory = lambda: _hot_loop(3_000)  # noqa: E731
        configs = [
            dict(threads=2, cost_model=CostModel(quantum=q), max_cycles=cap)
            for q in (500, 1_300, 8_000)
            for cap in (20_000, 70_000, 50_000_000)
        ]
        outcomes = set()
        for options in configs:
            fast = _assert_parity(factory, **options)
            outcomes.add(fast["outcome"])
            if fast["outcome"] == "ok":
                assert fast["metrics"]["context_switches"] >= 2
        assert outcomes == {"ok", "starved"}
        # one method, one (read_barriers, fuse_heap, bounded) flavour
        assert len(templates) == 1
        assert templates.misses == 1
        assert templates.hits == len(configs) - 1

    def test_hit_renders_like_the_miss(self, templates):
        def decode():
            vm = make_vm("rollback", interp="fast")
            vm.load(build_class("C", ["lock:ref", "value"], [_hot_loop(9)]))
            return predecode_method(vm, vm.classes["C"].method("run"))

        first, second = decode(), decode()
        assert (templates.misses, templates.hits) == (1, 1)
        assert first.superblock_list, "the loop must form a superblock"
        assert render_decoded(first) == render_decoded(second)
        assert first.superinstructions == second.superinstructions
        assert first.superinstructions is not second.superinstructions
        for a, b in zip(first.block_list, second.block_list):
            assert a is not b and a.fn is not b.fn
            assert a.source is b.source  # metadata shared, not copied

    def test_uncapped_vm_gets_its_own_template(self, templates):
        """Whether a cap exists changes the generated code (the
        starvation test is omitted without one), so it is keyed."""
        factory = lambda: _hot_loop(200)  # noqa: E731
        _assert_parity(factory, max_cycles=50_000_000)
        _assert_parity(factory, max_cycles=None)
        assert templates.misses == 2


# ----------------------------------------------------------- staleness
class TestNoStaleTemplate:
    def test_elision_after_predecode_translates_again(self, templates):
        """Predecode can run before barrier elision (Inspector dumps,
        direct calls); elision then changes barrier flags.  The template
        key is read from the code at predecode time, so the elided code
        gets its own template and the clock matches the reference — in
        the first VM and in a second one that hits both templates."""
        def program():
            run = Asm("run", argc=0)
            run.const(0).putstatic("C", "value")  # elided: no section
            run.getstatic("C", "lock")
            with run.sync():
                i = run.local()
                run.for_range(i, lambda: run.const(50), lambda: (
                    run.getstatic("C", "value"), run.const(1), run.add(),
                    run.putstatic("C", "value"),
                ))
            run.ret()
            return build_class("C", ["lock:ref", "value"], [run])

        def run_vm(interp, *, pre_decode):
            vm = make_vm("rollback", interp=interp, seed=7)
            vm.load(program())
            vm.set_static("C", "lock", vm.new_object("C"))
            vm.spawn("C", "run", priority=1, name="low")
            vm.spawn("C", "run", priority=10, name="high")
            if pre_decode:
                predecode_method(vm, vm.classes["C"].method("run"))
            vm.run()
            return _observe(vm, "ok")

        ref = run_vm("reference", pre_decode=False)
        assert run_vm("fast", pre_decode=True) == ref
        assert templates.misses == 2  # before and after elision
        assert run_vm("fast", pre_decode=True) == ref
        assert templates.misses == 2

    def test_in_place_mutation_then_invalidate(self, templates):
        """The stale-cache bug shape: mutate ``code`` after the first
        predecode, invalidate, run — the new code must execute."""
        a = Asm("run", argc=0)
        a.const(5).putstatic("C", "value")
        a.const(0).pop()
        a.ret()
        vm = make_vm(interp="fast")
        vm.load(build_class("C", ["lock:ref", "value"], [a]))
        method = vm.classes["C"].method("run")
        before = predecode_method(vm, method)
        method.code[0].a = 7
        method.invalidate_decoded()
        after = predecode_method(vm, method)
        assert after is not before
        assert templates.misses == 2
        assert "7" in render_decoded(after)
        vm.spawn("C", "run", name="main")
        vm.run()
        assert vm.get_static("C", "value") == 7

    def test_loosely_equal_constants_do_not_collide(self, templates):
        """``3 == 3.0`` and ``1 == True`` in Python; their generated code
        differs (int vs float division, ``1`` vs ``True`` stored), so
        each must translate itself."""
        for value in (1, True, 3, 3.0, 3):
            _assert_parity(lambda: _div_by_two(value))
        assert templates.misses == 4

    def test_operand_key_is_type_exact(self):
        keys = [_operand_key(v) for v in (1, 1.0, True, 0.0, -0.0,
                                           (1,), (1.0,), "1", None)]
        assert len(set(keys)) == len(keys)


def _div_by_two(value) -> Asm:
    """Store ``value`` itself and ``value / 2``."""
    a = Asm("run", argc=0)
    a.const(value).dup().putstatic("C", "lock")
    a.const(2).div().putstatic("C", "value")
    a.ret()
    return a


# ------------------------------------------------------ per-VM cells
def _allocating_method() -> Asm:
    """A fused block holding a NEW (class-def cell), a CLASSREF
    (class-object cell) and a static access (static-def cell)."""
    a = Asm("run", argc=0)
    a.new("C").putstatic("C", "lock")
    a.classref("C").pop()
    a.getstatic("C", "value").const(1).add().putstatic("C", "value")
    a.ret()
    return a


class TestPerVmCells:
    def test_cells_never_shared_across_interleaved_vms(self, templates):
        vms = []
        for _ in range(2):
            vm = make_vm("rollback", interp="fast")
            vm.load(build_class("C", ["lock:ref", "value"],
                                [_allocating_method()]))
            vm.spawn("C", "run", name="main")
            vm.begin_run()
            vms.append(vm)
        decoded = [
            predecode_method(vm, vm.classes["C"].method("run")) for vm in vms
        ]
        assert (templates.misses, templates.hits) == (1, 1)
        g0, g1 = (dm.block_list[0].fn.__globals__ for dm in decoded)
        assert g0["C"] is not g1["C"]
        assert g0["K"] is g1["K"]  # the read-only pool may be shared
        # interleave the two VMs step by step
        live = list(vms)
        while live:
            for vm in list(live):
                if not vm.scheduler.step():
                    live.remove(vm)
        for vm in vms:
            lock = vm.get_static("C", "lock")
            assert lock.classdef is vm.classes["C"]
            assert vm.get_static("C", "value") == 1


# ------------------------------------------- snapshots and debugging
class TestWarmCacheFidelity:
    def test_snapshot_restore_with_warm_cache(self, templates):
        from repro.check.dpor import SteppingRun
        from repro.check.scenarios import get_scenario

        schedule = (0, 1, 0, 1, 1, 0, 1, 0, 0)

        def stepping():
            return SteppingRun(get_scenario("mini-handoff"), "rollback",
                               interp="fast", trace_memory=False)

        def observe(run, outcome):
            return dict(_observe(run.vm, outcome),
                        schedule=tuple(run.schedule))

        baseline = stepping()
        expected = observe(baseline, baseline.drive(schedule))
        misses = templates.misses
        for stop in range(1, 6):
            run = stepping()
            for tid in schedule[:stop]:
                kind, tids = run.advance()
                assert kind == "decision"
                run.choose(tid if tid in tids else run.default_choice(tids))
            assert run.advance()[0] == "decision"
            resumed = SteppingRun.resume(run.checkpoint())
            assert observe(resumed, resumed.drive(schedule)) == expected
        assert templates.misses == misses, "restores must only re-bind"
        assert templates.hits > 0

    def test_debugger_seek_with_warm_cache(self, templates):
        from repro.obs.capture import ObsSpec, build_capture_vm
        from repro.obs.debug import DebugSession, record

        spec = ObsSpec(scenario="medium-inversion")
        straight, _, _ = build_capture_vm(spec)
        straight.begin_run()
        while straight.scheduler.step():
            pass
        misses = templates.misses
        rec = record(spec, interval=4)
        session = DebugSession(rec)
        session.seek(rec.clock // 2)
        while session._step_once():
            pass
        vm = session.vm
        assert templates.misses == misses
        assert vm.clock.now == straight.clock.now
        assert vm.metrics() == straight.metrics()
        assert vm.tracer.render() == straight.tracer.render()


# ------------------------------------------------------------- bounds
class TestBounds:
    def test_size_constant_across_storm_seed_indices(self, templates):
        from repro.server.plane import ServerSpec, run_server_cell

        sizes = []
        for index in range(1, 9):
            run_server_cell(ServerSpec("storm", seed_index=index,
                                       mode="rollback", chaos=True))
            sizes.append((len(templates), templates.misses))
        assert sizes[0][0] > 0
        assert len(set(sizes)) == 1, sizes

    def test_lru_eviction_past_capacity(self, monkeypatch):
        cache = TemplateCache(2)
        monkeypatch.setattr(predecode, "TEMPLATES", cache)
        loops = {name: (lambda n=n: _hot_loop(n)) for name, n in
                 (("a", 11), ("b", 12), ("c", 13))}
        _assert_parity(loops["a"])
        _assert_parity(loops["b"])
        _assert_parity(loops["a"])          # touch a: b is now oldest
        _assert_parity(loops["c"])          # evicts b
        assert len(cache) == 2 and cache.misses == 3
        _assert_parity(loops["a"])          # still cached
        assert cache.misses == 3
        _assert_parity(loops["b"])          # evicted: translated again
        assert len(cache) == 2 and cache.misses == 4


# ------------------------------------------------------ unhashables
def test_unhashable_operand_is_translated_privately(templates):
    """An operand the key cannot represent exactly (here a list) is never
    cached — the method is translated for its VM alone, and runs like
    the reference."""
    marker = [1, 2]

    def factory():
        a = Asm("run", argc=0)
        a.const(marker).putstatic("C", "lock")
        a.const(1).putstatic("C", "value")
        a.ret()
        return a

    fast = _assert_parity(factory)
    assert fast["outcome"] == "ok"
    assert len(templates) == 0 and templates.misses == 0
    with pytest.raises(predecode._Uncacheable):
        _operand_key([1])
    with pytest.raises(predecode._Uncacheable):
        _operand_key((1, {2}))
