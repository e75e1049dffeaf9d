"""Small guest programs for schedule exploration.

Exploration cost is exponential in program length, so these scenarios are
deliberately tiny: a handful of threads, two or three yield points per
critical section.  What matters is that each one embodies a distinct
synchronization shape:

* ``handoff`` — the paper's core scenario: a low-priority and a
  high-priority thread contend on one lock around a shared counter.
  Preemptive schedules make the high thread arrive mid-section, which
  (on the rollback VM) triggers inversion detection and revocation; the
  counter's final value must nevertheless equal the fixed total under
  *every* policy — the serializability claim in miniature (§3).
* ``barge`` — three priorities on one lock: exercises the prioritized
  entry queue and multi-candidate scheduling decisions.
* ``racy-yield`` — increments with *no* lock and an explicit yield
  between read and write: the classic lost-update race.  Final states
  legitimately differ across schedules (but never across policies for
  one schedule); the lockset pass must flag the race.
* ``lock-order`` — two locks acquired in opposite orders by two threads:
  feeds the lock-order-inversion detector; some schedules deadlock under
  blocking policies while revocation resolves them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.bench.workloads import Workload
from repro.vm.assembler import Asm
from repro.vm.classfile import ClassDef, FieldDef

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.vmcore import JVM


@dataclass(frozen=True)
class CheckScenario:
    """One explorable guest program plus its oracle expectations."""

    name: str
    description: str
    build: Callable[[], Workload]
    #: VMOptions overrides applied identically in every policy mode
    options: dict = field(default_factory=dict)
    #: expected final static values ``(class, field) -> value`` asserted on
    #: the reference run of every schedule (None = schedule-dependent)
    expected_statics: Optional[dict] = None


def _counter_increments(run: Asm, cls: str, i: int, iters_arg: int,
                        *, yield_between: bool) -> None:
    """Emit ``for (i = 0; i < iters; i++) counter++`` with an optional
    explicit yield between the read and the write of the counter."""
    def increment() -> None:
        run.getstatic(cls, "counter")
        if yield_between:
            run.yield_()
        run.const(1).add()
        run.putstatic(cls, "counter")

    run.for_range(i, lambda: run.load(iters_arg), increment)


def build_locked_counter(
    cls_name: str,
    spawns: list[tuple[int, str]],
    *,
    sections: int = 2,
    iters: int = 2,
) -> Workload:
    """``spawns`` threads each run ``sections`` synchronized sections on one
    shared lock, incrementing a static counter ``iters`` times per section.
    Final counter = ``len(spawns) * sections * iters`` in any legal
    serialization."""
    cls = ClassDef(
        cls_name,
        fields=[
            FieldDef("lock", "ref", is_static=True),
            FieldDef("counter", "int", is_static=True),
        ],
    )
    run = Asm("run", argc=1)
    iters_arg = run.arg(0)
    s = run.local("s")
    i = run.local("i")

    def section_body() -> None:
        run.getstatic(cls_name, "lock")
        with run.sync():
            _counter_increments(run, cls_name, i, iters_arg,
                                yield_between=False)

    run.for_range(s, lambda: run.const(sections), section_body)
    run.ret()
    cls.add_method(run.build())

    def setup(vm: "JVM") -> None:
        vm.set_static(cls_name, "lock", vm.new_object(cls_name))

    return Workload(
        name=cls_name.lower(),
        classdef=cls,
        setup=setup,
        spawns=[
            ("run", [iters], priority, name) for priority, name in spawns
        ],
    )


def build_paired_handoffs(
    cls_name: str,
    pairs: int,
    *,
    sections: int = 1,
    iters: int = 1,
) -> Workload:
    """``pairs`` low/high priority thread pairs, each contending on its
    *own* lock around its own counter slot.  Pairs are mutually
    independent, so the schedule space is the product of the per-pair
    spaces — exhaustive enumeration explodes combinatorially while a
    partial-order-reducing strategy collapses the cross-pair orderings.
    Every counter slot ends at ``sections * iters`` in any legal
    serialization."""
    cls = ClassDef(
        cls_name,
        fields=[
            FieldDef("locks", "ref", is_static=True),
            FieldDef("counters", "ref", is_static=True),
        ],
    )
    run = Asm("run", argc=2)
    pair = run.arg(0)
    iters_arg = run.arg(1)
    s = run.local("s")
    i = run.local("i")

    def increment() -> None:
        # counters[pair] = counters[pair] + 1
        run.getstatic(cls_name, "counters").load(pair)
        run.getstatic(cls_name, "counters").load(pair).aload()
        run.const(1).add()
        run.astore()

    def section_body() -> None:
        run.getstatic(cls_name, "locks").load(pair).aload()
        with run.sync():
            run.for_range(i, lambda: run.load(iters_arg), increment)

    run.for_range(s, lambda: run.const(sections), section_body)
    run.ret()
    cls.add_method(run.build())

    def setup(vm: "JVM") -> None:
        locks = vm.new_array(pairs)
        counters = vm.new_array(pairs)
        for k in range(pairs):
            locks.put(k, vm.new_object(cls_name))
            counters.put(k, 0)
        vm.set_static(cls_name, "locks", locks)
        vm.set_static(cls_name, "counters", counters)

    spawns = []
    for k in range(pairs):
        spawns.append(("run", [k, iters], 1, f"low{k}"))
        spawns.append(("run", [k, iters], 10, f"high{k}"))
    return Workload(
        name=cls_name.lower(), classdef=cls, setup=setup, spawns=spawns
    )


def build_racy_counter(*, iters: int = 3) -> Workload:
    """Two threads increment an unprotected counter with a yield between
    the read and the write: lost updates under preemptive schedules."""
    cls = ClassDef(
        "Racy", fields=[FieldDef("counter", "int", is_static=True)]
    )
    run = Asm("run", argc=1)
    iters_arg = run.arg(0)
    i = run.local("i")
    _counter_increments(run, "Racy", i, iters_arg, yield_between=True)
    run.ret()
    cls.add_method(run.build())
    return Workload(
        name="racy",
        classdef=cls,
        setup=lambda vm: None,
        spawns=[("run", [iters], 5, "t1"), ("run", [iters], 5, "t2")],
    )


def build_lock_order(*, iters: int = 2) -> Workload:
    """Two threads nest two locks in opposite orders (deadlock-prone)."""
    cls = ClassDef(
        "LockOrder",
        fields=[
            FieldDef("locks", "ref", is_static=True),
            FieldDef("counter", "int", is_static=True),
        ],
    )
    run = Asm("run", argc=2)
    first, second = run.arg(0), run.arg(1)
    i = run.local("i")
    iters_local = run.local("n")
    run.const(iters).store(iters_local)
    run.getstatic("LockOrder", "locks").load(first).aload()
    with run.sync():
        run.getstatic("LockOrder", "locks").load(second).aload()
        with run.sync():
            _counter_increments(run, "LockOrder", i, iters_local,
                                yield_between=False)
    run.ret()
    cls.add_method(run.build())

    def setup(vm: "JVM") -> None:
        locks = vm.new_array(2)
        locks.put(0, vm.new_object("LockOrder"))
        locks.put(1, vm.new_object("LockOrder"))
        vm.set_static("LockOrder", "locks", locks)

    return Workload(
        name="lock-order",
        classdef=cls,
        setup=setup,
        spawns=[("run", [0, 1], 5, "t1"), ("run", [1, 0], 5, "t2")],
    )


def _scenario_list() -> list[CheckScenario]:
    return [
        CheckScenario(
            name="handoff",
            description="low/high contention on one lock; revocation "
                        "hand-off must preserve the counter total",
            build=lambda: build_locked_counter(
                "Handoff", [(1, "low"), (10, "high")],
                sections=2, iters=2,
            ),
            expected_statics={("Handoff", "counter"): 2 * 2 * 2},
        ),
        CheckScenario(
            name="barge",
            description="three priorities barging on one lock",
            build=lambda: build_locked_counter(
                "Barge", [(2, "t-lo"), (5, "t-mid"), (9, "t-hi")],
                sections=1, iters=2,
            ),
            expected_statics={("Barge", "counter"): 3 * 1 * 2},
        ),
        CheckScenario(
            name="mini-handoff",
            description="handoff shrunk to one section and one increment "
                        "per thread: small enough for full (unbounded) "
                        "exhaustive enumeration — the DPOR soundness "
                        "battery's anchor",
            build=lambda: build_locked_counter(
                "MiniHandoff", [(1, "low"), (10, "high")],
                sections=1, iters=1,
            ),
            expected_statics={("MiniHandoff", "counter"): 2 * 1 * 1},
        ),
        CheckScenario(
            name="mini-barge",
            description="barge shrunk to one increment per section: "
                        "three priorities, one lock, small enough for "
                        "full exhaustive enumeration",
            build=lambda: build_locked_counter(
                "MiniBarge", [(2, "t-lo"), (5, "t-mid"), (9, "t-hi")],
                sections=1, iters=1,
            ),
            expected_statics={("MiniBarge", "counter"): 3 * 1 * 1},
        ),
        CheckScenario(
            name="mini-racy",
            description="one unprotected read-yield-write increment per "
                        "thread: the smallest scenario with genuinely "
                        "schedule-dependent final states",
            build=lambda: build_racy_counter(iters=1),
            expected_statics=None,
        ),
        CheckScenario(
            name="pileup4",
            description="four priorities piling onto one lock: the DPOR "
                        "battery's largest fully-enumerable member",
            build=lambda: build_locked_counter(
                "Pileup4",
                [(1, "t1"), (4, "t2"), (7, "t3"), (10, "t4")],
                sections=1, iters=1,
            ),
            expected_statics={("Pileup4", "counter"): 4 * 1 * 1},
        ),
        CheckScenario(
            name="handoff-trio",
            description="three independent low/high handoff pairs on "
                        "three locks (6 threads, monitors + revocation): "
                        "the DPOR acceptance scenario — the product "
                        "schedule space is far beyond exhaustive "
                        "enumeration, but cross-pair slices commute",
            build=lambda: build_paired_handoffs(
                "HandoffTrio", 3, sections=1, iters=1,
            ),
            expected_statics=None,
        ),
        CheckScenario(
            name="pileup6",
            description="six priorities piling onto one lock with "
                        "revocation in play: the DPOR acceptance "
                        "scenario — exhaustive enumeration is infeasible",
            build=lambda: build_locked_counter(
                "Pileup6",
                [(1, "t1"), (2, "t2"), (4, "t3"),
                 (6, "t4"), (8, "t5"), (10, "t6")],
                sections=1, iters=1,
            ),
            expected_statics={("Pileup6", "counter"): 6 * 1 * 1},
        ),
        CheckScenario(
            name="racy-yield",
            description="unprotected read-yield-write increments: lost "
                        "updates across schedules, a data race for the "
                        "lockset pass",
            build=lambda: build_racy_counter(iters=3),
            expected_statics=None,
        ),
        CheckScenario(
            name="lock-order",
            description="opposite-order nested locks: lock-order "
                        "inversion, deadlock-prone under blocking "
                        "policies",
            build=lambda: build_lock_order(iters=2),
            expected_statics=None,
        ),
    ]


def scenarios() -> dict[str, CheckScenario]:
    """The scenario registry (rebuilt on demand; source-identical in every
    worker process, like the campaign's)."""
    return {s.name: s for s in _scenario_list()}


#: scenario name -> its built Workload (see :func:`scenario_workload`)
_BUILT: dict[str, Workload] = {}


def scenario_workload(scenario: CheckScenario) -> Workload:
    """``scenario``'s guest program, built once per process.

    A check run loads the same program into thousands of fresh VMs.
    ``JVM.load`` copies the ClassDef before transforming and linking it,
    and ``JVM.spawn`` copies the argument lists, so one built Workload
    serves every VM.  The cache is keyed by scenario name, the identity
    check cells are cached under too (:func:`repro.check.explorer.
    check_cell_key`)."""
    workload = _BUILT.get(scenario.name)
    if workload is None:
        workload = _BUILT[scenario.name] = scenario.build()
    return workload


def get_scenario(name: str) -> CheckScenario:
    try:
        return scenarios()[name]
    except KeyError:
        raise ValueError(
            f"unknown check scenario {name!r}; "
            f"known: {', '.join(sorted(scenarios()))}"
        ) from None
