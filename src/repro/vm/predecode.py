"""Predecode: translate linked bytecode into fused basic blocks.

The dispatch loop (:meth:`repro.vm.interpreter.Interpreter._execute`)
spends almost all of its host time decoding guest instructions one at a
time through a long ``if/elif`` chain.  This module removes that cost
for straight-line code, as the block-table source of ``interp="fast"``:
at first execution of a method it discovers *fusable runs* — maximal
sequences of opcodes that can never flush the virtual clock, park the
thread, or emit a trace event — and compiles each run into one Python
function (a basic-block superinstruction).

One lowering generates every unit.  :class:`_Lowering` turns a region's
forward control flow into nested ``if`` arms over the symbolic-stack
:class:`_Emitter` (the one place each fusable opcode is translated).  A
basic block ``[start, end)`` is that lowering followed by an exit to
``end``; a superblock (:mod:`repro.vm.tracecomp`) is the same lowering
of a loop body inside an iteration loop, commit and guard wrapper.

The entire method — every basic block plus the superblocks over its
loops — is generated as one Python module source and compiled in a
single ``compile`` pass (*method-level translation*).

Translation happens once per process, not once per VM.  The compiled
module is a *translation template*: a pure function of the method's
qualified name, its instructions ``(op, a, b, cost, ypoint, barrier)``,
its exception-handler pcs and three VM facts (read barriers on, heap
ops fusable, a cycle cap set).  Nothing VM-specific is baked into it —
the heap, the runtime support, the clock, the quantum ``QU`` and the
cycle cap ``MAXC`` are *names* the generated code looks up in its
namespace.  :data:`TEMPLATES` keeps the most recently used templates
under that content key (an LRU of :data:`TEMPLATE_CACHE_CAPACITY`
entries); :func:`predecode_method` turns one into a
:class:`DecodedMethod` for one VM by ``exec``-ing the cached code object
in a fresh per-VM namespace (its own inline-cache cells ``C``) and
binding new :class:`BasicBlock`/:class:`~repro.vm.tracecomp.SuperBlock`
objects to the functions it defines.

Invalidation is unchanged by the cache.  The per-VM result still lives
on the per-VM :class:`MethodDef` copy, and
``MethodDef.invalidate_decoded`` drops blocks, superblocks and cache
cells as one unit, so no stale closure can outlive a mutation of
``method.code``.  A template cannot go stale either: the key is read
from the code at predecode time, so mutated code (barrier elision, a
transform) has a different key and gets its own template.  Operands
are keyed by type and value (``1``, ``1.0`` and ``True`` generate
different code); a method with an operand the key cannot represent
exactly is translated privately and never cached.

Semantics preservation is the hard requirement: the same loop run with
an empty block table (``interp="reference"``: every instruction through
the dispatch chain) is the oracle, and the parity suite
(``tests/test_interp_parity.py``) asserts byte-identical virtual
clocks, trace streams, schedules and checker fingerprints.  The design
invariants that make this safe:

* Blocks contain only ops from :data:`repro.vm.bytecode.FUSABLE_OPS` and
  never include a yield point.  Every clock flush, preemption check,
  revocation delivery, fault-injection probe and trace event therefore
  happens at exactly the pcs the reference uses.
* One cycle hand-back protocol, exact rather than approximate: static
  costs are charged lazily into the generated ``acc``/``ic`` locals —
  before each op that can raise (that op's own cost included, as the
  reference charges before executing), at control-flow splits and at
  exits — and dynamic (barrier) cycles accrue into ``acc`` as the
  reference's ``acc += support.before_store(...)`` lines do.  Every op
  that can raise a :class:`~repro.errors.GuestRuntimeError` first
  stores its pc into ``F[0]``.  On every exit and every guest
  exception a unit hands back its unflushed ``(cycles, instructions)``
  in ``A[0]``/``A[1]``, which the dispatch loop adds to its own
  accumulators.  The operand stack needs no repair because JVM
  exception dispatch clears it (handlers in the same frame) or
  discards the frame.
* Heap ops go through the *same* seams as the reference — ``require_ref``,
  ``VMObject.get/put``, ``Heap.get_static/put_static``,
  ``support.after_load/before_store`` — with per-site monomorphic inline
  cache cells replacing the reference's ``ins.c`` caches.
* Runs of consecutive barrier stores with no intervening raising op or
  read barrier are appended through one
  ``support.before_store_batch`` call (*batched write barriers*); the
  heap mutations themselves stay in place, only the logging/costing calls
  coalesce, and the batch is flushed before every point at which its
  effects could be observed (fault sites, read barriers, exits).

Superinstruction patterns recognised during code generation:

* ``cmp+branch``: a comparison feeding a forward branch compiles to one
  ``if`` on the comparison with no intermediate 0/1 materialisation;
* ``const+div``/``const+mod``: division by a non-zero integer constant
  skips the zero-divisor test;
* ``alu+store``: a STORE whose value was computed in-block writes the
  local directly without touching the operand stack.

Predecoding is lazy (first execution of each method, after class loading,
transformation and barrier elision have settled) and cached on the
:class:`~repro.vm.classfile.MethodDef`, which is per-VM because
``JVM.load`` always copies class definitions; snapshots drop that
per-VM result, and the restored VM re-binds the cached template.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from repro.errors import GuestRuntimeError, StarvationError
from repro.vm import bytecode as bc
from repro.vm.classfile import MethodDef
from repro.vm.heap import require_ref
from repro.vm.interpreter import (
    Interpreter, _div_values, _fdiv, _fmod, _idiv, _imod, _mod_values,
)


# --------------------------------------------------------------- helpers
# Runtime helpers referenced from generated code (short upper-case names
# keep the generated source readable in dumps and tracebacks).  DIV/MOD
# with an unknown divisor use the dispatch chain's own _div_values /
# _mod_values; the constant-divisor variants below skip its zero test.

def _mod_const(a, b):
    """MOD by a known non-zero int constant: no zero test needed."""
    if isinstance(a, int):
        return _imod(a, b)
    return _fmod(a, b)


def _div_const(a, b):
    """DIV by a known non-zero int constant: no zero test needed."""
    if isinstance(a, int):
        return _idiv(a, b)
    return _fdiv(a, b)


def _mod_pos_const(a, k):
    """MOD by a known *positive* int constant, without the _idiv round trip.

    Java remainder takes the dividend's sign; Python ``%`` takes the
    divisor's, so correct the non-zero negative-dividend case.  Equivalent
    to ``_imod(a, k)`` for every int ``a`` when ``k > 0``.
    """
    if isinstance(a, int):
        r = a % k
        return r - k if r and a < 0 else r
    return _fmod(a, k)


def _div_pos_const(a, k):
    """DIV by a known positive int constant (truncation toward zero)."""
    if isinstance(a, int):
        return a // k if a >= 0 else -((-a) // k)
    return _fdiv(a, k)


_CMP_EXPR = {
    bc.LT: "<", bc.LE: "<=", bc.GT: ">", bc.GE: ">=",
}
_BIN_EXPR = {
    bc.ADD: "+", bc.SUB: "-", bc.MUL: "*", bc.AND: "&", bc.OR: "|",
    bc.XOR: "^", bc.SHL: "<<", bc.SHR: ">>",
}

#: Single-instruction runs of these ops are cheaper through the dispatch
#: chain than through a function call; only fuse them in company.
_SINGLETON_SKIP = bc.FUSABLE_PURE | bc.FUSABLE_BRANCH

_NOVAL = object()


class _Sym:
    """One symbolic operand-stack entry sitting above the real stack.

    ``expr`` is always a *pure, repeatable* Python expression (a literal,
    a constant-pool ref, a generated temp, or a ``locals_[i]`` read);
    ``deps`` lists the local slots the expression reads so STORE/IINC can
    materialise it first; ``val`` carries the Python value for literal
    constants (enables the const-divisor superinstruction).
    """

    __slots__ = ("expr", "deps", "val")

    def __init__(self, expr: str, deps: tuple = (), val: Any = _NOVAL):
        self.expr = expr
        self.deps = deps
        self.val = val


class BasicBlock:
    """A compiled fusable run ``[start, end)`` of one method's code."""

    __slots__ = ("start", "end", "count", "fn", "source")

    def __init__(self, start: int, end: int, fn, source: str):
        self.start = start
        self.end = end
        #: number of guest instructions in the run
        self.count = end - start
        #: ``fn(stack, locals_, F, A, T) -> next pc`` (bound by the
        #: method-level compile after all sources are collected)
        self.fn = fn
        #: generated Python source (debugging / ``Inspector`` dumps)
        self.source = source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock [{self.start},{self.end})>"


class DecodedMethod:
    """Predecode result for one :class:`MethodDef`.

    ``blocks`` is indexed by pc: ``blocks[pc]`` is the :class:`BasicBlock`
    starting at ``pc`` or ``None`` when that pc executes through the
    interpreter's dispatch chain.  ``superblocks`` is likewise indexed by
    pc: ``superblocks[pc]`` is the :class:`~repro.vm.tracecomp.SuperBlock`
    anchored at the backward-GOTO yield point ``pc``, or ``None``.
    Missing blocks/superblocks are always safe — every pc without one
    runs through the dispatch chain, so predecode coverage affects speed
    only, never behaviour.
    """

    __slots__ = ("method", "blocks", "block_list", "superinstructions",
                 "fused_instructions", "superblocks", "superblock_list")

    def __init__(self, method: MethodDef, blocks: list,
                 superinstructions: dict, superblocks: Optional[list] = None):
        self.method = method
        self.blocks = blocks
        self.block_list = [b for b in blocks if b is not None]
        #: pattern name -> number of fusions applied
        self.superinstructions = superinstructions
        self.fused_instructions = sum(b.count for b in self.block_list)
        if superblocks is None:
            superblocks = [None] * len(blocks)
        self.superblocks = superblocks
        self.superblock_list = [s for s in superblocks if s is not None]


#: Most translation templates :data:`TEMPLATES` keeps.  A template (code
#: object plus generated sources) takes 10-90 KB; one figure, checker or
#: server run uses at most six, so this bounds memory well above any
#: workload's working set.
TEMPLATE_CACHE_CAPACITY = 64


class _Template:
    """One method's translation, free of any VM: what every
    :func:`predecode_method` call with the same key re-binds."""

    __slots__ = ("code", "consts", "ncells", "stats", "blocks", "supers")

    def __init__(self, code, consts: tuple, ncells: int, stats: dict,
                 blocks: tuple, supers: tuple):
        #: compiled module code object (None: nothing to fuse)
        self.code = code
        #: constant-pool values, read-only ``K`` of the generated code
        self.consts = consts
        #: inline-cache cell count (each VM gets its own ``C``)
        self.ncells = ncells
        #: superinstruction pattern counts
        self.stats = stats
        #: :class:`BasicBlock` ``(start, end, source)`` triples
        self.blocks = blocks
        #: :class:`~repro.vm.tracecomp.SuperBlock` ``(anchor, head,
        #: source)`` triples
        self.supers = supers


class TemplateCache:
    """Process-wide LRU of translation templates by content key."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key) -> Optional[_Template]:
        template = self._entries.get(key)
        if template is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        return template

    def put(self, key, template: _Template) -> None:
        self.misses += 1
        self._entries[key] = template
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


#: the process's translation templates (see the module docstring)
TEMPLATES = TemplateCache(TEMPLATE_CACHE_CAPACITY)


class _Uncacheable(Exception):
    """An operand the template key cannot represent exactly."""


def _operand_key(value: Any) -> Any:
    """Hashable stand-in for an instruction operand, equal only for
    operands that generate identical code and constant-pool values.

    Python equates ``1 == 1.0 == True`` and ``0.0 == -0.0``, so values
    are tagged with their type and floats keyed by their exact hex
    form.  Anything else (lists, other objects, subclasses) raises
    :class:`_Uncacheable` rather than risk a wrong hit."""
    t = type(value)
    if t is int or t is str or value is None:
        return value
    if t is bool:
        return (bool, value)
    if t is float:
        return (float, value.hex())
    if t is tuple:
        return (tuple, tuple(_operand_key(v) for v in value))
    raise _Uncacheable(t.__name__)


def _template_key(method: MethodDef, read_barriers: bool, fuse_heap: bool,
                 bounded: bool) -> tuple:
    """Content key of ``method``'s translation: everything code
    generation reads.  Raises :class:`_Uncacheable` (see
    :func:`_operand_key`)."""
    key = _operand_key
    return (
        method.qualified_name(),
        tuple(
            (ins.op, key(ins.a), key(ins.b), ins.cost, ins.ypoint,
             ins.barrier)
            for ins in method.code
        ),
        tuple(entry.handler for entry in method.exc_table),
        read_barriers,
        fuse_heap,
        bounded,
    )


def predecode_method(vm, method: MethodDef) -> DecodedMethod:
    """Predecode ``method`` for ``vm``; cached on the MethodDef.

    Must run only after the method is linked into ``vm`` (costs and yield
    points assigned, transformer and barrier elision done) — the
    interpreter calls it lazily at first execution, which satisfies that.
    Translation itself is shared: a method whose template key (see
    :func:`_template_key`) was translated before in this process only
    re-binds the cached template to ``vm``.
    """
    cached = method.__dict__.get("_decoded")
    if cached is not None:
        return cached
    options = vm.options
    read_barriers = options.modified
    # trace_memory needs per-access events; the option normally forces
    # the untranslated table, but stay safe if reached regardless.
    fuse_heap = not (options.trace and options.trace_memory)
    bounded = bool(options.max_cycles)
    try:
        key = _template_key(method, read_barriers, fuse_heap, bounded)
    except _Uncacheable:
        key = None
    template = TEMPLATES.get(key) if key is not None else None
    if template is None:
        template = _Predecoder(
            method, read_barriers, fuse_heap, bounded
        ).build()
        if key is not None:
            TEMPLATES.put(key, template)
    dm = _bind(template, vm, method)
    method._decoded = dm
    return dm


def _namespace(vm, consts: tuple, ncells: int) -> dict:
    """Globals of one VM's instance of a template."""
    heap = vm.heap
    support = vm.support

    def _newarray(length, fill):
        if not isinstance(length, int) or length < 0:
            raise GuestRuntimeError(
                f"negative array size {length}",
                guest_class="NegativeArraySizeException",
            )
        return heap.allocate_array(length, fill)

    ns = dict(_HELPERS)
    ns.update(
        K=consts,
        C=[None] * ncells,
        GS=heap.get_static,
        PS=heap.put_static,
        SD=heap.static_def,
        ALLOC=heap.allocate,
        NEWA=_newarray,
        CLSO=heap.class_object,
        CDEF=vm.classdef,
        AL=support.after_load,
        BS=support.before_store,
        BSB=support.before_store_batch,
        CLK=vm.clock,
        QU=vm.options.cost_model.quantum,
        MAXC=vm.options.max_cycles,
    )
    return ns


#: VM-independent globals of every template instance
_HELPERS = {
    "__builtins__": {},
    "len": len,
    "RR": require_ref,
    "GEQ": Interpreter._guest_eq,
    "MODV": _mod_values,
    "DIVV": _div_values,
    "MODC": _mod_const,
    "DIVC": _div_const,
    "MODP": _mod_pos_const,
    "DIVP": _div_pos_const,
    "SERR": StarvationError,
    "GRE": GuestRuntimeError,
}


def _bind(template: _Template, vm, method: MethodDef) -> DecodedMethod:
    """Instantiate ``template`` for ``vm``: run its module code in a
    fresh namespace and bind new block objects to the functions (popped
    from the namespace, so they hold no reference cycle through it)."""
    from repro.vm.tracecomp import SuperBlock

    n = len(method.code)
    blocks: list[Optional[BasicBlock]] = [None] * n
    superblocks: list = [None] * n
    if template.code is not None:
        ns = _namespace(vm, template.consts, template.ncells)
        exec(template.code, ns)
        for start, end, source in template.blocks:
            blocks[start] = BasicBlock(
                start, end, ns.pop(f"_b{start}"), source
            )
        for anchor, head, source in template.supers:
            superblocks[anchor] = SuperBlock(
                anchor, head, ns.pop(f"_s{anchor}"), source
            )
    return DecodedMethod(method, blocks, dict(template.stats), superblocks)


# ------------------------------------------------------------ discovery
def find_leaders(method: MethodDef) -> set[int]:
    """Pcs where control can (re-)enter a method mid-body.

    Blocks must start at (or after) a leader and never span one: branch
    targets, exception/rollback handlers, rollback resume points, and the
    fall-through successor of every chain-executed instruction (the chain
    leaves ``frame.pc`` there on preemption, monitor re-entry, wait
    wake-up, invoke return, ...).
    """
    code = method.code
    leaders = {0}
    for pc, ins in enumerate(code):
        op = ins.op
        if bc.is_branch(op) and isinstance(ins.a, int):
            leaders.add(ins.a)
        if op == bc.ROLLBACK_HANDLER and isinstance(ins.b, int):
            leaders.add(ins.b)
        if op not in bc.FUSABLE_OPS or ins.ypoint:
            leaders.add(pc + 1)
    for entry in method.exc_table:
        leaders.add(entry.handler)
    return leaders


def find_runs(method: MethodDef, leaders: set[int],
              fuse_heap: bool = True) -> list[tuple[int, int]]:
    """Maximal fusable runs ``[start, end)``; branches only as terminators."""
    code = method.code
    n = len(code)
    runs = []
    pc = 0
    while pc < n:
        if not _fusable(code[pc], fuse_heap):
            pc += 1
            continue
        start = pc
        end = pc
        while end < n:
            ins = code[end]
            if end > start and end in leaders:
                break
            if not _fusable(ins, fuse_heap):
                break
            end += 1
            if ins.op in bc.FUSABLE_BRANCH:
                break  # branches terminate the run
        if end - start == 1 and code[start].op in _SINGLETON_SKIP:
            pc = end
            continue  # cheaper through the dispatch chain
        runs.append((start, end))
        pc = end
    return runs


def _fusable(ins, fuse_heap: bool) -> bool:
    op = ins.op
    if op not in bc.FUSABLE_OPS or ins.ypoint:
        return False
    if op in bc.FUSABLE_HEAP and not fuse_heap:
        return False
    if op in bc.FUSABLE_BRANCH and not isinstance(ins.a, int):
        return False  # unresolved label (never post-build, but be safe)
    return True


# -------------------------------------------------------------- code gen
class _Emitter:
    """Symbolic-stack code generator behind every generated unit, basic
    block and superblock alike (driven by :class:`_Lowering`).

    Static costs are charged lazily: accumulated at codegen time into
    ``pending_cost``/``pending_count`` and flushed into the generated
    ``acc``/``ic`` locals before any op that can raise (including that
    op's own cost, mirroring the reference's charge-before-execute
    order), at control-flow splits and at exits.  ``acc``/``ic``
    therefore hold exactly the reference interpreter's unflushed
    accumulators at every point control or a guest exception can leave
    the unit, with no repair table needed.  Dynamic (barrier) cycles
    accrue into ``acc`` directly.

    Consecutive barrier stores batch into one deferred
    ``before_store_batch`` call, flushed before any observation point.
    """

    def __init__(self, owner: "_Predecoder"):
        self.owner = owner
        self.lines: list[str] = []
        self.sym: list[_Sym] = []
        self.indent = 1
        self.tmp = 0
        self.pending_cost = 0
        self.pending_count = 0
        #: deferred (container, slot, old_value, volatile) expression
        #: 4-tuples for the batched write-barrier call
        self.batch: list[tuple[str, str, str, str]] = []

    # ------------------------------------------------------------ plumbing
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def newtmp(self) -> str:
        name = f"t{self.tmp}"
        self.tmp += 1
        return name

    def pop(self) -> _Sym:
        if self.sym:
            return self.sym.pop()
        t = self.newtmp()
        self.emit(f"{t} = stack.pop()")
        return _Sym(t)

    def push(self, entry: _Sym) -> None:
        self.sym.append(entry)

    def pop_cmp(self, op: int) -> tuple[str, bool]:
        """Pop the operands of compare ``op``: ``(cond, negated)``.

        Ordered compares are Python operators; ``EQ``/``NE`` go through
        the guest-equality helper ``GEQ``, with ``negated`` set for NE.
        """
        b_ = self.pop()
        a = self.pop()
        if op in _CMP_EXPR:
            return f"({a.expr}) {_CMP_EXPR[op]} ({b_.expr})", False
        return f"GEQ({a.expr}, {b_.expr})", op == bc.NE

    def branch_cond(self, op: int) -> str:
        """The fused cmp+branch condition of compare ``op``."""
        cond, negated = self.pop_cmp(op)
        return f"not {cond}" if negated else cond

    def push_tmp(self, expr: str) -> str:
        """Evaluate ``expr`` into a temp now; push the temp."""
        t = self.newtmp()
        self.emit(f"{t} = {expr}")
        self.sym.append(_Sym(t))
        return t

    def spill(self, local: int) -> None:
        """Materialise symbolic entries that read local ``local``."""
        for e in self.sym:
            if local in e.deps:
                t = self.newtmp()
                self.emit(f"{t} = {e.expr}")
                e.expr = t
                e.deps = ()
                e.val = _NOVAL

    def flush_stack(self) -> None:
        if not self.sym:
            return
        if len(self.sym) == 1:
            self.emit(f"stack.append({self.sym[0].expr})")
        else:
            exprs = ", ".join(e.expr for e in self.sym)
            self.emit(f"stack.extend(({exprs}))")
        del self.sym[:]

    # ------------------------------------------------------------- costing
    def charge(self, ins) -> None:
        """Accumulate ``ins``'s static cost, emitted at the next flush."""
        self.pending_cost += ins.cost
        self.pending_count += 1

    def flush_charges(self) -> None:
        """Emit the pending static charges into ``acc``/``ic``."""
        if self.pending_cost or self.pending_count:
            if self.pending_cost:
                self.emit(f"acc += {self.pending_cost}")
            self.emit(f"ic += {self.pending_count}")
            self.pending_cost = 0
            self.pending_count = 0

    def flush_batch(self) -> None:
        """Emit the deferred write-barrier batch (one call, in order)."""
        batch = self.batch
        if not batch:
            return
        if len(batch) == 1:
            c, s, o, v = batch[0]
            self.emit(f"acc += BS(T, {c}, {s}, {o}, {v})")
        else:
            entries = ", ".join(
                f"({c}, {s}, {o}, {v})" for c, s, o, v in batch
            )
            self.emit(f"acc += BSB(T, ({entries}))")
        del batch[:]

    def barrier_store(self, container: str, slot: str, old: str,
                      volatile: str) -> None:
        self.batch.append((container, slot, old, volatile))

    def read_barrier(self, container: str, slot: str, volatile: str) -> None:
        self.flush_batch()  # keep jmm write/read ordering exact
        self.emit(f"acc += AL(T, {container}, {slot}, {volatile})")

    def set_fault(self, pc: int) -> None:
        """Mark ``pc`` as the next possible guest-fault site.

        Flushes the barrier batch (the reference has already run those
        barriers when this op raises) and the pending static charges
        *including this op's own cost* — matching the reference's
        charge-before-execute order, so ``acc``/``ic`` are exact at the
        raise."""
        self.flush_batch()
        self.flush_charges()
        self.emit(f"F[0] = {pc}")

    # --------------------------------------------------------- cache cells
    def field_cache(self, obj_var: str, name_expr: str) -> str:
        """Monomorphic inline cache mirroring ``_field_def``."""
        j = self.owner._cell()
        cv = self.newtmp()
        self.emit(f"{cv} = C[{j}]")
        self.emit(
            f"if {cv} is None or {cv}[0] is not {obj_var}.classdef:"
        )
        self.emit(
            f"    {cv} = ({obj_var}.classdef, "
            f"{obj_var}.classdef.field({name_expr}))"
        )
        self.emit(f"    C[{j}] = {cv}")
        return cv

    def static_cache(self, key_ref: str) -> str:
        j = self.owner._cell()
        cv = self.newtmp()
        self.emit(f"{cv} = C[{j}]")
        self.emit(f"if {cv} is None:")
        self.emit(f"    {cv} = SD(*{key_ref})")
        self.emit(f"    C[{j}] = {cv}")
        return cv

    # -------------------------------------------------------------- opcodes
    def emit_op(self, pc: int, ins) -> None:
        """Generate code for one non-branch fusable op.

        Branches (and comparisons fused into them) are control flow and
        stay with :class:`_Lowering`, which turns them into nested ``if``
        statements and hand-back exits.
        """
        op = ins.op
        owner = self.owner

        if op == bc.CONST:
            expr, val = owner._const_expr(ins.a)
            self.push(_Sym(expr, (), val))
        elif op == bc.LOAD:
            self.push(_Sym(f"locals_[{ins.a}]", (ins.a,)))
        elif op == bc.STORE:
            fused = bool(self.sym)
            v = self.pop()
            self.spill(ins.a)
            self.emit(f"locals_[{ins.a}] = {v.expr}")
            if fused:
                owner._bump("alu+store")
        elif op == bc.IINC:
            self.spill(ins.a)
            self.emit(f"locals_[{ins.a}] += {ins.b}")
        elif op == bc.DUP:
            if self.sym:
                top = self.sym[-1]
                self.push(_Sym(top.expr, top.deps, top.val))
            else:
                t = self.newtmp()
                self.emit(f"{t} = stack[-1]")
                self.push(_Sym(t))
        elif op == bc.POP:
            if self.sym:
                self.sym.pop()
            else:
                self.emit("del stack[-1]")
        elif op == bc.SWAP:
            a = self.pop()
            b_ = self.pop()
            self.push(a)
            self.push(b_)
        elif op == bc.NOP:
            pass
        elif op in _BIN_EXPR:
            b_ = self.pop()
            a = self.pop()
            self.push_tmp(f"({a.expr}) {_BIN_EXPR[op]} ({b_.expr})")
        elif op == bc.NEG:
            v = self.pop()
            self.push_tmp(f"-({v.expr})")
        elif op == bc.NOT:
            v = self.pop()
            self.push_tmp(f"0 if ({v.expr}) else 1")
        elif op in _CMP_EXPR or op == bc.EQ or op == bc.NE:
            cond, negated = self.pop_cmp(op)
            if negated:
                self.push_tmp(f"0 if {cond} else 1")
            else:
                self.push_tmp(f"1 if {cond} else 0")
        elif op == bc.DIV or op == bc.MOD:
            b_ = self.pop()
            a = self.pop()
            helper = "MOD" if op == bc.MOD else "DIV"
            if (b_.val is not _NOVAL and isinstance(b_.val, int)
                    and b_.val != 0):
                suffix = "P" if b_.val > 0 else "C"
                self.push_tmp(f"{helper}{suffix}({a.expr}, {b_.expr})")
                owner._bump("const+mod" if op == bc.MOD else "const+div")
            else:
                self.set_fault(pc)
                self.push_tmp(f"{helper}V({a.expr}, {b_.expr})")
        elif op == bc.TID:
            self.push(_Sym("T.tid"))

        # ---------------------------------------------------- heap ops
        elif op == bc.GETFIELD:
            o = self.pop()
            self.set_fault(pc)
            to = self.newtmp()
            self.emit(f"{to} = RR({o.expr}, 'object')")
            name_expr, _ = self.owner._const_expr(ins.a)
            cv = self.field_cache(to, name_expr)
            self.push_tmp(f"{to}.get({name_expr})")
            if owner.read_barriers:
                self.read_barrier(to, name_expr, f"{cv}[1].volatile")
        elif op == bc.PUTFIELD:
            v = self.pop()
            o = self.pop()
            self.set_fault(pc)
            to = self.newtmp()
            self.emit(f"{to} = RR({o.expr}, 'object')")
            name_expr, _ = self.owner._const_expr(ins.a)
            cv = self.field_cache(to, name_expr)
            if ins.barrier:
                told = self.newtmp()
                self.emit(f"{told} = {to}.put({name_expr}, {v.expr})")
                self.barrier_store(to, name_expr, told,
                                   f"{cv}[1].volatile")
            else:
                self.emit(f"{to}.put({name_expr}, {v.expr})")
        elif op == bc.ALOAD:
            idx = self.pop()
            arr = self.pop()
            self.set_fault(pc)
            ta = self.newtmp()
            self.emit(f"{ta} = RR({arr.expr}, 'array')")
            if owner.read_barriers:
                # the index expression is evaluated twice (get + AL);
                # pin it so both reads agree even for locals_ exprs
                ti = self.newtmp()
                self.emit(f"{ti} = {idx.expr}")
                self.push_tmp(f"{ta}.get({ti})")
                self.read_barrier(ta, ti, "False")
            else:
                self.push_tmp(f"{ta}.get({idx.expr})")
        elif op == bc.ASTORE:
            v = self.pop()
            idx = self.pop()
            arr = self.pop()
            self.set_fault(pc)
            ta = self.newtmp()
            self.emit(f"{ta} = RR({arr.expr}, 'array')")
            if ins.barrier:
                ti = self.newtmp()
                self.emit(f"{ti} = {idx.expr}")
                told = self.newtmp()
                self.emit(f"{told} = {ta}.put({ti}, {v.expr})")
                self.barrier_store(ta, ti, told, "False")
            else:
                self.emit(f"{ta}.put({idx.expr}, {v.expr})")
        elif op == bc.GETSTATIC:
            key_ref = owner._kref(ins.a)
            cv = self.static_cache(key_ref)
            self.push_tmp(f"GS({key_ref})")
            if owner.read_barriers:
                self.read_barrier(key_ref, f"{key_ref}[1]",
                                  f"{cv}.volatile")
        elif op == bc.PUTSTATIC:
            v = self.pop()
            key_ref = owner._kref(ins.a)
            cv = self.static_cache(key_ref)
            if ins.barrier:
                told = self.newtmp()
                self.emit(f"{told} = PS({key_ref}, {v.expr})")
                self.barrier_store(key_ref, f"{key_ref}[1]", told,
                                   f"{cv}.volatile")
            else:
                self.emit(f"PS({key_ref}, {v.expr})")
        elif op == bc.ARRAYLEN:
            arr = self.pop()
            self.set_fault(pc)
            ta = self.newtmp()
            self.emit(f"{ta} = RR({arr.expr}, 'array')")
            self.push_tmp(f"len({ta})")
        elif op == bc.NEW:
            j = owner._cell()
            cv = self.newtmp()
            name_expr, _ = owner._const_expr(ins.a)
            self.emit(f"{cv} = C[{j}]")
            self.emit(f"if {cv} is None:")
            self.emit(f"    {cv} = CDEF({name_expr})")
            self.emit(f"    C[{j}] = {cv}")
            self.push_tmp(f"ALLOC({cv})")
        elif op == bc.NEWARRAY:
            length = self.pop()
            self.set_fault(pc)
            fill_expr, _ = owner._const_expr(ins.a)
            self.push_tmp(f"NEWA({length.expr}, {fill_expr})")
        elif op == bc.CLASSREF:
            j = owner._cell()
            cv = self.newtmp()
            name_expr, _ = owner._const_expr(ins.a)
            self.emit(f"{cv} = C[{j}]")
            self.emit(f"if {cv} is None:")
            self.emit(f"    {cv} = CLSO({name_expr})")
            self.emit(f"    C[{j}] = {cv}")
            self.push(_Sym(cv))
        else:  # pragma: no cover - the lowering filters non-fusable ops
            raise AssertionError(f"non-fusable op {op} in run")


# -------------------------------------------------------------- lowering
class _Unstructured(Exception):
    """Control flow the lowering cannot express as nested ``if``
    statements; not an error — the region just stays un-fused."""


class _Lowering:
    """Lower the forward control flow of one region ``[lo, hi]`` of a
    method to straight-line Python with nested ``if`` arms.

    Control reaching ``hi`` falls off the end of :meth:`_gen` into the
    caller's continuation: a basic block's hand-back exit to ``hi``, a
    superblock's loop back-edge.  A branch to a pc outside the region
    leaves through :meth:`_exit`.  Every generated unit hands back to
    the dispatch loop the same way: its unflushed ``(cycles,
    instructions)`` in ``A[0]``/``A[1]`` on every exit and on every
    :class:`~repro.errors.GuestRuntimeError`, whose pc is in ``F[0]``.
    """

    def __init__(self, pre: "_Predecoder", lo: int, hi: int):
        self.pre = pre
        self.code = pre.method.code
        self.lo = lo
        self.hi = hi
        self.em = _Emitter(pre)

    # ------------------------------------------------------------ exits
    def _commit(self) -> None:
        """Emit what runs on every exit before the hand-back (nothing
        for a basic block; superblocks commit completed iterations)."""

    def _handback(self) -> None:
        self.em.emit("A[0] = acc")
        self.em.emit("A[1] = ic")

    def _guarded(self, body) -> None:
        """Generate ``body`` under the guest-exception hand-back."""
        em = self.em
        em.emit("try:")
        em.indent += 1
        body()
        em.indent -= 1
        em.emit("except GRE:")
        em.indent += 1
        self._commit()
        self._handback()
        em.emit("raise")
        em.indent -= 1

    def _exit(self, target: int) -> None:
        """Leave the region for ``target``: hand the unflushed
        accumulators to the dispatcher."""
        em = self.em
        em.flush_batch()
        em.flush_charges()
        em.flush_stack()
        self._commit()
        self._handback()
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
        """True when ``target`` leaves the region entirely."""
        return target < self.lo or target > self.hi

    # ----------------------------------------------------------- lowering
    def _gen(self, lo: int, hi: int) -> None:
        """Lower ``[lo, hi)``; control falls off the end into the caller's
        continuation."""
        em = self.em
        code = self.code
        pc = lo
        while pc < hi:
            ins = code[pc]
            op = ins.op

            if op in _CMP_EXPR or op == bc.EQ or op == bc.NE:
                nxt = code[pc + 1] if pc + 1 < hi else None
                if nxt is not None and nxt.op in (bc.IF, bc.IFNOT):
                    # cmp+branch superinstruction: the comparison is the
                    # branch condition, no 0/1 materialisation
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
                # represent — leave the region un-fused.
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
            # exit on the taken path; fall-through stays in the region
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


# -------------------------------------------------------------- compiler
class _Predecoder:
    """Compiles one method's fusable runs into block sources and its
    eligible loops into superblock sources, then the whole method into
    one module code object: a :class:`_Template`."""

    def __init__(self, method: MethodDef, read_barriers: bool,
                 fuse_heap: bool, bounded: bool):
        self.method = method
        self.read_barriers = read_barriers
        self.fuse_heap = fuse_heap
        #: the VM has a cycle cap: superblocks test ``MAXC``
        self.bounded = bounded
        self.consts: list[Any] = []   # K: shared constant pool
        self.cells = 0                # size of C, the inline-cache cells
        self.stats: dict[str, int] = {}

    def build(self) -> _Template:
        from repro.vm.tracecomp import compile_superblocks

        method = self.method
        leaders = find_leaders(method)
        blocks = [
            self._block(start, end)
            for start, end in find_runs(method, leaders, self.fuse_heap)
        ]
        supers = compile_superblocks(self)
        # Method-level translation: every block and superblock compiles in
        # one module-sized pass, so the whole method's generated code
        # shares one constant pool + cache-cell array and is dropped as
        # one unit by MethodDef.invalidate_decoded.
        sources = [b.source for b in blocks]
        sources.extend(s.source for s in supers)
        code = None
        if sources:
            filename = f"<decoded {method.qualified_name()}>"
            code = compile("\n".join(sources), filename, "exec")
        return _Template(
            code,
            tuple(self.consts),
            self.cells,
            self.stats,
            tuple((b.start, b.end, b.source) for b in blocks),
            tuple((s.anchor, s.head, s.source) for s in supers),
        )

    # ---------------------------------------------------------- plumbing
    def _kref(self, value: Any) -> str:
        self.consts.append(value)
        return f"K[{len(self.consts) - 1}]"

    def _cell(self) -> int:
        self.cells += 1
        return self.cells - 1

    def _const_expr(self, value: Any):
        """A literal expression when safely round-trippable, else K[i]."""
        if value is None:
            return "None", value
        if type(value) is bool or type(value) is int:
            return repr(value), value
        if type(value) is str and len(value) < 200:
            return repr(value), value
        return self._kref(value), value

    def _bump(self, pattern: str) -> None:
        self.stats[pattern] = self.stats.get(pattern, 0) + 1

    # ------------------------------------------------------------- codegen
    def _block(self, start: int, end: int) -> BasicBlock:
        """Lower the fusable run ``[start, end)`` as a region followed by
        a hand-back exit to ``end``.  Fused branches are forward and end
        the run, so every branch target is the join ``end`` or lies
        outside the run: the lowering never meets an unstructured
        block."""
        low = _Lowering(self, start, end)
        em = low.em
        em.emit("acc = 0")
        em.emit("ic = 0")

        def body() -> None:
            low._gen(start, end)
            last = self.method.code[end - 1]
            if last.op != bc.GOTO or last.a == end:
                low._exit(end)  # else the GOTO already left the run

        low._guarded(body)
        source = (
            f"def _b{start}(stack, locals_, F, A, T):\n"
            + "\n".join(em.lines) + "\n"
        )
        return BasicBlock(start, end, None, source)


def render_decoded(dm: DecodedMethod) -> str:
    """Human-readable dump of a predecoded method (Inspector/debugging)."""
    out = [
        f"{dm.method.qualified_name()}: {len(dm.block_list)} blocks, "
        f"{dm.fused_instructions}/{len(dm.method.code)} instructions fused, "
        f"superinstructions={dm.superinstructions or {}}"
    ]
    for b in dm.block_list:
        out.append(f"-- block [{b.start},{b.end}) count={b.count}")
        out.append(b.source.rstrip())
    for s in dm.superblock_list:
        out.append(
            f"-- superblock @{s.anchor} loop [{s.head},{s.anchor}]"
        )
        out.append(s.source.rstrip())
    return "\n".join(out)
