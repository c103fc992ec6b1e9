"""Forward dataflow over one function's CFG.

The interpreter runs a classic worklist fixpoint with three state
components:

* ``env`` — reaching definitions joined into one abstract value per
  name (a points-to map for buffer handles and the helper values the
  HIP surface threads around them);
* ``cpu_written`` — *may* have been written by the CPU (union join):
  origins touched through ``.np[...] = ``, ``runCpuKernel`` write
  accesses, ``touch(..., "cpu")``, or container mutation;
* ``gpu_warm`` — *must* already be mapped into the GPU page table on
  every path (intersection join): origins a GPU kernel or an SDMA copy
  has definitely touched.  First-touch hazards and predicted fault
  storms key off "not definitely warm";
* ``freed`` — *may* have been passed to ``hipFree`` (union join), as
  (bound name, free line) pairs.  Keyed by name rather than origin so
  handles that are parameters or TOP-valued are covered too; rebinding
  the name clears it;
* ``pending`` — asynchronous work *may* be in flight (union join): the
  lines of the first launch / async copy since the last sync on some
  path.

After the fixpoint converges, one emit pass walks the statement nodes
in program order and records :class:`Event` records — allocations,
CPU writes, kernel launches (with each access's warm/written status at
that point), copies, synchronizations, frees, host accesses, and reads
of possibly-freed names (each with the freed/pending state at that
point) — which :mod:`repro.analyze.advise.checks` and
:mod:`repro.analyze.advise.lint` consume and
:mod:`repro.analyze.advise.summaries` replays at call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import (
    Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union,
)

from .cfg import CFG, Node, build_cfg
from .values import (
    TOP,
    AccessVal,
    BufVal,
    ListVal,
    NumVal,
    Origin,
    ParamVal,
    SpecVal,
    StrVal,
    StreamVal,
    TupleVal,
    join,
    origins_of,
    substitute,
)

#: numpy dtype attribute -> element size in bytes (for size folding).
DTYPE_SIZES: Dict[str, int] = {
    "uint8": 1, "int8": 1, "float16": 2, "int16": 2, "uint16": 2,
    "float32": 4, "int32": 4, "uint32": 4,
    "float64": 8, "int64": 8, "uint64": 8,
}

#: Direct memory-manager methods -> allocator family.
DIRECT_ALLOCATORS: Dict[str, str] = {
    "hip_malloc": "hipMalloc",
    "hipMalloc": "hipMalloc",
    "hip_host_malloc": "hipHostMalloc",
    "hipHostMalloc": "hipHostMalloc",
    "hip_malloc_managed": "hipMallocManaged",
    "hipMallocManaged": "hipMallocManaged",
    "malloc": "malloc",
    "managed_static": "managed_static",
}

#: Container methods that imply a CPU write to the receiving buffer.
CPU_WRITE_METHODS = frozenset({"extend", "append", "push_back", "fill"})

#: Deallocation spellings: the HIP call and the memory-manager method.
FREE_CALLS = frozenset({"hipFree", "free"})

#: Synchronization spellings -> sync kind (``hipMemcpy`` also drains
#: pending work: it is synchronous on the default stream).
SYNC_CALLS: Dict[str, str] = {
    "hipDeviceSynchronize": "device",
    "device_synchronize": "device",
    "hipStreamSynchronize": "stream",
    "synchronize": "stream",
    "hipEventSynchronize": "event",
}

#: Kernel-launch spellings: the HIP calls and the kernel-engine methods.
GPU_LAUNCH_CALLS = frozenset({"launchKernel", "run_gpu"})
CPU_LAUNCH_CALLS = frozenset({"runCpuKernel", "run_cpu"})

#: Calls that create a runtime/APU: a function calling one owns its
#: memory arena (and is accountable for leaks).
RUNTIME_FACTORIES = frozenset({"make_runtime", "make_apu"})


def call_name(expr: ast.Call) -> Optional[str]:
    """The terminal attribute/identifier a call targets."""
    if isinstance(expr.func, ast.Attribute):
        return expr.func.attr
    if isinstance(expr.func, ast.Name):
        return expr.func.id
    return None


def _freed_name(expr: ast.Call) -> str:
    """The handle a free call releases: ``x`` for ``hipFree(x)`` and for
    ``hipFree(x.allocation)``, the view the runtime's arrays expose."""
    arg = expr.args[0] if expr.args else None
    if (
        isinstance(arg, ast.Attribute)
        and arg.attr == "allocation"
        and isinstance(arg.value, ast.Name)
    ):
        arg = arg.value
    return arg.id if isinstance(arg, ast.Name) else ""


@dataclass(frozen=True)
class LaunchAccess:
    """One kernel argument at a launch, with its state at that point."""

    value: object  #: BufVal / ParamVal / TOP
    mode: str
    warm: bool  #: definitely GPU-mapped before this launch
    cpu_written: bool  #: may have been CPU-written before this launch


@dataclass(frozen=True)
class Event:
    """One dataflow fact, attributed to the function that executed it."""

    #: "alloc" | "cpu_write" | "launch" | "copy" | "sync" | "free" |
    #: "host" (host compute or a ``.np`` view) | "use" (a read of a name
    #: that may already be freed)
    kind: str
    line: int
    function: str
    loops: Tuple[int, ...] = ()  #: enclosing loop ids, function-local
    via_summary: bool = False  #: replayed out of a callee's summary
    buf: object = None  #: alloc / cpu_write payload
    kernel: str = ""  #: launch: kernel name
    accesses: Tuple[LaunchAccess, ...] = ()
    #: launch: True/False when the stream is known, None when it is not.
    stream_default: Optional[bool] = True
    dst: object = None  #: copy endpoints
    src: object = None
    size_bytes: Optional[int] = None
    is_async: bool = False
    sync_kind: str = ""  #: sync: "device" | "stream" | "event"
    #: alloc: the name the allocation is bound to; free / use / host:
    #: the handle's name ("" when not a plain name).
    name: str = ""
    #: free / use: the lines at which *name* may already have been freed.
    freed: FrozenSet[int] = frozenset()
    #: free / host: the lines of asynchronous work that may be pending.
    pending: FrozenSet[int] = frozenset()


@dataclass
class FunctionResult:
    """One function's summary: its events, return value, and formals."""

    qualname: str
    file: str
    events: List[Event] = field(default_factory=list)
    ret: object = None
    param_names: List[str] = field(default_factory=list)
    param_defaults: Dict[int, object] = field(default_factory=dict)
    xnack_off: bool = False
    owns_runtime: bool = False  #: calls make_runtime / make_apu itself
    returned: Set[str] = field(default_factory=set)  #: names read by returns
    exit_state: Optional["AbsState"] = None  #: converged state at exit


class AbsState:
    """The product state flowing along CFG edges."""

    __slots__ = ("env", "cpu_written", "gpu_warm", "freed", "pending")

    def __init__(
        self,
        env: Optional[Dict[str, object]] = None,
        cpu_written: FrozenSet[Origin] = frozenset(),
        gpu_warm: FrozenSet[Origin] = frozenset(),
        freed: FrozenSet[Tuple[str, int]] = frozenset(),
        pending: FrozenSet[int] = frozenset(),
    ) -> None:
        self.env: Dict[str, object] = dict(env or {})
        self.cpu_written: FrozenSet[Origin] = cpu_written
        self.gpu_warm: FrozenSet[Origin] = gpu_warm
        self.freed: FrozenSet[Tuple[str, int]] = freed
        self.pending: FrozenSet[int] = pending

    def copy(self) -> "AbsState":
        return AbsState(
            self.env, self.cpu_written, self.gpu_warm, self.freed,
            self.pending,
        )

    def freed_lines(self, name: str) -> FrozenSet[int]:
        """Lines at which *name* may have been freed."""
        return frozenset(line for n, line in self.freed if n == name)

    def merge(self, other: "AbsState") -> bool:
        """Join *other* into self; True when anything changed."""
        changed = False
        for name, value in other.env.items():
            joined = join(self.env.get(name), value)
            if joined != self.env.get(name):
                self.env[name] = joined
                changed = True
        cpu = self.cpu_written | other.cpu_written
        if cpu != self.cpu_written:
            self.cpu_written = cpu
            changed = True
        warm = self.gpu_warm & other.gpu_warm
        if warm != self.gpu_warm:
            self.gpu_warm = warm
            changed = True
        if not other.freed <= self.freed:
            self.freed = self.freed | other.freed
            changed = True
        if not other.pending <= self.pending:
            self.pending = self.pending | other.pending
            changed = True
        return changed


class _Interp:
    """Abstract interpreter for one function body."""

    def __init__(
        self,
        result: FunctionResult,
        cfg: CFG,
        summaries: Dict[str, FunctionResult],
    ) -> None:
        self.result = result
        self.cfg = cfg
        self.summaries = summaries
        self._node: Optional[Node] = None  # node being transferred
        self._emit = False
        #: id(call) -> name, for allocation calls assigned straight to a
        #: name in the statement being transferred.
        self._binds: Dict[int, str] = {}

    # -- event plumbing -------------------------------------------------

    def _loops(self) -> Tuple[int, ...]:
        assert self._node is not None
        return self.cfg.loops_of.get(self._node.id, ())

    def _record(self, kind: str, at: Union[ast.AST, int], **fields) -> None:
        """Record one event of this function at *at* (a node or a line);
        only the emit pass records."""
        if self._emit:
            line = at if isinstance(at, int) else self._line(at)
            self.result.events.append(
                Event(
                    kind=kind,
                    line=line,
                    function=self.result.qualname,
                    loops=self._loops(),
                    **fields,
                )
            )

    def _replay(self, event: Event, **changes) -> None:
        """Record a callee's event as replayed at this call site."""
        if self._emit:
            changes = {"via_summary": True, "loops": (), **changes}
            self.result.events.append(replace(event, **changes))

    def _line(self, expr: ast.AST) -> int:
        line = getattr(expr, "lineno", None)
        if line is None and self._node is not None:
            line = self._node.line
        return line or 0

    # -- transfer -------------------------------------------------------

    def transfer(self, node: Node, state: AbsState, emit: bool) -> AbsState:
        self._node, self._emit, self._binds = node, emit, {}
        if emit:
            self._scan_uses(node, state)
        if node.kind == "header":
            if node.expr is not None:
                value = self.eval(node.expr, state)
                if node.bind is not None:
                    bound = value
                    if node.bind_mode == "iter":
                        bound = self._element_of(value)
                    self._bind_target(node.bind, bound, state)
            return state
        if node.kind != "stmt" or node.stmt is None:
            return state
        stmt = node.stmt
        if isinstance(stmt, ast.Assign):
            self._binds = self._bound_calls(stmt.targets, stmt.value)
            value = self.eval(stmt.value, state)
            for target in stmt.targets:
                self._assign(target, value, stmt.value, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._binds = self._bound_calls([stmt.target], stmt.value)
            value = self.eval(stmt.value, state)
            self._assign(stmt.target, value, stmt.value, state)
        elif isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value, state)
            self._augmented(stmt, state)
        elif isinstance(stmt, ast.Return):
            value = self.eval(stmt.value, state) if stmt.value else None
            self.result.ret = join(self.result.ret, value)
            if stmt.value is not None:
                self.result.returned.update(
                    n.id for n in ast.walk(stmt.value)
                    if isinstance(n, ast.Name)
                )
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, state)
        elif isinstance(stmt, (ast.Assert, ast.Raise, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child, state)
        return state

    @staticmethod
    def _bound_calls(
        targets: Sequence[ast.expr], value: ast.expr
    ) -> Dict[int, str]:
        """id(value expression) -> the name it is assigned straight to."""
        binds: Dict[int, str] = {}
        for target in targets:
            if isinstance(target, ast.Name):
                binds.setdefault(id(value), target.id)
            elif (
                isinstance(target, ast.Tuple)
                and isinstance(value, ast.Tuple)
                and len(target.elts) == len(value.elts)
            ):
                for t, v in zip(target.elts, value.elts):
                    if isinstance(t, ast.Name):
                        binds.setdefault(id(v), t.id)
        return binds

    def _scan_uses(self, node: Node, state: AbsState) -> None:
        """Record the handle reads of one node against its in-state:
        names passed to a call or dereferenced while they may be freed
        (``use``), and ``.np`` host views of buffers (``host``)."""
        root = node.stmt if node.kind == "stmt" else node.expr
        if root is None:
            return
        # A free's argument is not a use: a second free is a double free.
        freeing: Set[int] = set()
        for sub in ast.walk(root):
            if id(sub) in freeing:
                continue
            if isinstance(sub, ast.Call):
                if call_name(sub) in FREE_CALLS:
                    freeing.update(map(id, sub.args))
                    continue
                for arg in [*sub.args, *(k.value for k in sub.keywords)]:
                    if isinstance(arg, ast.Name):
                        self._use(arg.id, sub, state)
            elif isinstance(sub, ast.Attribute) and isinstance(
                sub.value, ast.Name
            ):
                name = sub.value.id
                if self._use(name, sub, state) or sub.attr != "np":
                    continue
                if isinstance(state.env.get(name), BufVal):
                    self._record(
                        "host", sub, name=name, pending=state.pending
                    )

    def _use(self, name: str, expr: ast.AST, state: AbsState) -> bool:
        """Record a read of *name* if it may be freed; True if so."""
        freed = state.freed_lines(name)
        if freed:
            self._record("use", expr, name=name, freed=freed)
        return bool(freed)

    @staticmethod
    def _element_of(value: object) -> object:
        """The element value of an iterated abstract value."""
        if isinstance(value, ListVal):
            return value.elem if value.elem is not None else TOP
        if isinstance(value, TupleVal):
            elem: object = None
            for e in value.elems:
                elem = join(elem, e)
            return elem if elem is not None else TOP
        return TOP

    def _bind_target(
        self, target: ast.expr, value: object, state: AbsState
    ) -> None:
        if isinstance(target, ast.Name):
            state.env[target.id] = value
            if state.freed:  # a rebound name no longer holds the freed handle
                state.freed = frozenset(
                    p for p in state.freed if p[0] != target.id
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            elems: Sequence[object]
            if isinstance(value, TupleVal) and len(value.elems) == len(
                target.elts
            ):
                elems = value.elems
            else:
                elems = [self._element_of(value)] * len(target.elts)
            for t, v in zip(target.elts, elems):
                self._bind_target(t, v, state)
        # attribute/subscript targets are writes, handled by _assign

    def _assign(
        self,
        target: ast.expr,
        value: object,
        value_expr: ast.expr,
        state: AbsState,
    ) -> None:
        if isinstance(target, (ast.Name, ast.Tuple, ast.List)):
            # Tuple targets unpack a tuple-valued right-hand side.
            if isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                value_expr, ast.Tuple
            ) and len(target.elts) == len(value_expr.elts):
                for t, e in zip(target.elts, value_expr.elts):
                    self._assign(t, self.eval(e, state), e, state)
                return
            self._bind_target(target, value, state)
            return
        if isinstance(target, ast.Subscript):
            # `buf.np[...] = v` / `buf[...] = v`: a CPU store.
            self._cpu_write(
                self.eval(target.value, state), self._line(target), state
            )

    def _augmented(self, stmt: ast.AugAssign, state: AbsState) -> None:
        if isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            current = state.env.get(name)
            value = self.eval(stmt.value, state)
            folded = self._fold_binop(type(stmt.op), current, value)
            state.env[name] = folded
        elif isinstance(stmt.target, ast.Subscript):
            self._cpu_write(
                self.eval(stmt.target.value, state),
                self._line(stmt.target),
                state,
            )

    def _cpu_write(self, value: object, line: int, state: AbsState) -> None:
        origins = origins_of(value)
        if origins or isinstance(value, ParamVal):
            state.cpu_written = state.cpu_written | origins
            self._record("cpu_write", line, buf=value)

    # -- expression evaluation ------------------------------------------

    def eval(self, expr: ast.expr, state: AbsState) -> object:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, str):
                return StrVal.of(expr.value)
            if isinstance(expr.value, bool):
                return TOP
            if isinstance(expr.value, (int, float)):
                return NumVal(expr.value)
            return TOP
        if isinstance(expr, ast.Name):
            return state.env.get(expr.id, TOP)
        if isinstance(expr, ast.Attribute):
            return self._attribute(expr, state)
        if isinstance(expr, ast.Call):
            return self._call(expr, state)
        if isinstance(expr, ast.BinOp):
            left = self.eval(expr.left, state)
            right = self.eval(expr.right, state)
            return self._fold_binop(type(expr.op), left, right)
        if isinstance(expr, ast.UnaryOp):
            value = self.eval(expr.operand, state)
            if isinstance(expr.op, ast.USub) and isinstance(value, NumVal):
                return NumVal(-value.value)
            return TOP
        if isinstance(expr, ast.Tuple):
            return TupleVal(tuple(self.eval(e, state) for e in expr.elts))
        if isinstance(expr, ast.List):
            elem: object = None
            for e in expr.elts:
                elem = join(elem, self.eval(e, state))
            return ListVal(elem)
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            return ListVal(self.eval(expr.elt, state))
        if isinstance(expr, ast.IfExp):
            self.eval(expr.test, state)
            return join(
                self.eval(expr.body, state), self.eval(expr.orelse, state)
            )
        if isinstance(expr, ast.Subscript):
            return self._subscript(expr, state)
        if isinstance(expr, ast.BoolOp):
            value: object = None
            for e in expr.values:
                value = join(value, self.eval(e, state))
            return value if value is not None else TOP
        if isinstance(expr, ast.Compare):
            self.eval(expr.left, state)
            for comp in expr.comparators:
                self.eval(comp, state)
            return TOP
        if isinstance(expr, ast.JoinedStr):
            return TOP
        # Anything else: evaluate children for their effects, yield TOP.
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self.eval(child, state)
        return TOP

    @staticmethod
    def _fold_binop(op: type, left: object, right: object) -> object:
        if not (isinstance(left, NumVal) and isinstance(right, NumVal)):
            return TOP
        a, b = left.value, right.value
        try:
            if op is ast.Add:
                return NumVal(a + b)
            if op is ast.Sub:
                return NumVal(a - b)
            if op is ast.Mult:
                return NumVal(a * b)
            if op is ast.FloorDiv:
                return NumVal(a // b)
            if op is ast.Div:
                return NumVal(a / b)
            if op is ast.Mod:
                return NumVal(a % b)
            if op is ast.Pow:
                return NumVal(a ** b)
            if op is ast.LShift:
                return NumVal(int(a) << int(b))
            if op is ast.RShift:
                return NumVal(int(a) >> int(b))
        except (ZeroDivisionError, OverflowError, ValueError, TypeError):
            return TOP
        return TOP

    def _attribute(self, expr: ast.Attribute, state: AbsState) -> object:
        base = self.eval(expr.value, state)
        if isinstance(base, BufVal):
            if expr.attr in ("allocation", "np", "data"):
                return base  # views of the same buffer
            if expr.attr == "nbytes":
                sizes = {o.size_bytes for o in base.origins}
                if len(sizes) == 1 and None not in sizes:
                    return NumVal(next(iter(sizes)))
                return TOP
        if isinstance(base, ParamVal) and expr.attr in (
            "allocation", "np", "data"
        ):
            return base  # still the same opaque buffer
        return TOP

    def _subscript(self, expr: ast.Subscript, state: AbsState) -> object:
        base = self.eval(expr.value, state)
        index = self.eval(expr.slice, state)
        if isinstance(base, TupleVal) and isinstance(index, NumVal):
            i = index.as_int
            if 0 <= i < len(base.elems):
                return base.elems[i]
        if isinstance(base, ListVal):
            return base.elem if base.elem is not None else TOP
        return TOP

    # -- calls ----------------------------------------------------------

    def _arg(self, expr: ast.Call, index: int, kw: Optional[str] = None):
        if index < len(expr.args):
            return expr.args[index]
        if kw is not None:
            for keyword in expr.keywords:
                if keyword.arg == kw:
                    return keyword.value
        return None

    def _kwarg(self, expr: ast.Call, name: str):
        for keyword in expr.keywords:
            if keyword.arg == name:
                return keyword.value
        return None

    def _call(self, expr: ast.Call, state: AbsState) -> object:
        name = call_name(expr)
        receiver = (
            self.eval(expr.func.value, state)
            if isinstance(expr.func, ast.Attribute)
            else None
        )

        if name == "array" and not self._is_numpy_receiver(expr):
            return self._alloc_array(expr, state)
        if name in DIRECT_ALLOCATORS and isinstance(expr.func, ast.Attribute):
            return self._alloc_direct(expr, name, state)
        if name == "UnifiedVector":
            return self._alloc_vector(expr, state)
        if name == "BufferAccess":
            return self._buffer_access(expr, state)
        if name == "KernelSpec":
            return self._kernel_spec(expr, state)
        if name in GPU_LAUNCH_CALLS:
            return self._launch(expr, state, gpu=True)
        if name in CPU_LAUNCH_CALLS:
            return self._launch(expr, state, gpu=False)
        if name in ("hipMemcpy", "hipMemcpyAsync"):
            return self._memcpy(expr, state, name == "hipMemcpyAsync")
        if name == "touch":
            return self._touch(expr, state)
        if name in SYNC_CALLS:
            self._eval_args(expr, state)
            self._record("sync", expr, sync_kind=SYNC_CALLS[name])
            state.pending = frozenset()
            return TOP
        if name in FREE_CALLS:
            return self._free(expr, state)
        if name == "hipStreamCreate":
            self._eval_args(expr, state)
            return StreamVal(default=False)
        if name in RUNTIME_FACTORIES:
            self.result.owns_runtime = True
            self._eval_args(expr, state)
            xnack = self._kwarg(expr, "xnack")
            if isinstance(xnack, ast.Constant) and xnack.value is False:
                self.result.xnack_off = True
            return TOP
        if name in ("min", "max") and expr.args:
            values = [self.eval(a, state) for a in expr.args]
            if all(isinstance(v, NumVal) for v in values):
                pick = min if name == "min" else max
                return NumVal(pick(v.value for v in values))
            return TOP
        if (
            name in CPU_WRITE_METHODS
            and receiver is not None
            and isinstance(receiver, (BufVal, ParamVal))
        ):
            self._eval_args(expr, state)
            self._cpu_write(receiver, self._line(expr), state)
            return TOP
        if (
            name == "append"
            and isinstance(expr.func, ast.Attribute)
            and isinstance(expr.func.value, ast.Name)
            and isinstance(state.env.get(expr.func.value.id), ListVal)
        ):
            item = self.eval(expr.args[0], state) if expr.args else TOP
            current = state.env[expr.func.value.id]
            state.env[expr.func.value.id] = ListVal(join(current.elem, item))
            return TOP
        if name in self.summaries:
            return self._user_call(expr, self.summaries[name], state)
        self._eval_args(expr, state)
        return TOP

    @staticmethod
    def _is_numpy_receiver(expr: ast.Call) -> bool:
        return (
            isinstance(expr.func, ast.Attribute)
            and isinstance(expr.func.value, ast.Name)
            and expr.func.value.id in ("np", "numpy")
        )

    def _eval_args(self, expr: ast.Call, state: AbsState) -> List[object]:
        values = [self.eval(a, state) for a in expr.args]
        values.extend(self.eval(k.value, state) for k in expr.keywords)
        return values

    # -- allocation -----------------------------------------------------

    def _literal_name(self, expr: ast.Call) -> str:
        kw = self._kwarg(expr, "name")
        if isinstance(kw, ast.Constant) and isinstance(kw.value, str):
            return kw.value
        return ""

    def _families_of(self, value: object) -> Set[str]:
        if isinstance(value, StrVal):
            return set(value.options)
        if isinstance(value, ParamVal):
            return {f"@param{value.index}"}
        return {"?"}

    def _make_buffer(
        self,
        expr: ast.Call,
        families: Set[str],
        size: Optional[int],
        state: AbsState,
    ) -> BufVal:
        line = self._line(expr)
        origins = frozenset(
            Origin(
                line=line,
                family=family,
                size_bytes=size,
                name=self._literal_name(expr),
            )
            for family in families
        )
        buf = BufVal(origins)
        self._record(
            "alloc", line, buf=buf, size_bytes=size,
            name=self._binds.get(id(expr), ""),
        )
        return buf

    def _alloc_array(self, expr: ast.Call, state: AbsState) -> BufVal:
        shape = self.eval(expr.args[0], state) if expr.args else TOP
        dtype_size = self._dtype_size(self._arg(expr, 1, "dtype"))
        alloc_expr = self._arg(expr, 2, "allocator")
        if alloc_expr is None:
            families = {"hipMalloc"}  # array() defaults to hipMalloc
        else:
            families = self._families_of(self.eval(alloc_expr, state))
        size = self._shape_size(shape, dtype_size)
        for keyword in expr.keywords:
            self.eval(keyword.value, state)
        return self._make_buffer(expr, families, size, state)

    @staticmethod
    def _shape_size(shape: object, dtype_size: Optional[int]) -> Optional[int]:
        if dtype_size is None:
            return None
        if isinstance(shape, NumVal):
            return shape.as_int * dtype_size
        if isinstance(shape, TupleVal) and all(
            isinstance(e, NumVal) for e in shape.elems
        ):
            count = 1
            for e in shape.elems:
                count *= e.as_int
            return count * dtype_size
        return None

    @staticmethod
    def _dtype_size(dtype_expr: Optional[ast.expr]) -> Optional[int]:
        if dtype_expr is None:
            return 4  # runtime.array defaults to np.float32
        if isinstance(dtype_expr, ast.Attribute):
            return DTYPE_SIZES.get(dtype_expr.attr)
        if isinstance(dtype_expr, ast.Name):
            return DTYPE_SIZES.get(dtype_expr.id)
        return None

    def _alloc_direct(
        self, expr: ast.Call, name: str, state: AbsState
    ) -> BufVal:
        size_value = self.eval(expr.args[0], state) if expr.args else TOP
        size = size_value.as_int if isinstance(size_value, NumVal) else None
        for keyword in expr.keywords:
            self.eval(keyword.value, state)
        return self._make_buffer(expr, {DIRECT_ALLOCATORS[name]}, size, state)

    def _alloc_vector(self, expr: ast.Call, state: AbsState) -> BufVal:
        self._eval_args(expr, state)
        alloc_expr = self._arg(expr, 2, "allocator")
        if alloc_expr is None:
            families = {"malloc"}  # UnifiedVector defaults to malloc
        else:
            families = self._families_of(self.eval(alloc_expr, state))
        line = self._line(expr)
        origins = frozenset(
            Origin(line=line, family=f, size_bytes=None, name="std::vector")
            for f in families
        )
        buf = BufVal(origins)
        # No bound name: a vector owns its storage, it is never hipFree'd.
        self._record("alloc", line, buf=buf)
        return buf

    # -- kernels --------------------------------------------------------

    def _buffer_access(self, expr: ast.Call, state: AbsState) -> AccessVal:
        buf = self.eval(expr.args[0], state) if expr.args else TOP
        mode_expr = self._arg(expr, 1, "mode")
        mode = "read"
        if isinstance(mode_expr, ast.Constant):
            mode = str(mode_expr.value)
        for keyword in expr.keywords:
            self.eval(keyword.value, state)
        return AccessVal(buf, mode)

    def _kernel_spec(self, expr: ast.Call, state: AbsState) -> SpecVal:
        name = "?"
        if expr.args and isinstance(expr.args[0], ast.Constant):
            name = str(expr.args[0].value)
        accesses: List[AccessVal] = []
        acc_expr = self._arg(expr, 1, "accesses")
        if isinstance(acc_expr, (ast.List, ast.Tuple)):
            for elt in acc_expr.elts:
                value = self.eval(elt, state)
                accesses.append(
                    value
                    if isinstance(value, AccessVal)
                    else AccessVal(TOP, "?")
                )
        elif acc_expr is not None:
            value = self.eval(acc_expr, state)
            if isinstance(value, ListVal) and isinstance(
                value.elem, AccessVal
            ):
                accesses.append(value.elem)
            elif isinstance(value, AccessVal):
                accesses.append(value)
        for keyword in expr.keywords:
            self.eval(keyword.value, state)
        return SpecVal(name, tuple(accesses))

    def _launch(
        self, expr: ast.Call, state: AbsState, gpu: bool
    ) -> object:
        spec = self.eval(expr.args[0], state) if expr.args else TOP
        stream_default: Optional[bool] = True
        stream_expr = self._arg(expr, 1, "stream")
        if stream_expr is not None:
            stream = self.eval(stream_expr, state)
            if isinstance(stream, StreamVal):
                stream_default = stream.default
            elif isinstance(stream, ast.expr) or stream is TOP or isinstance(
                stream, ParamVal
            ):
                stream_default = None
            if isinstance(stream_expr, ast.Constant) and (
                stream_expr.value is None
            ):
                stream_default = True
        for keyword in expr.keywords:
            if keyword.arg != "stream":
                self.eval(keyword.value, state)
        if gpu:
            state.pending = state.pending or frozenset({self._line(expr)})
        else:
            self._record("host", expr, pending=state.pending)
        if not isinstance(spec, SpecVal):
            return TOP
        if not gpu:
            # CPU kernels write buffers on the host timeline.
            for access in spec.accesses:
                if access.mode in ("write", "readwrite", "?"):
                    self._cpu_write(access.buf, self._line(expr), state)
            return TOP
        accesses: List[LaunchAccess] = []
        touched: Set[Origin] = set()
        for access in spec.accesses:
            origins = origins_of(access.buf)
            warm = bool(origins) and origins <= state.gpu_warm
            written = bool(origins & state.cpu_written)
            accesses.append(
                LaunchAccess(access.buf, access.mode, warm, written)
            )
            touched |= origins
        self._record(
            "launch", expr, kernel=spec.name, accesses=tuple(accesses),
            stream_default=stream_default,
        )
        state.gpu_warm = state.gpu_warm | frozenset(touched)
        return TOP

    def _memcpy(
        self, expr: ast.Call, state: AbsState, is_async: bool
    ) -> object:
        dst = self.eval(expr.args[0], state) if len(expr.args) > 0 else TOP
        src = self.eval(expr.args[1], state) if len(expr.args) > 1 else TOP
        size_expr = self._arg(expr, 2, "nbytes")
        size: Optional[int] = None
        if size_expr is not None:
            value = self.eval(size_expr, state)
            if isinstance(value, NumVal):
                size = value.as_int
        if size is None:
            sizes = {
                o.size_bytes
                for o in origins_of(dst) | origins_of(src)
                if o.size_bytes is not None
            }
            if len(sizes) == 1:
                size = next(iter(sizes))
        for keyword in expr.keywords:
            self.eval(keyword.value, state)
        self._record(
            "copy", expr, dst=dst, src=src, size_bytes=size,
            is_async=is_async,
        )
        # SDMA touches both endpoints' pages: they are mapped afterwards.
        state.gpu_warm = (
            state.gpu_warm | origins_of(dst) | origins_of(src)
        )
        if is_async:
            state.pending = state.pending or frozenset({self._line(expr)})
        else:
            state.pending = frozenset()  # synchronous on the default stream
        return TOP

    def _free(self, expr: ast.Call, state: AbsState) -> object:
        self._eval_args(expr, state)
        name = _freed_name(expr)
        line = self._line(expr)
        self._record(
            "free", line, name=name, freed=state.freed_lines(name),
            pending=state.pending,
        )
        if name:
            state.freed = state.freed | {(name, line)}
        return TOP

    def _touch(self, expr: ast.Call, state: AbsState) -> object:
        buf = self.eval(expr.args[0], state) if expr.args else TOP
        device = None
        device_expr = self._arg(expr, 1, "device")
        if isinstance(device_expr, ast.Constant):
            device = str(device_expr.value)
        if device == "cpu":
            self._cpu_write(buf, self._line(expr), state)
        elif device == "gpu":
            state.gpu_warm = state.gpu_warm | origins_of(buf)
        return TOP

    # -- interprocedural ------------------------------------------------

    def _user_call(
        self, expr: ast.Call, summary: FunctionResult, state: AbsState
    ) -> object:
        bindings: Dict[int, object] = dict(summary.param_defaults)
        for i, arg in enumerate(expr.args):
            if not isinstance(arg, ast.Starred):
                bindings[i] = self.eval(arg, state)
        for keyword in expr.keywords:
            value = self.eval(keyword.value, state)
            if keyword.arg in summary.param_names:
                bindings[summary.param_names.index(keyword.arg)] = value
        return self.apply_summary(summary, bindings, state, expr)

    def apply_summary(
        self,
        summary: FunctionResult,
        bindings: Dict[int, object],
        state: AbsState,
        expr: ast.Call,
    ) -> object:
        """Replay a callee's events against the caller's state."""
        for event in summary.events:
            if event.kind == "alloc":
                self._replay(event, buf=substitute(event.buf, bindings))
            elif event.kind == "cpu_write":
                buf = substitute(event.buf, bindings)
                state.cpu_written = state.cpu_written | origins_of(buf)
                self._replay(event, buf=buf)
            elif event.kind == "launch":
                accesses: List[LaunchAccess] = []
                touched: Set[Origin] = set()
                for access in event.accesses:
                    value = substitute(access.value, bindings)
                    origins = origins_of(value)
                    warm = access.warm or (
                        bool(origins) and origins <= state.gpu_warm
                    )
                    written = access.cpu_written or bool(
                        origins & state.cpu_written
                    )
                    accesses.append(
                        LaunchAccess(value, access.mode, warm, written)
                    )
                    touched |= origins
                self._replay(event, accesses=tuple(accesses))
                state.gpu_warm = state.gpu_warm | frozenset(touched)
            elif event.kind == "copy":
                dst = substitute(event.dst, bindings)
                src = substitute(event.src, bindings)
                self._replay(event, loops=self._loops(), dst=dst, src=src)
                state.gpu_warm = (
                    state.gpu_warm | origins_of(dst) | origins_of(src)
                )
            # sync events are intra-function facts; not replayed.
        return substitute(summary.ret, bindings)


def compute_in_states(
    interp: _Interp, cfg: CFG, entry: AbsState
) -> Dict[int, AbsState]:
    """Worklist fixpoint: converged in-state per reached node.

    The iteration cap is a belt-and-braces guard; the lattice has
    finite height (origin sets bounded by allocation sites, numbers
    collapse to TOP on disagreement) and every transfer is monotone,
    so the worklist always drains — the property test in
    ``tests/test_advise_properties.py`` checks stability directly.
    """
    in_states: Dict[int, AbsState] = {cfg.entry: entry}
    worklist: List[int] = [cfg.entry]
    iterations = 0
    limit = 50 * (len(cfg.nodes) + 1)
    while worklist and iterations < limit:
        iterations += 1
        node_id = worklist.pop()
        out = interp.transfer(
            cfg.nodes[node_id], in_states[node_id].copy(), emit=False
        )
        for succ in cfg.succ[node_id]:
            if succ not in in_states:
                in_states[succ] = out.copy()
                worklist.append(succ)
            elif in_states[succ].merge(out):
                worklist.append(succ)
    return in_states


def analyze_function(
    qualname: str,
    body: Sequence[ast.stmt],
    params: Sequence[ast.arg],
    defaults: Dict[int, object],
    file: str,
    summaries: Dict[str, FunctionResult],
    globals_env: Optional[Dict[str, object]] = None,
) -> FunctionResult:
    """Run the fixpoint + emit passes over one function body."""
    result = FunctionResult(
        qualname=qualname,
        file=file,
        param_names=[p.arg for p in params],
        param_defaults=dict(defaults),
    )
    cfg = build_cfg(body)
    interp = _Interp(result, cfg, summaries)

    entry_env: Dict[str, object] = dict(globals_env or {})
    for i, p in enumerate(params):
        entry_env[p.arg] = ParamVal(i)

    in_states = compute_in_states(interp, cfg, AbsState(env=entry_env))
    result.exit_state = in_states.get(cfg.exit)

    # Emit pass: node ids are creation order, i.e. program order.
    result.ret = None  # recompute cleanly during emission
    for node_id in sorted(in_states):
        node = cfg.nodes[node_id]
        if node.kind in ("stmt", "header"):
            interp.transfer(node, in_states[node_id].copy(), emit=True)
    return result
