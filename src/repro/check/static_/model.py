"""The shared program model for the static analyzer.

One parse of the target module produces everything the four passes need:

- a **function table** (:class:`FuncInfo`) with lexical scope links, so
  closure variables resolve to the scope that defines them;
- a lexical **call graph** (``resolve_call``) over same-module functions
  (``self.meth`` resolves within the class, plain names up the scope
  chain);
- **thread regions** (:class:`Region`): every ``*.spawn(gen(...))`` /
  ``world.run_all([...])`` site, with instance multiplicity (a spawn
  inside a loop or comprehension means *many* concurrent instances) and
  a join window closed by ``all_of``/``run_all``;
- per-region **access lists** (:class:`Access`): request wait/test/
  cancel, point-to-point sends/receives with abstract (peer, tag)
  coordinates, collectives, RMA traffic and lock acquisitions — each
  annotated with the lockset held and whether a ``param == const`` guard
  restricts it to a single instance.

Everything here is deliberately *syntactic*: the model never imports or
executes the target, and identical source text always yields an
identical model (the determinism property the test suite checks).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

__all__ = [
    "AbstractVal", "Access", "FuncInfo", "ModuleModel", "Region",
    "build_model", "dotted",
    "REQUEST_OPS", "PARTITIONED_INIT", "WAIT_FUNCS", "COLLECTIVES",
    "ICOLLECTIVES", "RMA_OPS", "RMA_FLUSH", "RMA_LOCK", "BLOCKING_SENDS",
    "BLOCKING_RECVS",
]

# -- The modeled API surface (method/function names) ---------------------

#: Communicator methods returning a request.
REQUEST_OPS = frozenset({
    "Isend", "Issend", "Ibsend", "Irsend", "Irecv", "Imrecv",
    "Ibarrier", "Ibcast", "Iallreduce",
})

#: Module-level helpers returning a partitioned/persistent request.
PARTITIONED_INIT = frozenset({"psend_init", "precv_init"})
PERSISTENT_INIT = frozenset({"send_init", "recv_init"})

#: Request methods that complete (or may complete) the request.
REQ_WAIT_METHODS = frozenset({"wait", "test"})
REQ_CANCEL_METHODS = frozenset({"cancel"})

#: Free functions completing every request in their first argument.
WAIT_FUNCS = frozenset({"waitall", "waitany", "testall", "testany"})
START_FUNCS = frozenset({"startall"})

BLOCKING_SENDS = frozenset({"Send", "Ssend", "Bsend", "Rsend"})
BLOCKING_RECVS = frozenset({"Recv", "Mrecv", "Probe", "Iprobe", "Mprobe",
                            "Improbe"})

#: Blocking collectives (communicator methods).
COLLECTIVES = frozenset({
    "Barrier", "Bcast", "Reduce", "Allreduce", "Allgather", "Allgatherv",
    "Alltoall", "Gather", "Gatherv", "Scatter", "Scan",
    "Reduce_scatter_block",
})
ICOLLECTIVES = frozenset({"Ibarrier", "Ibcast", "Iallreduce"})

RMA_OPS = frozenset({"Put", "Get", "Accumulate", "Get_accumulate",
                     "Fetch_and_op", "Compare_and_swap"})
RMA_ATOMIC = frozenset({"Accumulate", "Get_accumulate", "Fetch_and_op",
                        "Compare_and_swap"})
RMA_FLUSH = frozenset({"Flush", "Flush_all", "Flush_local",
                       "Flush_local_all", "Unlock", "Unlock_all", "Fence"})
RMA_LOCK = frozenset({"Lock", "Lock_all"})

JOIN_NAMES = frozenset({"all_of", "run_all"})
SPAWN_NAMES = frozenset({"spawn"})
WILDCARDS = frozenset({"ANY_SOURCE", "ANY_TAG"})

LOCK_ACQUIRE = frozenset({"acquire"})
LOCK_RELEASE = frozenset({"release"})


def dotted(node: ast.AST) -> Optional[str]:
    """Render an attribute/name chain as a dotted path (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# -- Abstract values for channel coordinates -----------------------------

@dataclass(frozen=True)
class AbstractVal:
    """Abstract (peer, tag) coordinate: a known constant, a value that
    differs per thread-region instance (derived from a region/function
    parameter), or unknown."""

    kind: str  # "const" | "threaddep" | "unknown"
    value: object = None

    @property
    def is_const(self) -> bool:
        return self.kind == "const"


CONST_UNKNOWN = AbstractVal("unknown")
CONST_THREADDEP = AbstractVal("threaddep")


# -- Function table ------------------------------------------------------

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FuncInfo:
    """One function/method definition with its lexical scope links."""

    name: str
    qualname: str
    node: FuncNode
    parent: Optional["FuncInfo"]
    class_name: Optional[str]
    params: tuple[str, ...]
    #: Names bound by assignment/for/with targets inside this function.
    locals_: set[str] = field(default_factory=set)
    #: Nested function definitions visible by name from this scope.
    defs: dict[str, "FuncInfo"] = field(default_factory=dict)
    #: Local names assigned exactly once from a literal constant.
    consts: dict[str, object] = field(default_factory=dict)
    #: Local names assigned (anywhere) from a request-returning expression.
    request_vars: set[str] = field(default_factory=set)
    #: Local names assigned from a partitioned/persistent init.
    partitioned_vars: set[str] = field(default_factory=set)
    #: Summary: some ``return`` hands a request back to the caller.
    returns_request: bool = False
    #: Summary: parameter indices this function completes (wait/test/
    #: waitall) on some path, directly or through one callee level.
    waits_params: set[int] = field(default_factory=set)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FuncInfo {self.qualname}>"


@dataclass(frozen=True)
class SharedKey:
    """Identity of a variable as seen across scopes: the scope that
    defines it plus its name (``scope`` is ``<module>`` for globals,
    ``self.<Class>`` for instance attributes)."""

    scope: str
    name: str

    def describe(self) -> str:
        return (self.name if self.scope == "<module>"
                else f"{self.scope}:{self.name}")


@dataclass
class Access:
    """One modeled operation at a source location."""

    kind: str            # wait|test|cancel|send|recv|collective|icollective
    #                    # |rma|lock-acquire|lock-release|pready|parrived
    node: ast.AST
    func: "FuncInfo"     # lexical function containing the access
    obj: Optional[SharedKey] = None   # request/lock/window identity
    comm: Optional[str] = None        # dotted comm expression (display)
    #: Scope-qualified comm identity: equal ids mean provably the same
    #: communicator object across accesses.
    comm_id: Optional[str] = None
    comm_shared: bool = False         # comm not rooted at a region param
    peer: AbstractVal = CONST_UNKNOWN
    tag: AbstractVal = CONST_UNKNOWN
    wildcard_source: bool = False
    wildcard_tag: bool = False
    op: str = ""                      # API name (Isend, Allreduce, Put...)
    locks: frozenset[str] = frozenset()
    guarded: bool = False             # under a `param == const` guard
    #: Branch context: (If-node id, arm) pairs; sibling arms of one If
    #: are mutually exclusive.
    branches: tuple[tuple[int, str], ...] = ()

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)

    @property
    def col(self) -> int:
        return getattr(self.node, "col_offset", 0) + 1


@dataclass
class Region:
    """One thread-region instance group: a spawn site and the function
    whose body runs as the simulated thread."""

    func: FuncInfo
    spawner: Optional[FuncInfo]       # None: spawned at module level
    spawn_node: ast.AST
    index: int                        # ordinal among the module's regions
    many: bool                        # spawned in a loop/comprehension
    start_pos: int                    # traversal position of the spawn
    end_pos: int                      # position of the closing join (or
    #                                 # a sentinel past the function end)
    spawn_base: Optional[str]         # dotted spawner object (proc, sim)
    accesses: list[Access] = field(default_factory=list)

    @property
    def line(self) -> int:
        return getattr(self.spawn_node, "lineno", 1)

    def concurrent_with(self, other: "Region") -> bool:
        """Whether instances of ``self`` and ``other`` can be live at the
        same time: both windows open simultaneously in one spawner."""
        if self.spawner is not other.spawner:
            return False
        return (self.start_pos < other.end_pos
                and other.start_pos < self.end_pos)


def _branch_compatible(a: tuple[tuple[int, str], ...],
                       b: tuple[tuple[int, str], ...]) -> bool:
    """False when the two contexts sit in sibling arms of one If."""
    arms_a = dict(a)
    for if_id, arm in b:
        if if_id in arms_a and arms_a[if_id] != arm:
            return False
    return True


# -- Module model --------------------------------------------------------

class ModuleModel:
    """The parsed module plus everything the passes share."""

    def __init__(self, tree: ast.Module, path: str):
        self.tree = tree
        self.path = path
        self.functions: dict[str, FuncInfo] = {}
        self.by_node: dict[int, FuncInfo] = {}
        #: Module-level defs visible from everywhere.
        self.module_defs: dict[str, FuncInfo] = {}
        self.module_consts: dict[str, object] = {}
        self.module_locals: set[str] = set()
        self.regions: list[Region] = []
        #: SharedKeys known to hold requests (assigned from request ops).
        self.request_keys: set[SharedKey] = set()
        #: Per-scope linear access lists (scope qualname -> positioned
        #: accesses); ``None`` keys the module body.
        self.spawner_accesses: dict[Optional[str],
                                    list[tuple[int, Access]]] = {}
        _Builder(self).build()
        _summarize(self)
        _find_regions(self)

    # -- scope/lookup helpers -------------------------------------------

    def resolve_call(self, call: ast.Call,
                     scope: Optional[FuncInfo]) -> Optional[FuncInfo]:
        """Resolve a call expression to a same-module function, walking
        the lexical scope chain (``self.meth`` resolves in-class)."""
        fn = call.func
        if isinstance(fn, ast.Name):
            cur = scope
            while cur is not None:
                if fn.id in cur.defs:
                    return cur.defs[fn.id]
                cur = cur.parent
            return self.module_defs.get(fn.id)
        if isinstance(fn, ast.Attribute) and \
                isinstance(fn.value, ast.Name) and fn.value.id == "self" \
                and scope is not None and scope.class_name is not None:
            return self.functions.get(f"{scope.class_name}.{fn.attr}")
        return None

    def defining_scope(self, name: str,
                       scope: Optional[FuncInfo]) -> Optional[str]:
        """Qualname of the scope that binds ``name`` (or ``<module>``)."""
        cur = scope
        while cur is not None:
            if name in cur.params or name in cur.locals_ \
                    or name in cur.defs:
                return cur.qualname
            cur = cur.parent
        if name in self.module_locals or name in self.module_defs:
            return "<module>"
        return None

    def shared_key(self, expr: ast.AST,
                   scope: Optional[FuncInfo]) -> Optional[SharedKey]:
        """Identity of ``expr`` as a cross-scope variable, when it has
        one: a plain name (keyed by defining scope) or ``self.attr``."""
        if isinstance(expr, ast.Name):
            where = self.defining_scope(expr.id, scope)
            if where is None:
                return None
            return SharedKey(where, expr.id)
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self" and scope is not None \
                and scope.class_name is not None:
            return SharedKey(f"self.{scope.class_name}", expr.attr)
        return None

    def is_param_of(self, name: str, func: Optional[FuncInfo]) -> bool:
        return func is not None and name in func.params

    def abstract(self, expr: Optional[ast.AST], scope: Optional[FuncInfo],
                 region_func: Optional[FuncInfo]) -> AbstractVal:
        """Abstract value of a (peer or tag) expression."""
        if expr is None:
            return CONST_UNKNOWN
        if isinstance(expr, ast.Constant):
            return AbstractVal("const", expr.value)
        if isinstance(expr, ast.UnaryOp) \
                and isinstance(expr.op, ast.USub) \
                and isinstance(expr.operand, ast.Constant) \
                and isinstance(expr.operand.value, (int, float)):
            return AbstractVal("const", -expr.operand.value)
        if isinstance(expr, ast.Name):
            if self.is_param_of(expr.id, scope) \
                    or self.is_param_of(expr.id, region_func):
                return CONST_THREADDEP
            cur = scope
            while cur is not None:
                if expr.id in cur.consts:
                    return AbstractVal("const", cur.consts[expr.id])
                if expr.id in cur.locals_ or expr.id in cur.params:
                    return CONST_UNKNOWN
                cur = cur.parent
            if expr.id in self.module_consts:
                return AbstractVal("const", self.module_consts[expr.id])
            return CONST_UNKNOWN
        # Any parameter occurring anywhere in the expression makes the
        # value thread-dependent (tid * 2, tag_of(tid), tags[tid], ...).
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) \
                    and (self.is_param_of(sub.id, scope)
                         or self.is_param_of(sub.id, region_func)):
                return CONST_THREADDEP
        return CONST_UNKNOWN


def is_wildcard(expr: Optional[ast.AST]) -> bool:
    """ANY_SOURCE/ANY_TAG by bare or dotted name."""
    if expr is None:
        return False
    if isinstance(expr, ast.Name):
        return expr.id in WILDCARDS
    if isinstance(expr, ast.Attribute):
        return expr.attr in WILDCARDS
    return False


def _request_call_name(value: ast.AST) -> Optional[str]:
    """API name when ``value`` is ``[yield from] <expr>.<ReqOp>(...)`` or
    ``[yield from] <init_helper>(...)``."""
    if isinstance(value, (ast.Await, ast.YieldFrom)):
        value = value.value
    if not isinstance(value, ast.Call):
        return None
    fn = value.func
    if isinstance(fn, ast.Attribute) and fn.attr in (
            REQUEST_OPS | PARTITIONED_INIT | PERSISTENT_INIT):
        return fn.attr
    if isinstance(fn, ast.Name) and fn.id in (
            PARTITIONED_INIT | PERSISTENT_INIT):
        return fn.id
    return None


# -- Pass 1: build the function table ------------------------------------

class _Builder(ast.NodeVisitor):
    """Collect functions, scopes, locals, and constant bindings."""

    def __init__(self, model: ModuleModel):
        self.model = model
        self.scope: Optional[FuncInfo] = None
        self.class_stack: list[str] = []
        self._assign_counts: dict[tuple[Optional[str], str], int] = {}

    def build(self) -> None:
        self.visit(self.model.tree)

    # -- scope management ---------------------------------------------

    def _enter_function(self, node: FuncNode) -> FuncInfo:
        args = node.args
        params = tuple(
            a.arg for a in (list(args.posonlyargs) + list(args.args)
                            + list(args.kwonlyargs))
            if a.arg not in ("self", "cls"))
        class_name = self.class_stack[-1] if self.class_stack else None
        if self.scope is not None:
            qual = f"{self.scope.qualname}.{node.name}"
        elif class_name is not None:
            qual = f"{class_name}.{node.name}"
        else:
            qual = node.name
        info = FuncInfo(node.name, qual, node, self.scope, class_name,
                        params)
        self.model.functions[qual] = info
        self.model.by_node[id(node)] = info
        if self.scope is not None:
            self.scope.defs[node.name] = info
        elif not self.class_stack:
            self.model.module_defs[node.name] = info
        return info

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function(node)

    def _function(self, node: FuncNode) -> None:
        info = self._enter_function(node)
        outer, self.scope = self.scope, info
        for child in node.body:
            self.visit(child)
        self.scope = outer

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Collect methods under their qualified class name."""
        self.class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self.class_stack.pop()

    # -- bindings -------------------------------------------------------

    def _bind(self, name: str, value: Optional[ast.AST]) -> None:
        if self.scope is not None:
            self.scope.locals_.add(name)
        else:
            self.model.module_locals.add(name)
        scope_name = self.scope.qualname if self.scope else None
        key = (scope_name, name)
        self._assign_counts[key] = self._assign_counts.get(key, 0) + 1
        consts = (self.scope.consts if self.scope
                  else self.model.module_consts)
        if value is not None and isinstance(value, ast.Constant) \
                and self._assign_counts[key] == 1:
            consts[name] = value.value
        else:
            consts.pop(name, None)
        if value is not None:
            op = _request_call_name(value)
            if op is not None and self.scope is not None:
                self.scope.request_vars.add(name)
                if op in (PARTITIONED_INIT | PERSISTENT_INIT):
                    self.scope.partitioned_vars.add(name)

    def _bind_target(self, target: ast.AST,
                     value: Optional[ast.AST]) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, None)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        """Record name bindings for provenance resolution."""
        for target in node.targets:
            self._bind_target(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind_target(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._bind_target(node.target, None)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._bind_target(node.target, None)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        """Record ``with ... as name`` bindings."""
        for item in node.items:
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars, None)
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._bind_target(node.target, node.value)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._bind_target(node.target, None)
        self.generic_visit(node)


# -- Pass 2: function summaries ------------------------------------------

def _summarize(model: ModuleModel) -> None:
    """Two bounded rounds of summary propagation over the call graph:
    which functions return requests, and which complete their params."""
    for _ in range(2):
        changed = False
        for info in model.functions.values():
            changed |= _summarize_one(model, info)
        if not changed:
            break


def _summarize_one(model: ModuleModel, info: FuncInfo) -> bool:
    changed = False
    for node in ast.walk(info.node):
        # Nested defs are walked on their own; skip their bodies here.
        if isinstance(node, ast.Return) and node.value is not None:
            val = node.value
            if _request_call_name(val) is not None:
                if not info.returns_request:
                    info.returns_request = changed = True
            elif isinstance(val, ast.Name) \
                    and val.id in info.request_vars \
                    and not info.returns_request:
                info.returns_request = changed = True
            elif isinstance(val, (ast.Await, ast.YieldFrom)) \
                    and isinstance(val.value, ast.Call):
                callee = model.resolve_call(val.value, info)
                if callee is not None and callee.returns_request \
                        and not info.returns_request:
                    info.returns_request = changed = True
        if isinstance(node, ast.Call):
            changed |= _note_param_wait(model, info, node)
    # Propagate request-ness through `x = [yield from] helper(...)`.
    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            val: ast.AST = node.value
            if isinstance(val, (ast.Await, ast.YieldFrom)):
                val = val.value
            if isinstance(val, ast.Call):
                callee = model.resolve_call(val, info)
                if callee is not None and callee.returns_request \
                        and node.targets[0].id not in info.request_vars:
                    info.request_vars.add(node.targets[0].id)
                    changed = True
    return changed


def _note_param_wait(model: ModuleModel, info: FuncInfo,
                     call: ast.Call) -> bool:
    """Record params of ``info`` completed by this call site."""
    changed = False

    def mark(name: str) -> None:
        nonlocal changed
        if name in info.params:
            idx = info.params.index(name)
            if idx not in info.waits_params:
                info.waits_params.add(idx)
                changed = True

    fn = call.func
    if isinstance(fn, ast.Attribute) and fn.attr in (
            REQ_WAIT_METHODS | REQ_CANCEL_METHODS) \
            and isinstance(fn.value, ast.Name):
        mark(fn.value.id)
    name_of = fn.id if isinstance(fn, ast.Name) else (
        fn.attr if isinstance(fn, ast.Attribute) else None)
    if name_of in WAIT_FUNCS and call.args:
        first = call.args[0]
        if isinstance(first, ast.Name):
            mark(first.id)
        elif isinstance(first, (ast.List, ast.Tuple)):
            for elt in first.elts:
                if isinstance(elt, ast.Name):
                    mark(elt.id)
    # One level of interprocedural propagation through resolved callees.
    callee = model.resolve_call(call, info)
    if callee is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Name) and i in callee.waits_params:
                mark(arg.id)
    return changed


# -- Pass 3: regions and their windows -----------------------------------

def _spawned_func(model: ModuleModel, call: ast.Call,
                  scope: Optional[FuncInfo]) -> Optional[FuncInfo]:
    """The function whose generator is passed to a spawn call."""
    if not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Call):
        return model.resolve_call(arg, scope)
    return None


class _RegionFinder(ast.NodeVisitor):
    """Linear source-order walk of one function (or the module body)
    collecting spawn/join events and the scope's own modeled accesses."""

    def __init__(self, model: ModuleModel, scope: Optional[FuncInfo]):
        self.model = model
        self.scope = scope
        self.pos = 0
        self.loop_depth = 0
        self.branches: list[tuple[int, str]] = []
        self.locks: list[str] = []
        self.guard_depth = 0
        self.open_regions: list[Region] = []
        self.events: list[tuple[str, object]] = []
        self.accesses: list[tuple[int, Access]] = []

    def run(self) -> None:
        """Scan the scope body, building regions and access lists."""
        body = (self.scope.node.body if self.scope is not None
                else self.model.tree.body)
        for stmt in body:
            self.visit(stmt)
        self._close_open(self.pos + 1)

    def _close_open(self, pos: int) -> None:
        for region in self.open_regions:
            region.end_pos = pos
        self.open_regions = []

    # Do not descend into nested function/class definitions: they run
    # in their own frame and are modeled separately.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return

    def visit_If(self, node: ast.If) -> None:
        """Track rank guards so branch accesses are marked guarded."""
        self.pos += 1
        self.visit(node.test)
        guarded = self._is_instance_guard(node.test)
        self.branches.append((id(node), "body"))
        if guarded:
            self.guard_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if guarded:
            self.guard_depth -= 1
        self.branches[-1] = (id(node), "orelse")
        for stmt in node.orelse:
            self.visit(stmt)
        self.branches.pop()

    def _is_instance_guard(self, test: ast.AST) -> bool:
        """``param == const`` limits the guarded block to one instance
        of a multi-instance region."""
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)):
            return False
        left, right = test.left, test.comparators[0]
        for a, b in ((left, right), (right, left)):
            if isinstance(a, ast.Name) and isinstance(b, ast.Constant) \
                    and self.model.is_param_of(a.id, self.scope):
                return True
            if isinstance(a, ast.Call) and isinstance(b, ast.Constant):
                # e.g. `self.geom.linear_tid(t) == 0`: any call of a
                # param keeps the completion on a single instance.
                if any(isinstance(x, ast.Name)
                       and self.model.is_param_of(x.id, self.scope)
                       for x in ast.walk(a)):
                    return True
        return False

    def _loop(self, node: ast.AST, body: list[ast.stmt],
              orelse: list[ast.stmt]) -> None:
        self.pos += 1
        self.loop_depth += 1
        for stmt in body:
            self.visit(stmt)
        self.loop_depth -= 1
        for stmt in orelse:
            self.visit(stmt)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._loop(node, node.body, node.orelse)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._loop(node, node.body, node.orelse)

    # -- calls: spawns, joins, locks, comm accesses ---------------------

    def visit_Call(self, node: ast.Call) -> None:
        """Classify one call site: spawn, join, lock or MPI access."""
        self.pos += 1
        fn = node.func
        attr = fn.attr if isinstance(fn, ast.Attribute) else None
        name = fn.id if isinstance(fn, ast.Name) else None
        in_comp = self.loop_depth > 0

        if attr in SPAWN_NAMES:
            target = _spawned_func(self.model, node, self.scope)
            if target is not None:
                base = dotted(fn.value) if isinstance(fn, ast.Attribute) \
                    else None
                region = Region(
                    func=target, spawner=self.scope, spawn_node=node,
                    index=len(self.model.regions), many=in_comp,
                    start_pos=self.pos, end_pos=1 << 30, spawn_base=base)
                self.model.regions.append(region)
                self.open_regions.append(region)
        elif (attr in JOIN_NAMES) or (name in JOIN_NAMES):
            if attr == "run_all" or name == "run_all":
                self._run_all(node)
            self._close_open(self.pos)
        else:
            self._record_access(node, attr, name)
        self.generic_visit(node)

    def _run_all(self, node: ast.Call) -> None:
        """``world.run_all([f1(...), f2(...)])`` spawns and joins."""
        if not node.args:
            return
        arg = node.args[0]
        elts = arg.elts if isinstance(arg, (ast.List, ast.Tuple)) else []
        many = isinstance(arg, (ast.ListComp, ast.GeneratorExp))
        targets: list[Optional[FuncInfo]] = []
        if many and isinstance(arg, (ast.ListComp, ast.GeneratorExp)) \
                and isinstance(arg.elt, ast.Call):
            targets = [self.model.resolve_call(arg.elt, self.scope)]
        for elt in elts:
            if isinstance(elt, ast.Call):
                targets.append(self.model.resolve_call(elt, self.scope))
        for target in targets:
            if target is None:
                continue
            region = Region(
                func=target, spawner=self.scope, spawn_node=node,
                index=len(self.model.regions), many=many,
                start_pos=self.pos, end_pos=self.pos + 1, spawn_base=None)
            self.model.regions.append(region)

    def _comm_of(self, fn: ast.Attribute) -> tuple[Optional[str],
                                                   Optional[str], bool]:
        """Display name, scope-qualified identity and sharedness of the
        communicator expression. A comm rooted at a parameter or a local
        of the accessing function is per-instance (each spawned frame
        sees its own object) — only closure/module/self-rooted comms are
        provably shared across concurrent instances."""
        comm = dotted(fn.value)
        if comm is None:
            return None, None, False
        root = comm.split(".", 1)[0]
        scope_name = (self.scope.qualname if self.scope is not None
                      else "<module>")
        if self.model.is_param_of(root, self.scope):
            return comm, f"{scope_name}:{comm}", False
        where = self.model.defining_scope(root, self.scope)
        if where is None:
            # Unresolved (self.*, imported names): shared by dotted path.
            return comm, f"<extern>:{comm}", True
        if self.scope is not None and where == scope_name:
            # Local of the accessing function: per-instance.
            return comm, f"{where}:{comm}", False
        return comm, f"{where}:{comm}", True

    def _kw(self, node: ast.Call, name: str,
            pos: int) -> Optional[ast.AST]:
        for kw in node.keywords:
            if kw.arg == name:
                return kw.value
        if len(node.args) > pos:
            return node.args[pos]
        return None

    def _add(self, acc: Access) -> None:
        acc.locks = frozenset(self.locks)
        acc.guarded = self.guard_depth > 0
        acc.branches = tuple(self.branches)
        self.accesses.append((self.pos, acc))

    def _record_access(self, node: ast.Call, attr: Optional[str],
                       name: Optional[str]) -> None:
        model, scope = self.model, self.scope
        fn = node.func
        if attr is not None and isinstance(fn, ast.Attribute):
            base = fn.value
            if attr in (REQ_WAIT_METHODS | REQ_CANCEL_METHODS
                        | {"pready", "parrived", "start"}):
                key = model.shared_key(base, scope)
                kind = ("cancel" if attr in REQ_CANCEL_METHODS else
                        "pready" if attr == "pready" else
                        "parrived" if attr == "parrived" else
                        "start" if attr == "start" else attr)
                if key is not None:
                    self._add(Access(kind, node, scope_or_module(scope),
                                     obj=key, op=attr))
                return
            if attr in LOCK_ACQUIRE | LOCK_RELEASE:
                lock = dotted(base)
                if lock is not None:
                    if attr in LOCK_ACQUIRE:
                        self._add(Access("lock-acquire", node,
                                         scope_or_module(scope),
                                         obj=SharedKey("<lock>", lock),
                                         op=attr))
                        self.locks.append(lock)
                    else:
                        self._add(Access("lock-release", node,
                                         scope_or_module(scope),
                                         obj=SharedKey("<lock>", lock),
                                         op=attr))
                        if lock in self.locks:
                            self.locks.remove(lock)
                return
            if attr in REQUEST_OPS | BLOCKING_SENDS | BLOCKING_RECVS:
                comm, comm_id, shared = self._comm_of(fn)
                is_recv = "recv" in attr.lower() or "probe" in attr.lower()
                peer_idx, tag_idx = (1, 2)
                if attr in ("Probe", "Iprobe", "Mprobe", "Improbe"):
                    peer_idx, tag_idx = (0, 1)
                peer_expr = self._kw(node, "source" if is_recv else "dest",
                                     peer_idx)
                tag_expr = self._kw(node, "tag", tag_idx)
                if attr in ("Ibarrier", "Ibcast", "Iallreduce"):
                    self._add(Access("icollective", node,
                                     scope_or_module(scope), comm=comm,
                                     comm_id=comm_id,
                                     comm_shared=shared, op=attr))
                    return
                self._add(Access(
                    "recv" if is_recv else "send", node,
                    scope_or_module(scope), comm=comm, comm_id=comm_id,
                    comm_shared=shared,
                    peer=model.abstract(peer_expr, scope, scope),
                    tag=model.abstract(tag_expr, scope, scope),
                    wildcard_source=is_recv and is_wildcard(peer_expr),
                    wildcard_tag=is_wildcard(tag_expr), op=attr))
                return
            if attr in COLLECTIVES:
                comm, comm_id, shared = self._comm_of(fn)
                self._add(Access("collective", node,
                                 scope_or_module(scope), comm=comm,
                                 comm_id=comm_id,
                                 comm_shared=shared, op=attr))
                return
            if attr in RMA_OPS | RMA_FLUSH | RMA_LOCK:
                key = model.shared_key(base, scope)
                kind = ("rma" if attr in RMA_OPS else
                        "rma-flush" if attr in RMA_FLUSH else "rma-lock")
                # Data ops take (buf, target=, disp=); epoch/flush ops
                # (Lock/Unlock/Flush) take the target as their sole
                # positional argument.
                t_idx = 1 if attr in RMA_OPS else 0
                target = model.abstract(self._kw(node, "target", t_idx),
                                        scope, scope)
                disp = model.abstract(self._kw(node, "disp", 2),
                                      scope, scope)
                self._add(Access(kind, node, scope_or_module(scope),
                                 obj=key, op=attr, peer=target, tag=disp))
                return
            if attr == "Test" and node.args:
                key = model.shared_key(node.args[0], scope)
                if key is not None:
                    self._add(Access("test", node, scope_or_module(scope),
                                     obj=key, op="Test"))
                return
        if name in WAIT_FUNCS or attr in WAIT_FUNCS:
            first = node.args[0] if node.args else None
            targets: list[ast.AST] = []
            if isinstance(first, ast.Name):
                targets = [first]
            elif isinstance(first, (ast.List, ast.Tuple)):
                targets = list(first.elts)
            for t in targets:
                key = model.shared_key(t, scope)
                if key is not None:
                    self._add(Access("wait", node, scope_or_module(scope),
                                     obj=key, op=name or attr or ""))
            return


_MODULE_SENTINEL: Optional[FuncInfo] = None


def scope_or_module(scope: Optional[FuncInfo]) -> FuncInfo:
    """A real FuncInfo for accesses at module level (sentinel scope)."""
    global _MODULE_SENTINEL
    if scope is not None:
        return scope
    if _MODULE_SENTINEL is None:
        node = ast.parse("def _module_(): pass").body[0]
        assert isinstance(node, ast.FunctionDef)
        _MODULE_SENTINEL = FuncInfo("<module>", "<module>", node, None,
                                    None, ())
    return _MODULE_SENTINEL


def _find_regions(model: ModuleModel) -> None:
    """Run the linear walk over every scope, then attribute accesses to
    regions (the region function plus its resolved callees)."""
    walks: dict[Optional[str], _RegionFinder] = {}
    finder = _RegionFinder(model, None)
    finder.run()
    walks[None] = finder
    for info in model.functions.values():
        f = _RegionFinder(model, info)
        f.run()
        walks[info.qualname] = f
    # Request-typed shared keys.
    for info in model.functions.values():
        for name in info.request_vars:
            model.request_keys.add(SharedKey(info.qualname, name))
    # Attach accesses: the region's own function plus callees (bounded
    # transitive closure over the same-module call graph).
    for region in model.regions:
        seen: set[str] = set()
        frontier = [region.func]
        depth = 0
        while frontier and depth < 4:
            nxt: list[FuncInfo] = []
            for func in frontier:
                if func.qualname in seen:
                    continue
                seen.add(func.qualname)
                walk = walks.get(func.qualname)
                if walk is None:
                    continue
                region.accesses.extend(a for _, a in walk.accesses)
                for node in ast.walk(func.node):
                    if isinstance(node, ast.Call):
                        callee = model.resolve_call(node, func)
                        if callee is not None \
                                and callee.qualname not in seen:
                            nxt.append(callee)
            frontier = nxt
            depth += 1
    # Spawner-side accesses inside each region's open window race with
    # the region exactly like a sibling region would.
    for qual, walk in walks.items():
        model.spawner_accesses[qual] = walk.accesses


def build_model(source: str, path: str = "<string>") -> ModuleModel:
    """Parse ``source`` and build the full program model."""
    tree = ast.parse(source, filename=path)
    return ModuleModel(tree, path)
