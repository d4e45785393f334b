"""The shared program model for the static analyzer.

One parse of the target module produces everything the four passes need:

- the **modeled API** (:data:`API`): each recognised name mapped to its
  kind, matched at a call site by the one function :func:`api_call`;
- a **scope table** (:class:`FuncInfo`) with lexical links. The module
  body is the root scope (``ModuleModel.root``) and the last link of
  every chain, so closure and module variables resolve to the scope that
  binds them;
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
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

__all__ = [
    "API", "AbstractVal", "Access", "FuncInfo", "ModuleModel", "Region",
    "api_call", "build_model", "call_targets", "dotted", "own_nodes",
    "unwrap",
]

# -- The modeled API surface ---------------------------------------------

#: Every recognised name -> its kind. The passes dispatch on the kind;
#: the kinds of modeled accesses double as :attr:`Access.kind`.
API: dict[str, str] = {
    "Isend": "request", "Irecv": "request",
    "psend_init": "partitioned", "precv_init": "partitioned",
    "send_init": "persistent", "recv_init": "persistent",
    "Send": "blocking", "Recv": "blocking",
    "wait": "wait", "test": "test", "cancel": "cancel", "start": "start",
    "pready": "pready", "parrived": "parrived", "Test": "Test",
    "waitall": "waitall", "startall": "startall",
    "Barrier": "collective", "Allreduce": "collective",
    "Put": "rma", "Get": "rma", "Accumulate": "rma",
    "Flush": "rma-flush", "Flush_all": "rma-flush", "Unlock": "rma-flush",
    "Lock": "rma-lock",
    "acquire": "lock-acquire", "release": "lock-release",
    "spawn": "spawn", "all_of": "join", "run_all": "join",
    "win_create": "window", "Dup": "dup", "Split": "split",
    "comm_create_endpoints": "endpoints",
    "comm_create_rankpoints": "endpoints",
}

#: Names that match as a bare call ``name(...)`` as well as
#: ``expr.name(...)``; every other API name matches only as a method.
FUNCTIONS = frozenset({
    "psend_init", "precv_init", "send_init", "recv_init", "waitall",
    "startall", "all_of", "run_all", "win_create",
    "comm_create_endpoints", "comm_create_rankpoints"})

#: Kinds whose call hands a request back.
REQUEST_KINDS = ("request", "partitioned", "persistent")

WILDCARDS = frozenset({"ANY_SOURCE", "ANY_TAG"})


def unwrap(node: Optional[ast.AST]) -> Optional[ast.AST]:
    """The operand of ``yield from``/``await``; any other node itself."""
    if isinstance(node, (ast.Await, ast.YieldFrom)):
        return node.value
    return node


def api_call(node: Optional[ast.AST]) -> tuple[str, str]:
    """``(name, kind)`` of the modeled API call ``node`` makes, looking
    through ``yield from``/``await``; ``("", "")`` when it makes none."""
    node = unwrap(node)
    if not isinstance(node, ast.Call):
        return "", ""
    fn = node.func
    if isinstance(fn, ast.Attribute):
        name = fn.attr
    elif isinstance(fn, ast.Name) and fn.id in FUNCTIONS:
        name = fn.id
    else:
        return "", ""
    kind = API.get(name)
    return (name, kind) if kind is not None else ("", "")


def call_targets(call: ast.Call) -> list[ast.expr]:
    """The requests a ``waitall``/``startall`` call names: its first
    argument when that is a name, else the elements of that list/tuple
    literal."""
    first = call.args[0] if call.args else None
    if isinstance(first, (ast.List, ast.Tuple)):
        return list(first.elts)
    return [first] if isinstance(first, ast.Name) else []


def dotted(node: Optional[ast.AST]) -> Optional[str]:
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


# -- Scope table ---------------------------------------------------------

ScopeNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Module]
_FRAMES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class FuncInfo:
    """One scope: a function/method definition, or the module body (the
    root, ``<module>``), with its lexical scope links."""

    qualname: str
    node: ScopeNode
    parent: Optional["FuncInfo"]      # None only for the root
    class_name: Optional[str]
    params: tuple[str, ...]
    #: Names bound by assignment/for/with targets inside this scope.
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

    def chain(self) -> Iterator["FuncInfo"]:
        """This scope, then each enclosing one, ending at the root."""
        cur: Optional[FuncInfo] = self
        while cur is not None:
            yield cur
            cur = cur.parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FuncInfo {self.qualname}>"


def own_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` order over ``node``, not entering nested function or
    class definitions (they run in frames of their own)."""
    todo = deque([node])
    while todo:
        cur = todo.popleft()
        todo.extend(child for child in ast.iter_child_nodes(cur)
                    if not isinstance(child, _FRAMES))
        yield cur


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

    kind: str            # wait|test|cancel|send|recv|collective|rma
    #                    # |lock-acquire|lock-release|pready|parrived
    node: ast.AST
    func: FuncInfo       # lexical scope containing the access
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
    spawner: FuncInfo                 # the scope holding the spawn site
    index: int                        # ordinal among the module's regions
    many: bool                        # spawned in a loop/comprehension
    start_pos: int                    # traversal position of the spawn
    end_pos: int                      # position of the closing join (or
    #                                 # a sentinel past the function end)
    accesses: list[Access] = field(default_factory=list)

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
        #: The module body: the root scope, never one of ``functions``.
        self.root = FuncInfo("<module>", tree, None, None, ())
        self.functions: dict[str, FuncInfo] = {}
        self.regions: list[Region] = []
        #: SharedKeys known to hold requests (assigned from request ops).
        self.request_keys: set[SharedKey] = set()
        #: Per-scope linear access lists (scope qualname -> positioned
        #: accesses), the module body first.
        self.spawner_accesses: dict[str, list[tuple[int, Access]]] = {}
        _Builder(self).visit(tree)
        _summarize(self)
        _find_regions(self)

    # -- scope/lookup helpers -------------------------------------------

    def resolve_call(self, call: ast.Call,
                     scope: FuncInfo) -> Optional[FuncInfo]:
        """Resolve a call expression to a same-module function, walking
        the lexical scope chain (``self.meth`` resolves in-class)."""
        fn = call.func
        if isinstance(fn, ast.Name):
            return next((cur.defs[fn.id] for cur in scope.chain()
                         if fn.id in cur.defs), None)
        if isinstance(fn, ast.Attribute) and \
                isinstance(fn.value, ast.Name) and fn.value.id == "self" \
                and scope.class_name is not None:
            return self.functions.get(f"{scope.class_name}.{fn.attr}")
        return None

    def defining_scope(self, name: str,
                       scope: FuncInfo) -> Optional[FuncInfo]:
        """The scope on ``scope``'s chain that binds ``name``, if any."""
        return next((cur for cur in scope.chain()
                     if name in cur.params or name in cur.locals_
                     or name in cur.defs), None)

    def shared_key(self, expr: Optional[ast.AST],
                   scope: FuncInfo) -> Optional[SharedKey]:
        """Identity of ``expr`` as a cross-scope variable, when it has
        one: a plain name (keyed by defining scope) or ``self.attr``."""
        if isinstance(expr, ast.Name):
            where = self.defining_scope(expr.id, scope)
            return None if where is None else SharedKey(where.qualname,
                                                        expr.id)
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self" \
                and scope.class_name is not None:
            return SharedKey(f"self.{scope.class_name}", expr.attr)
        return None

    def comm_identity(self, comm: str, scope: FuncInfo) -> tuple[str, bool]:
        """Scope-qualified identity of the dotted communicator ``comm``
        used in ``scope``, and whether it is shared. A comm rooted at a
        parameter or a local of a function is per-instance (each spawned
        frame sees its own object); closure, module and unresolved
        (``self.*``, imported) comms are shared across instances."""
        root = comm.split(".", 1)[0]
        if root in scope.params:
            return f"{scope.qualname}:{comm}", False
        where = self.defining_scope(root, scope)
        if where is None:
            return f"<extern>:{comm}", True
        return (f"{where.qualname}:{comm}",
                where is not scope or scope is self.root)

    def abstract(self, expr: Optional[ast.AST],
                 scope: FuncInfo) -> AbstractVal:
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
        if isinstance(expr, ast.Name) and expr.id not in scope.params:
            for cur in scope.chain():
                if expr.id in cur.consts:
                    return AbstractVal("const", cur.consts[expr.id])
                if expr.id in cur.locals_ or expr.id in cur.params:
                    return CONST_UNKNOWN
            return CONST_UNKNOWN
        # A parameter anywhere in the expression (itself included) makes
        # the value thread-dependent (tid, tid * 2, tag_of(tid), ...).
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and sub.id in scope.params:
                return CONST_THREADDEP
        return CONST_UNKNOWN


def is_wildcard(expr: Optional[ast.AST]) -> bool:
    """ANY_SOURCE/ANY_TAG by bare or dotted name."""
    if isinstance(expr, ast.Name):
        return expr.id in WILDCARDS
    if isinstance(expr, ast.Attribute):
        return expr.attr in WILDCARDS
    return False


# -- Pass 1: build the scope table ---------------------------------------

class _Builder(ast.NodeVisitor):
    """Collect functions, scopes, locals, and constant bindings."""

    def __init__(self, model: ModuleModel):
        self.model = model
        self.scope = model.root
        self.class_stack: list[str] = []
        self._assign_counts: dict[tuple[str, str], int] = {}

    # -- scope management ---------------------------------------------

    def _function(self, node: Union[ast.FunctionDef,
                                    ast.AsyncFunctionDef]) -> None:
        args = node.args
        params = tuple(
            a.arg for a in (list(args.posonlyargs) + list(args.args)
                            + list(args.kwonlyargs))
            if a.arg not in ("self", "cls"))
        class_name = self.class_stack[-1] if self.class_stack else None
        outer = self.scope
        if outer is not self.model.root:
            qual = f"{outer.qualname}.{node.name}"
        elif class_name is not None:
            qual = f"{class_name}.{node.name}"
        else:
            qual = node.name
        info = FuncInfo(qual, node, outer, class_name, params)
        self.model.functions[qual] = info
        # A method of a module-level class is reached through self only.
        if outer is not self.model.root or class_name is None:
            outer.defs[node.name] = info
        self.scope = info
        for child in node.body:
            self.visit(child)
        self.scope = outer

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Collect methods under their qualified class name."""
        self.class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self.class_stack.pop()

    # -- bindings -------------------------------------------------------

    def _bind(self, name: str, value: Optional[ast.AST]) -> None:
        scope = self.scope
        scope.locals_.add(name)
        key = (scope.qualname, name)
        count = self._assign_counts[key] = self._assign_counts.get(key, 0) + 1
        if isinstance(value, ast.Constant) and count == 1:
            scope.consts[name] = value.value
        else:
            scope.consts.pop(name, None)
        kind = api_call(value)[1]
        if kind in REQUEST_KINDS:
            scope.request_vars.add(name)
            if kind != "request":
                scope.partitioned_vars.add(name)

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
    """One round over ``info``'s own nodes: a nested def's ``return``
    and calls belong to that def's summary, not to this one."""
    changed = False
    nodes = list(own_nodes(info.node))
    for node in nodes:
        if isinstance(node, ast.Return) and node.value is not None \
                and not info.returns_request:
            val, call = node.value, unwrap(node.value)
            callee = (model.resolve_call(call, info)
                      if val is not call and isinstance(call, ast.Call)
                      else None)
            if api_call(val)[1] in REQUEST_KINDS \
                    or (isinstance(val, ast.Name)
                        and val.id in info.request_vars) \
                    or (callee is not None and callee.returns_request):
                info.returns_request = changed = True
        if isinstance(node, ast.Call):
            changed |= _note_param_wait(model, info, node)
    # Propagate request-ness through `x = [yield from] helper(...)`.
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            val = unwrap(node.value)
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

    kind = api_call(call)[1]
    fn = call.func
    if kind in ("wait", "test", "cancel") \
            and isinstance(fn, ast.Attribute) \
            and isinstance(fn.value, ast.Name):
        mark(fn.value.id)
    elif kind == "waitall":
        for target in call_targets(call):
            if isinstance(target, ast.Name):
                mark(target.id)
    # One level of interprocedural propagation through resolved callees.
    callee = model.resolve_call(call, info)
    if callee is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Name) and i in callee.waits_params:
                mark(arg.id)
    return changed


# -- Pass 3: regions and their windows -----------------------------------

class _RegionFinder(ast.NodeVisitor):
    """Linear source-order walk of one scope collecting spawn/join events
    and the scope's own modeled accesses."""

    def __init__(self, model: ModuleModel, scope: FuncInfo):
        self.model = model
        self.scope = scope
        self.pos = 0
        self.loop_depth = 0
        self.branches: list[tuple[int, str]] = []
        self.locks: list[str] = []
        self.guard_depth = 0
        self.open_regions: list[Region] = []
        self.accesses: list[tuple[int, Access]] = []

    def run(self) -> None:
        """Scan the scope body, building regions and access lists."""
        for stmt in self.scope.node.body:
            self.visit(stmt)
        self._close_open(self.pos + 1)

    def _close_open(self, pos: int) -> None:
        for region in self.open_regions:
            region.end_pos = pos
        self.open_regions = []

    def _skip(self, node: ast.AST) -> None:
        """Nested function/class definitions run in their own frame and
        are modeled separately."""

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _skip

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
        params = self.scope.params
        left, right = test.left, test.comparators[0]
        for a, b in ((left, right), (right, left)):
            if isinstance(a, ast.Name) and isinstance(b, ast.Constant) \
                    and a.id in params:
                return True
            if isinstance(a, ast.Call) and isinstance(b, ast.Constant):
                # e.g. `self.geom.linear_tid(t) == 0`: any call of a
                # param keeps the completion on a single instance.
                if any(isinstance(x, ast.Name) and x.id in params
                       for x in ast.walk(a)):
                    return True
        return False

    def _loop(self, body: list[ast.stmt], orelse: list[ast.stmt]) -> None:
        self.pos += 1
        self.loop_depth += 1
        for stmt in body:
            self.visit(stmt)
        self.loop_depth -= 1
        for stmt in orelse:
            self.visit(stmt)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._loop(node.body, node.orelse)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._loop(node.body, node.orelse)

    # -- calls: spawns, joins, locks, comm accesses ---------------------

    def visit_Call(self, node: ast.Call) -> None:
        """Classify one call site: spawn, join, lock or MPI access."""
        self.pos += 1
        op, kind = api_call(node)
        if kind == "spawn":
            arg = node.args[0] if node.args else None
            target = (self.model.resolve_call(arg, self.scope)
                      if isinstance(arg, ast.Call) else None)
            if target is not None:
                self.open_regions.append(
                    self._region(target, self.loop_depth > 0, 1 << 30))
        elif kind == "join":
            if op == "run_all":
                self._run_all(node)
            self._close_open(self.pos)
        elif kind:
            self._record_access(node, op, kind)
        self.generic_visit(node)

    def _region(self, func: FuncInfo, many: bool, end_pos: int) -> Region:
        region = Region(func, self.scope, len(self.model.regions), many,
                        self.pos, end_pos)
        self.model.regions.append(region)
        return region

    def _run_all(self, node: ast.Call) -> None:
        """``world.run_all([f1(...), f2(...)])`` spawns and joins."""
        if not node.args:
            return
        arg = node.args[0]
        many = isinstance(arg, (ast.ListComp, ast.GeneratorExp))
        calls: list[ast.expr] = []
        if isinstance(arg, (ast.ListComp, ast.GeneratorExp)):
            calls = [arg.elt]
        elif isinstance(arg, (ast.List, ast.Tuple)):
            calls = list(arg.elts)
        for call in calls:
            target = (self.model.resolve_call(call, self.scope)
                      if isinstance(call, ast.Call) else None)
            if target is not None:
                self._region(target, many, self.pos + 1)

    def _comm_of(self, base: Optional[ast.AST]) -> tuple[
            Optional[str], Optional[str], bool]:
        """Display name, scope-qualified identity and sharedness of the
        communicator expression ``base``."""
        comm = dotted(base)
        if comm is None:
            return None, None, False
        comm_id, shared = self.model.comm_identity(comm, self.scope)
        return comm, comm_id, shared

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

    def _record_access(self, node: ast.Call, op: str, kind: str) -> None:
        model, scope = self.model, self.scope
        fn = node.func
        base = fn.value if isinstance(fn, ast.Attribute) else None
        if kind in ("wait", "test", "cancel", "pready", "parrived",
                    "start"):
            key = model.shared_key(base, scope)
            if key is not None:
                self._add(Access(kind, node, scope, obj=key, op=op))
        elif kind in ("lock-acquire", "lock-release"):
            lock = dotted(base)
            if lock is not None:
                self._add(Access(kind, node, scope,
                                 obj=SharedKey("<lock>", lock), op=op))
                if kind == "lock-acquire":
                    self.locks.append(lock)
                elif lock in self.locks:
                    self.locks.remove(lock)
        elif kind in ("request", "blocking"):
            comm, comm_id, shared = self._comm_of(base)
            is_recv = op in ("Irecv", "Recv")
            peer_expr = self._kw(node, "source" if is_recv else "dest", 1)
            tag_expr = self._kw(node, "tag", 2)
            self._add(Access(
                "recv" if is_recv else "send", node, scope, comm=comm,
                comm_id=comm_id, comm_shared=shared,
                peer=model.abstract(peer_expr, scope),
                tag=model.abstract(tag_expr, scope),
                wildcard_source=is_recv and is_wildcard(peer_expr),
                wildcard_tag=is_wildcard(tag_expr), op=op))
        elif kind == "collective":
            comm, comm_id, shared = self._comm_of(base)
            self._add(Access(kind, node, scope, comm=comm, comm_id=comm_id,
                             comm_shared=shared, op=op))
        elif kind in ("rma", "rma-flush", "rma-lock"):
            # Data ops take (buf, target=, disp=); epoch/flush ops
            # (Lock/Unlock/Flush) take the target as their sole
            # positional argument.
            t_idx = 1 if kind == "rma" else 0
            self._add(Access(
                kind, node, scope, obj=model.shared_key(base, scope), op=op,
                peer=model.abstract(self._kw(node, "target", t_idx), scope),
                tag=model.abstract(self._kw(node, "disp", 2), scope)))
        elif kind == "Test" and node.args:
            key = model.shared_key(node.args[0], scope)
            if key is not None:
                self._add(Access("test", node, scope, obj=key, op=op))
        elif kind == "waitall":
            for t in call_targets(node):
                key = model.shared_key(t, scope)
                if key is not None:
                    self._add(Access("wait", node, scope, obj=key, op=op))


def _find_regions(model: ModuleModel) -> None:
    """Run the linear walk over every scope, then attribute accesses to
    regions (the region function plus its resolved callees)."""
    for info in (model.root, *model.functions.values()):
        finder = _RegionFinder(model, info)
        finder.run()
        model.spawner_accesses[info.qualname] = finder.accesses
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
                region.accesses.extend(
                    a for _, a in model.spawner_accesses[func.qualname])
                for node in ast.walk(func.node):
                    if isinstance(node, ast.Call):
                        callee = model.resolve_call(node, func)
                        if callee is not None \
                                and callee.qualname not in seen:
                            nxt.append(callee)
            frontier = nxt
            depth += 1


def build_model(source: str, path: str = "<string>") -> ModuleModel:
    """Parse ``source`` and build the full program model."""
    tree = ast.parse(source, filename=path)
    return ModuleModel(tree, path)
