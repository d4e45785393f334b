"""Request-lifecycle tracking through branches and loops.

A structured abstract interpreter runs over every function body. Each
local request variable carries a set of possible statuses (``live``,
``done``, ``cancelled``); lists collect requests by ``append`` and a
``waitall``-family call completes their members. Branches join
element-wise, loops run to a small fixpoint, and each exit point
(every ``return`` plus the fall-off end) is checked for requests that
are possibly still live.

Rules emitted here:

- **S308** request-leak: a locally created request reaches an exit
  possibly live, without escaping (returned, yielded, stored into a
  container/attribute, captured by a nested function, or passed to an
  unknown callee — any of which moves responsibility elsewhere).
- **S311** double-wait: ``wait()`` on a request that a completing wait
  already finished on *every* path here.
- **S312** cancel-after-complete: ``cancel()`` on a must-completed
  request.
- **S305** partitioned lifecycle: ``pready``/``parrived`` while no cycle
  is active, and ``pready`` twice for one constant partition index in a
  single cycle.
- **S306** RMA epoch discipline (double Lock / Unlock without Lock /
  access outside any epoch in a function that uses explicit epochs).
- **S309** window-leak: a window created here is possibly dirty
  (unflushed RMA traffic) at an exit.

Everything is intraprocedural over locals, with interprocedural
summaries (``FuncInfo.waits_params``/``returns_request``) consulted at
call sites; non-local state is treated as unknown, never reported.
"""

from __future__ import annotations

import ast
from typing import Optional

from .findings import StaticFinding
from .model import FuncInfo, ModuleModel, api_call, call_targets, unwrap

__all__ = ["check_lifecycle"]

_LIVE = frozenset({"live"})
_DONE = frozenset({"done"})
_CANCELLED = frozenset({"cancelled"})
_ACTIVE = frozenset({"active"})       # partitioned: cycle started
_INACTIVE = frozenset({"inactive"})   # partitioned: no active cycle
_DIRTY = frozenset({"dirty"})         # window: unflushed traffic
_CLEAN = frozenset({"clean"})

Status = frozenset


class _Env:
    """Abstract state: per-variable status sets plus escape/membership."""

    def __init__(self) -> None:
        self.vars: dict[str, Status] = {}
        self.escaped: set[str] = set()
        #: request var -> list var it was appended to
        self.member_of: dict[str, str] = {}
        #: list var -> set of statuses of anonymous members
        self.lists: dict[str, Status] = {}
        #: partitioned var -> const partition indices readied this cycle
        self.readied: dict[str, set[object]] = {}

    def copy(self) -> "_Env":
        """An independent copy for branch-local interpretation."""
        env = _Env()
        env.vars = dict(self.vars)
        env.escaped = set(self.escaped)
        env.member_of = dict(self.member_of)
        env.lists = dict(self.lists)
        env.readied = {k: set(v) for k, v in self.readied.items()}
        return env

    def join(self, other: "_Env") -> "_Env":
        """Path-join two environments (union of abstract states)."""
        env = _Env()
        for name in set(self.vars) | set(other.vars):
            env.vars[name] = (self.vars.get(name, frozenset())
                              | other.vars.get(name, frozenset()))
        env.escaped = self.escaped | other.escaped
        env.member_of = {**other.member_of, **self.member_of}
        for name in set(self.lists) | set(other.lists):
            env.lists[name] = (self.lists.get(name, frozenset())
                               | other.lists.get(name, frozenset()))
        for name in set(self.readied) | set(other.readied):
            env.readied[name] = (self.readied.get(name, set())
                                 | other.readied.get(name, set()))
        return env

    def same(self, other: "_Env") -> bool:
        return (self.vars == other.vars and self.escaped == other.escaped
                and self.lists == other.lists
                and self.readied == other.readied)


def check_lifecycle(model: ModuleModel) -> list[StaticFinding]:
    """Run the lifecycle interpreter over every function in the model."""
    out: list[StaticFinding] = []
    for info in model.functions.values():
        _Interp(model, info, out).run()
    out.extend(_check_epochs(model))
    return out


def _check_epochs(model: ModuleModel) -> list[StaticFinding]:
    """S306: epoch discipline over each scope's linear access order.

    Only functions that use explicit ``Lock`` epochs are held to the
    discipline (flush-only windows — the nwchem pattern — are exempt,
    mirroring the dynamic rule)."""
    out: list[StaticFinding] = []
    for accs in model.spawner_accesses.values():
        uses_lock = any(a.kind == "rma-lock" and a.op == "Lock"
                        for _, a in accs)
        if not uses_lock:
            continue
        locked: set[tuple[object, object]] = set()
        for _, acc in accs:
            if acc.obj is None:
                continue
            target = acc.peer.value if acc.peer.is_const else None
            key = (acc.obj, target)
            if acc.kind == "rma-lock":
                if acc.peer.is_const and key in locked:
                    out.append(StaticFinding(
                        "S306",
                        f"double Lock of target {target!r} on window "
                        f"{acc.obj.describe()!r} without an intervening "
                        f"Unlock", model.path, acc.line, acc.col,
                        function=acc.func.qualname))
                else:
                    locked.add(key)
            elif acc.kind == "rma-flush" and acc.op == "Unlock":
                if acc.peer.is_const and key not in locked:
                    out.append(StaticFinding(
                        "S306",
                        f"Unlock of target {target!r} on window "
                        f"{acc.obj.describe()!r} without a matching "
                        f"Lock", model.path, acc.line, acc.col,
                        function=acc.func.qualname))
                else:
                    locked.discard(key)
            elif acc.kind == "rma":
                if acc.peer.is_const and key not in locked \
                        and not any(k[0] == acc.obj for k in locked):
                    out.append(StaticFinding(
                        "S306",
                        f"{acc.op} on window {acc.obj.describe()!r} "
                        f"outside any Lock epoch in a function that "
                        f"uses explicit epochs", model.path, acc.line,
                        acc.col, function=acc.func.qualname))
    return out


class _Interp:
    """One function's abstract execution."""

    def __init__(self, model: ModuleModel, info: FuncInfo,
                 out: list[StaticFinding]):
        self.model = model
        self.info = info
        self.out = out
        self.reported: set[tuple[str, int]] = set()
        #: Names captured by nested defs: completion may happen in the
        #: other frame, so they are exempt from leak reporting.
        self.captured = _captured_names(info)
        self.in_loop = 0

    # -- reporting ------------------------------------------------------

    def flag(self, rule_id: str, node: ast.AST, message: str,
             **extra: object) -> None:
        """Record one finding, deduplicated by (rule, line)."""
        line = getattr(node, "lineno", 1)
        key = (rule_id, line)
        if key in self.reported:
            return
        self.reported.add(key)
        self.out.append(StaticFinding(
            rule_id, message, self.model.path, line,
            getattr(node, "col_offset", 0) + 1,
            function=self.info.qualname,
            extra={str(k): v for k, v in extra.items()}))

    # -- driver ---------------------------------------------------------

    def run(self) -> None:
        env = _Env()
        exit_env = self.exec_block(self.info.node.body, env)
        if exit_env is not None:
            self.check_exit(exit_env, self.info.node, "falls off the end")

    def check_exit(self, env: _Env, node: ast.AST, how: str) -> None:
        """Flag live requests/windows at a function exit point."""
        for name in sorted(env.vars):
            status = env.vars[name]
            if name in env.escaped or name in self.captured:
                continue
            if "live" in status and name not in env.member_of:
                must = status == _LIVE
                self.flag(
                    "S308", node,
                    f"request {name!r} is "
                    f"{'never' if must else 'possibly not'} completed "
                    f"before the function {how}; add a wait/waitall or "
                    f"hand the request to the caller",
                    request=name, must=must)
            if "dirty" in status:
                self.flag(
                    "S309", node,
                    f"window {name!r} has possibly unflushed RMA "
                    f"operations when the function {how}; add "
                    f"Flush/Flush_all (or Unlock) before exiting",
                    window=name)
        for lname in sorted(env.lists):
            if "live" in env.lists[lname] and lname not in env.escaped \
                    and lname not in self.captured:
                self.flag(
                    "S308", node,
                    f"request list {lname!r} possibly holds incomplete "
                    f"requests when the function {how}; a waitall is "
                    f"missing on this path", request=lname)

    # -- structured statement execution ---------------------------------

    def exec_block(self, stmts: list[ast.stmt],
                   env: Optional[_Env]) -> Optional[_Env]:
        """Interpret a statement list; None means the path terminated."""
        for stmt in stmts:
            if env is None:
                return None
            env = self.exec_stmt(stmt, env)
        return env

    def exec_stmt(self, stmt: ast.stmt, env: _Env) -> Optional[_Env]:
        """Interpret one statement over the abstract request state."""
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval_expr(stmt.value, env, escaping=True)
            self.check_exit(env, stmt, "returns here")
            return None
        if isinstance(stmt, (ast.Break, ast.Continue)):
            # Approximate: treat as falling through (the loop fixpoint
            # absorbs the imprecision; never report past one).
            return env
        if isinstance(stmt, ast.If):
            self.eval_expr(stmt.test, env)
            then_env = self.exec_block(stmt.body, env.copy())
            else_env = self.exec_block(stmt.orelse, env.copy())
            if then_env is None:
                return else_env
            if else_env is None:
                return then_env
            return then_env.join(else_env)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval_expr(stmt.iter, env)
            return self._exec_loop(stmt.body, stmt.orelse, env)
        if isinstance(stmt, ast.While):
            self.eval_expr(stmt.test, env)
            return self._exec_loop(stmt.body, stmt.orelse, env)
        if isinstance(stmt, ast.Try):
            body_env = self.exec_block(stmt.body, env.copy())
            merged = body_env if body_env is not None else env.copy()
            for handler in stmt.handlers:
                h_env = self.exec_block(handler.body, env.copy())
                if h_env is not None:
                    merged = merged.join(h_env)
            merged = self.exec_block(stmt.orelse, merged)
            if merged is None:
                return None
            return self.exec_block(stmt.finalbody, merged)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval_expr(item.context_expr, env)
            return self.exec_block(stmt.body, env)
        if isinstance(stmt, ast.Assign):
            self.exec_assign(stmt.targets, stmt.value, env)
            return env
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self.exec_assign([stmt.target], stmt.value, env)
            return env
        if isinstance(stmt, ast.AugAssign):
            self.eval_expr(stmt.value, env, escaping=True)
            return env
        if isinstance(stmt, ast.Expr):
            # A request-creating call whose result is discarded can never
            # be completed by anyone: a certain leak at the call site.
            status = self.request_status_of(stmt.value, env)
            if status == _LIVE:
                self.flag(
                    "S308", stmt,
                    "the request returned here is discarded; nothing can "
                    "ever complete it — bind it and wait (or waitall) "
                    "before the function exits")
            elif status is None:
                self.eval_expr(stmt.value, env)
            return env
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return env
        if isinstance(stmt, ast.Raise):
            self.check_exit(env, stmt, "raises here")
            return None
        # Everything else (Pass, Import, Assert, Delete, Global, ...)
        for sub in ast.iter_child_nodes(stmt):
            if isinstance(sub, ast.expr):
                self.eval_expr(sub, env)
        return env

    def _exec_loop(self, body: list[ast.stmt], orelse: list[ast.stmt],
                   env: _Env) -> Optional[_Env]:
        self.in_loop += 1
        cur = env.copy()
        for _ in range(3):
            nxt = self.exec_block(body, cur.copy())
            if nxt is None:
                break
            joined = cur.join(nxt)
            if joined.same(cur):
                cur = joined
                break
            cur = joined
        self.in_loop -= 1
        # The loop may run zero times: join with the entry state.
        after = env.join(cur)
        return self.exec_block(orelse, after)

    # -- assignments ----------------------------------------------------

    def exec_assign(self, targets: list[ast.expr], value: ast.AST,
                    env: _Env) -> None:
        """Bind assignment targets to the value's abstract status."""
        status = self.request_status_of(value, env)
        for target in targets:
            if isinstance(target, ast.Name):
                name = target.id
                if status is not None:
                    env.vars[name] = status
                    env.escaped.discard(name)
                    env.member_of.pop(name, None)
                    if status == _INACTIVE:
                        env.readied[name] = set()
                elif isinstance(value, (ast.List, ast.Tuple)) \
                        and not value.elts:
                    env.lists[name] = frozenset()
                    env.escaped.discard(name)
                elif isinstance(value, (ast.List, ast.Tuple)):
                    members: Status = frozenset()
                    for elt in value.elts:
                        st = self.request_status_of(elt, env) \
                            or self.status_of_name(elt, env)
                        if st is not None:
                            members |= st
                            if isinstance(elt, ast.Name):
                                env.member_of[elt.id] = name
                    env.lists[name] = members
                elif isinstance(value, ast.Name) \
                        and value.id in env.vars:
                    env.vars[name] = env.vars[value.id]
                else:
                    # Overwritten with something unrelated.
                    self.eval_expr(value, env, escaping=True)
                    env.vars.pop(name, None)
                    env.lists.pop(name, None)
            else:
                # Attribute/subscript target: the value escapes.
                self.eval_expr(value, env, escaping=True)

    def status_of_name(self, expr: ast.AST,
                       env: _Env) -> Optional[Status]:
        if isinstance(expr, ast.Name):
            return env.vars.get(expr.id)
        return None

    def request_status_of(self, value: ast.AST,
                          env: _Env) -> Optional[Status]:
        """Initial status when ``value`` creates a request/window."""
        inner = unwrap(value)
        if not isinstance(inner, ast.Call):
            return None
        # Arguments of the creating call never escape requests, but
        # evaluate them for nested effects.
        for arg in inner.args:
            self.eval_expr(arg, env)
        kind = api_call(inner)[1]
        if kind == "request":
            return _LIVE
        if kind in ("partitioned", "persistent"):
            return _INACTIVE
        if kind == "window":
            return _CLEAN
        callee = self.model.resolve_call(inner, self.info)
        if callee is not None and callee.returns_request:
            return _LIVE
        return None

    # -- expressions (calls are where everything happens) ---------------

    def eval_expr(self, expr: ast.AST, env: _Env,
                  escaping: bool = False) -> None:
        """Walk an expression, tracking request uses and escapes."""
        if isinstance(expr, (ast.Await, ast.YieldFrom, ast.Yield)):
            if expr.value is not None:
                # `yield req` hands the request to the consumer.
                self.eval_expr(expr.value, env,
                               escaping=isinstance(expr, (ast.Yield,)))
            return
        if isinstance(expr, ast.Call):
            self.eval_call(expr, env)
            return
        if isinstance(expr, ast.Name):
            if escaping and (expr.id in env.vars or expr.id in env.lists):
                env.escaped.add(expr.id)
            return
        for sub in ast.iter_child_nodes(expr):
            if isinstance(sub, ast.expr):
                # Inside containers/operators a tracked name escapes.
                self.eval_expr(sub, env, escaping=True)

    def eval_call(self, call: ast.Call, env: _Env) -> None:
        """Apply the effect of one call site to the abstract state."""
        fn = call.func
        base = fn.value if isinstance(fn, ast.Attribute) else None
        base_name = base.id if isinstance(base, ast.Name) else None
        op, kind = api_call(call)

        if base_name is not None and base_name in env.vars:
            self._request_method(call, env, base_name, op, kind)
            for arg in call.args:
                self.eval_expr(arg, env)
            return
        if base_name is not None and base_name in env.lists \
                and isinstance(fn, ast.Attribute) and fn.attr == "append" \
                and call.args:
            arg = call.args[0]
            st = self.request_status_of(arg, env)
            if isinstance(arg, ast.Name) and arg.id in env.vars:
                env.member_of[arg.id] = base_name
                env.lists[base_name] = (env.lists[base_name]
                                        | env.vars[arg.id])
            elif st is not None:
                env.lists[base_name] = env.lists[base_name] | st
            else:
                self.eval_expr(arg, env)
            return
        if kind == "waitall":
            self._wait_funcs(call, env)
            return
        if kind == "startall":
            self._start_all(call, env)
            return
        # Generic call: resolved callees consume per their summary;
        # unresolved callees make request arguments escape.
        callee = self.model.resolve_call(call, self.info)
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Name) \
                    and (arg.id in env.vars or arg.id in env.lists):
                if callee is not None and i in callee.waits_params:
                    self._complete_name(arg.id, env)
                elif callee is None:
                    env.escaped.add(arg.id)
                # Resolved callee that does not wait: state unchanged
                # (the summary pass saw its body).
            else:
                self.eval_expr(arg, env)
        for kw in call.keywords:
            self.eval_expr(kw.value, env, escaping=True)

    # -- semantics of the modeled API -----------------------------------

    def _request_method(self, call: ast.Call, env: _Env, name: str,
                        op: str, kind: str) -> None:
        status = env.vars[name]
        if kind == "wait":
            if status == _DONE:
                self.flag("S311", call,
                          f"request {name!r} is waited again here, but "
                          f"a completing wait already finished it on "
                          f"every path to this point", request=name)
            env.vars[name] = _DONE
        elif kind == "test":
            # test() may or may not complete; both worlds stay possible,
            # but the *responsibility* was taken: polling loops that
            # drop the request afterwards are the dynamic checker's
            # business, not a static certainty.
            env.vars[name] = status | _DONE
            env.escaped.add(name)
        elif kind == "cancel":
            if status == _DONE:
                self.flag("S312", call,
                          f"cancel() on request {name!r} which a "
                          f"completing wait already finished on every "
                          f"path to this point", request=name)
            env.vars[name] = _CANCELLED | (status - _LIVE)
        elif kind == "start":
            env.vars[name] = _ACTIVE
            env.readied[name] = set()
        elif kind in ("pready", "parrived"):
            if status == _INACTIVE:
                self.flag("S305", call,
                          f"{op}() on partitioned request {name!r} "
                          f"with no active cycle (start()/startall() "
                          f"not called on any path to this point)",
                          request=name)
            if kind == "pready" and call.args:
                idx = call.args[0]
                if isinstance(idx, ast.Constant):
                    ready = env.readied.setdefault(name, set())
                    if idx.value in ready and not self.in_loop:
                        self.flag(
                            "S305", call,
                            f"pready({idx.value!r}) called twice on "
                            f"{name!r} within one cycle", request=name)
                    ready.add(idx.value)
        elif kind == "rma":
            env.vars[name] = _DIRTY
        elif kind == "rma-flush":
            env.vars[name] = _CLEAN
        elif kind == "rma-lock":
            pass  # the epoch pass handles Lock
        else:
            # Unknown method on a tracked object: hands-off.
            env.escaped.add(name)

    def _wait_funcs(self, call: ast.Call, env: _Env) -> None:
        if not call.args:
            return
        first = call.args[0]
        targets: list[ast.AST] = []
        if isinstance(first, (ast.List, ast.Tuple)):
            targets = list(first.elts)
        else:
            targets = [first]
        for t in targets:
            if isinstance(t, ast.Name):
                self._complete_name(t.id, env)
            else:
                self.eval_expr(t, env)

    def _complete_name(self, name: str, env: _Env) -> None:
        if name in env.lists:
            if env.lists[name]:
                env.lists[name] = _mark_done(env.lists[name])
            for member, owner in env.member_of.items():
                if owner == name and member in env.vars:
                    env.vars[member] = _mark_done(env.vars[member])
        elif name in env.vars:
            env.vars[name] = _mark_done(env.vars[name])
            env.readied.pop(name, None)

    def _start_all(self, call: ast.Call, env: _Env) -> None:
        for t in call_targets(call):
            if isinstance(t, ast.Name):
                if t.id in env.vars:
                    env.vars[t.id] = _ACTIVE
                    env.readied[t.id] = set()
                elif t.id in env.lists:
                    env.lists[t.id] = _ACTIVE


def _mark_done(status: Status) -> Status:
    """Completion: live/active/inactive collapse to done."""
    rest = status - _LIVE - _ACTIVE - _INACTIVE
    return rest | _DONE


def _captured_names(info: FuncInfo) -> set[str]:
    """Names of ``info`` loaded inside nested function definitions."""
    captured: set[str] = set()
    own = set(info.params) | info.locals_
    for node in ast.walk(info.node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not info.node:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) \
                        and isinstance(sub.ctx, ast.Load) \
                        and sub.id in own:
                    captured.add(sub.id)
        if isinstance(node, ast.Lambda):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in own:
                    captured.add(sub.id)
    return captured
