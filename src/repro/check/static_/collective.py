"""Collective-consistency checking across rank-dependent branches (S310).

Collectives must be called by every rank of a communicator in the same
order. A branch whose condition depends on the process *rank* therefore
may not change the sequence of collective call sites: ``if rank == 0:
Bcast(...)`` with no matching collective in the other arm deadlocks the
other ranks.

Only *rank*-dependent conditions count. Thread-id conditionals
(``if tid == 0: Allreduce(...)``) are the paper's funneled pattern —
every rank still reaches the collective once — and stay exempt, as do
mechanism/configuration branches.
"""

from __future__ import annotations

import ast

from .findings import StaticFinding
from .model import FuncInfo, ModuleModel, api_call, dotted, own_nodes

__all__ = ["check_collectives"]


def _rank_names(info: FuncInfo) -> set[str]:
    """Local names assigned from a rank-valued expression."""
    names: set[str] = set()
    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and _is_rank_expr(node.value, set()):
            names.add(node.targets[0].id)
    return names


def _is_rank_expr(expr: ast.AST, rank_names: set[str]) -> bool:
    """Whether the expression derives from the process rank."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Attribute) and sub.attr == "rank":
            return True
        if isinstance(sub, ast.Call):
            d = dotted(sub.func)
            if d is not None and d.endswith("Get_rank"):
                return True
        if isinstance(sub, ast.Name) and sub.id in rank_names:
            return True
    return False


def _collective_sequence(stmts: list[ast.stmt]) -> list[str]:
    """Ordered collective op names in a statement list (full subtree)."""
    seq: list[str] = []
    for stmt in stmts:
        for node in ast.walk(stmt):
            # Only the Call itself: api_call also sees it through a
            # `yield from` wrapper, which the walk visits too.
            op, kind = api_call(node)
            if kind == "collective" and isinstance(node, ast.Call):
                seq.append(op)
    return seq


def check_collectives(model: ModuleModel) -> list[StaticFinding]:
    """Flag rank-dependent branches whose collective sequences differ."""
    out: list[StaticFinding] = []
    for info in model.functions.values():
        rank_names = _rank_names(info)
        for node in own_nodes(info.node):
            if not isinstance(node, ast.If) \
                    or not _is_rank_expr(node.test, rank_names):
                continue
            then_seq = _collective_sequence(node.body)
            else_seq = _collective_sequence(node.orelse)
            if then_seq == else_seq:
                continue
            out.append(StaticFinding(
                "S310",
                f"collective call sites diverge across this "
                f"rank-dependent branch: the if-arm issues "
                f"{_fmt(then_seq)} while the else-arm issues "
                f"{_fmt(else_seq)}; ranks taking different arms will "
                f"not match and the program deadlocks",
                model.path, node.lineno,
                getattr(node, "col_offset", 0) + 1,
                function=info.qualname,
                extra={"then": then_seq, "orelse": else_seq}))
    return out


def _fmt(seq: list[str]) -> str:
    return "[" + ", ".join(seq) + "]" if seq else "no collectives"
