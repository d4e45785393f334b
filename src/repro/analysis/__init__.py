"""Scope (Table I) and usability analysis of the three designs."""

from .scope import (
    MECHANISM_NAMES,
    OPERATIONS,
    PATTERNS,
    Capability,
    render_table,
    scope_matrix,
)
from .usability import UsabilityReport, render_usability, stencil_usability

__all__ = [
    "Capability", "MECHANISM_NAMES", "OPERATIONS", "PATTERNS",
    "UsabilityReport", "render_table", "render_usability", "scope_matrix",
    "stencil_usability",
]
