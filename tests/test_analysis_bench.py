"""Tests for the analysis package (Table I, usability) and the bench
utilities (msgrate, reporting)."""

import importlib
import os
import re

import pytest

from repro.analysis import (
    MECHANISM_NAMES,
    OPERATIONS,
    PATTERNS,
    render_table,
    render_usability,
    scope_matrix,
    stencil_usability,
)
from repro.bench import MODES, MsgRateConfig, Table, run_msgrate, write_results
from repro.errors import MpiUsageError
from repro.mapping import (
    STENCIL_2D_5PT,
    STENCIL_2D_9PT,
    STENCIL_3D_7PT,
    STENCIL_3D_27PT,
    StencilGeometry,
)


# ---------------------------------------------------------------- scope

def test_scope_matrix_complete():
    m = scope_matrix()
    for row in OPERATIONS + PATTERNS:
        for mech in MECHANISM_NAMES:
            assert (row, mech) in m, (row, mech)


def test_scope_matrix_lessons_encoded():
    m = scope_matrix()
    # Lesson 15: partitioned can't do wildcards or dynamic patterns.
    assert not m[("wildcard-polling", "partitioned")].supported
    assert not m[("irregular-dynamic", "partitioned")].supported
    # Lesson 18: existing collectives demand user-side work.
    assert m[("collective", "existing")].user_side_work
    # Endpoints support everything without user-side work.
    for row in OPERATIONS + PATTERNS:
        cap = m[(row, "endpoints")]
        assert cap.supported and not cap.user_side_work


def test_scope_render_mentions_tbd():
    text = render_table()
    assert "TBD" in text
    assert "NO" in text
    assert "endpoints" in text


def test_scope_render_subset():
    text = render_table(rows=("rma",))
    assert "rma" in text and "collective" not in text


def test_scope_modules_import():
    """Every ``repro.*`` module a Table I cell names exists: a cell must
    not point at code that was folded away."""
    named = {name for cap in scope_matrix().values()
             for name in re.findall(r"repro(?:\.\w+)+", cap.module)}
    assert "repro.apps.channels" in named
    for name in sorted(named):
        importlib.import_module(name)


# ---------------------------------------------------------------- usability

def test_usability_reports_ranked_as_paper_argues():
    geom = StencilGeometry((3, 3), (3, 3), STENCIL_2D_5PT)
    reports = stencil_usability(geom)
    # Communicators need by far the most setup objects (Lesson 3).
    assert reports["communicators"].setup_calls \
        > 5 * reports["endpoints"].setup_calls
    # Only the tags mechanism requires implementation-specific hints
    # (Lesson 8's portability hazard).
    assert reports["tags"].implementation_specific_hints > 0
    for name in ("original", "communicators", "endpoints", "partitioned"):
        assert reports[name].implementation_specific_hints == 0
    # Only communicators require mirroring math (Lesson 1).
    assert reports["communicators"].needs_mirroring_logic
    assert not reports["endpoints"].needs_mirroring_logic
    # Partitioned introduces the most new concepts and extra sync steps
    # (Lesson 14).
    assert reports["partitioned"].new_concepts \
        > reports["endpoints"].new_concepts
    assert reports["partitioned"].extra_sync_steps > 0


def test_usability_skips_partitioned_for_diagonal_stencils():
    geom = StencilGeometry((2, 2), (3, 3), STENCIL_2D_9PT)
    reports = stencil_usability(geom)
    assert "partitioned" not in reports  # Lesson 15
    assert "endpoints" in reports


@pytest.mark.parametrize("stencil, partitioned", [
    (STENCIL_2D_5PT, True), (STENCIL_3D_7PT, True),
    (STENCIL_2D_9PT, False), (STENCIL_3D_27PT, False)])
def test_usability_partitioned_row_follows_the_diagonals_only(
        stencil, partitioned):
    dim = len(next(iter(stencil)))
    geom = StencilGeometry((3,) * dim, (2,) * dim, stencil)
    assert ("partitioned" in stencil_usability(geom)) == partitioned


def test_usability_does_not_hide_a_partition_plan_error(monkeypatch):
    def broken(self, p):
        raise RuntimeError("plan bug")

    monkeypatch.setattr("repro.mapping.partitioned.PartitionPlan."
                        "total_operations", broken)
    with pytest.raises(RuntimeError, match="plan bug"):
        stencil_usability(StencilGeometry((3, 3), (2, 2), STENCIL_2D_5PT))


def test_usability_render_contains_all_rows():
    geom = StencilGeometry((2, 2), (2, 2), STENCIL_2D_5PT)
    text = render_usability(stencil_usability(geom))
    for name in ("original", "communicators", "tags", "endpoints",
                 "partitioned"):
        assert name in text


# ---------------------------------------------------------------- bench

def test_msgrate_modes_validated():
    with pytest.raises(MpiUsageError):
        MsgRateConfig(mode="warp-drive")
    with pytest.raises(MpiUsageError):
        MsgRateConfig(cores=0)
    # Counts the simulator cannot run: a window of 0 never completes a
    # receive, the rest raised deep inside a run.
    for bad, blame in (({"window": 0}, "window must be >= 1"),
                       ({"cores": 1.5}, "cores must be an integer"),
                       ({"cores": True}, "cores must be an integer"),
                       ({"msgs_per_core": 0}, "msgs_per_core must be >= 1"),
                       ({"msgs_per_core": -3}, "msgs_per_core must be >= 1"),
                       ({"msg_bytes": -1}, "msg_bytes must be >= 0"),
                       ({"window": "16"}, "window must be an integer")):
        with pytest.raises(MpiUsageError, match=blame):
            MsgRateConfig(**bad)
    assert MsgRateConfig(msg_bytes=0).msg_bytes == 0
    assert "everywhere" in MODES


def test_msgrate_rate_positive_and_deterministic():
    cfg = MsgRateConfig(mode="threads-endpoints", cores=4, msgs_per_core=16)
    a = run_msgrate(cfg)
    b = run_msgrate(cfg)
    assert a.rate > 0
    assert a.rate == b.rate
    assert a.messages == 4 * 16


def test_msgrate_everywhere_scales():
    r1 = run_msgrate(MsgRateConfig(mode="everywhere", cores=1,
                                   msgs_per_core=32))
    r4 = run_msgrate(MsgRateConfig(mode="everywhere", cores=4,
                                   msgs_per_core=32))
    assert r4.rate > 3 * r1.rate


def test_table_rendering_and_validation():
    t = Table("demo", ["a", "b"], widths=[4, 6])
    t.add(1, 2.5)
    t.add("x", 0.125)
    text = t.render()
    assert "demo" in text and "2.5" in text and "0.125" in text
    with pytest.raises(ValueError):
        t.add(1)  # wrong arity


def test_write_results_creates_file(tmp_path):
    path = write_results("unit_test_table", "hello", directory=str(tmp_path))
    assert os.path.exists(path)
    with open(path) as fh:
        assert fh.read().strip() == "hello"
