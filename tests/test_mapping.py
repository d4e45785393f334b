"""Tests for the mechanism-mapping helpers (repro.mapping)."""

import pytest

from repro.errors import MpiUsageError, TagOverflowError
from repro.mapping import (
    STENCIL_2D_5PT,
    STENCIL_2D_9PT,
    STENCIL_3D_27PT,
    STENCIL_3D_7PT,
    CornerOptimizedCommMap,
    MirroredCommMap,
    NaiveCommMap,
    PartitionPlan,
    StencilGeometry,
    TagSchema,
    analyze_map,
    communicator_overhead_ratio_3d27,
    communicators_required_3d27,
    listing2_info,
    min_channels_2d9,
    min_channels_3d27,
    overtaking_only_info,
)
from repro.mpi.info import parse_comm_hints
from repro.mpi.vci import TAG_BITS, TagBitsVciMap


# ------------------------------------------------------- Lesson 3 formulas

def test_paper_headline_numbers():
    """The exact numbers from Lesson 3 / Lesson 12: 808 communicators vs
    56 channels on a [4,4,4] thread grid — 14.4x."""
    assert communicators_required_3d27(4, 4, 4) == 808
    assert min_channels_3d27(4, 4, 4) == 56
    assert communicator_overhead_ratio_3d27(4, 4, 4) == pytest.approx(
        808 / 56)
    assert 14.4 < communicator_overhead_ratio_3d27(4, 4, 4) < 14.5


def test_min_channels_small_grids():
    assert min_channels_3d27(1, 1, 1) == 1
    assert min_channels_3d27(2, 2, 2) == 8
    assert min_channels_3d27(3, 3, 3) == 26
    assert min_channels_2d9(1, 1) == 1
    assert min_channels_2d9(3, 3) == 8
    assert min_channels_2d9(2, 5) == 10


def test_formula_grows_with_grid():
    assert communicators_required_3d27(8, 8, 8) > \
        communicators_required_3d27(4, 4, 4)


def test_formula_rejects_bad_dims():
    with pytest.raises(MpiUsageError):
        communicators_required_3d27(0, 4, 4)


# ------------------------------------------------------- stencil geometry

def test_stencil_direction_sets():
    assert len(STENCIL_2D_5PT) == 4
    assert len(STENCIL_2D_9PT) == 8
    assert len(STENCIL_3D_7PT) == 6
    assert len(STENCIL_3D_27PT) == 26


def test_geometry_validation():
    with pytest.raises(MpiUsageError):
        StencilGeometry((2, 2), (3,), STENCIL_2D_5PT)
    with pytest.raises(MpiUsageError):
        StencilGeometry((0, 2), (3, 3), STENCIL_2D_5PT)
    with pytest.raises(MpiUsageError):
        StencilGeometry((2, 2), (3, 3), STENCIL_3D_7PT)


def test_rank_of_is_row_major():
    geom = StencilGeometry((2, 3), (3, 3), STENCIL_2D_5PT)
    assert [geom.rank_of(p) for p in geom.procs()] == list(range(6))
    assert geom.rank_of((1, 0)) == 3
    geom3 = StencilGeometry((2, 3, 4), (1, 1, 1), STENCIL_3D_7PT)
    assert geom3.rank_of((1, 2, 3)) == 1 * 12 + 2 * 4 + 3
    assert geom.global_of((1, 2), (2, 0)) == (5, 6)


def test_exchange_enumeration_interior_thread_silent():
    geom = StencilGeometry((2, 2), (3, 3), STENCIL_2D_9PT)
    assert list(geom.exchanges_from((0, 0), (1, 1))) == []


def test_exchange_enumeration_edge_thread():
    geom = StencilGeometry((2, 2), (3, 3), STENCIL_2D_5PT)
    # thread (2,1) on proc (0,0): east neighbour is remote
    exs = list(geom.exchanges_from((0, 0), (2, 1)))
    assert len(exs) == 1
    assert exs[0].direction == (1, 0)


def test_domain_boundary_has_no_exchange():
    geom = StencilGeometry((2, 1), (2, 2), STENCIL_2D_5PT)
    # proc (0,0) thread (0,0): west/south are outside the domain
    dirs = {e.direction for e in geom.exchanges_from((0, 0), (0, 0))}
    assert dirs == set()  # east is in-process, north in-process


def test_communicating_threads_matches_formula():
    geom = StencilGeometry((3, 3, 3), (4, 4, 4), STENCIL_3D_27PT)
    center = (1, 1, 1)
    assert len(geom.communicating_threads(center)) == min_channels_3d27(4, 4, 4)


def test_communicating_threads_2d_matches_formula():
    geom = StencilGeometry((3, 3), (3, 3), STENCIL_2D_9PT)
    assert len(geom.communicating_threads((1, 1))) == min_channels_2d9(3, 3)


# ------------------------------------------------------- communicator maps

@pytest.fixture
def geom9():
    return StencilGeometry((3, 3), (3, 3), STENCIL_2D_9PT)


def test_mirrored_map_exposes_all_parallelism(geom9):
    r = analyze_map(MirroredCommMap(geom9))
    assert r.min_parallel_efficiency == 1.0
    assert r.max_threads_per_label == 1
    assert r.max_conflicting_labels == 0


def test_mirrored_map_5pt_matches_listing1_count():
    """Listing 1 creates 2*tx + 2*ty communicators for the 5-pt stencil."""
    geom = StencilGeometry((3, 3), (3, 4), STENCIL_2D_5PT)
    r = analyze_map(MirroredCommMap(geom))
    assert r.num_communicators == 2 * 3 + 2 * 4
    assert r.min_parallel_efficiency == 1.0


def test_naive_map_loses_parallelism(geom9):
    """Lesson 2: the intuitive map is correct but loses parallelism —
    opposite edges share communicators."""
    r = analyze_map(NaiveCommMap(geom9))
    assert r.num_communicators == 9 - 1  # one comm per communicating thread
    assert r.max_threads_per_label >= 2
    assert r.min_parallel_efficiency <= 0.5


def test_naive_map_5pt_half_parallelism():
    geom = StencilGeometry((3, 3), (3, 3), STENCIL_2D_5PT)
    r = analyze_map(NaiveCommMap(geom))
    # Opposite edges pair up on one communicator (corners chain further).
    assert 2 <= r.max_threads_per_label <= 3
    assert r.min_parallel_efficiency <= 0.5


def test_corner_optimized_reduces_communicators(geom9):
    mirrored = analyze_map(MirroredCommMap(geom9))
    corner = analyze_map(CornerOptimizedCommMap(geom9))
    assert corner.num_communicators < mirrored.num_communicators
    # ... but introduces label sharing (the Lesson 1 complexity trade-off).
    assert corner.max_threads_per_label >= 1


def test_mirrored_map_labels_consistent_between_neighbors(geom9):
    """Both endpoints of an exchange derive the same label (matching)."""
    cmap = MirroredCommMap(geom9)
    for p in geom9.procs():
        for t in geom9.threads():
            for ex in geom9.exchanges_from(p, t):
                # the receiving side enumerates the same Exchange object
                # value; labels must agree for the reversed message too
                rev = type(ex)(ex.dst, ex.src)
                assert cmap.label(ex) == cmap.label(rev)


def test_mirrored_3d_count_same_order_as_paper_formula():
    """Our constructive 3D 27-pt map needs the same order of communicators
    as the paper's closed form (868 vs 808 for [4,4,4]) — both ~14-15x the
    channel count."""
    geom = StencilGeometry((2, 2, 2), (4, 4, 4), STENCIL_3D_27PT)
    r = analyze_map(MirroredCommMap(geom))
    paper = communicators_required_3d27(4, 4, 4)
    assert abs(r.num_communicators - paper) / paper < 0.15
    assert r.min_parallel_efficiency == 1.0


def test_mirrored_opposite_boundaries_use_distinct_sets():
    """The a/b mirroring: a process's north comms differ from its south
    comms (else threads 1 and 7 of Fig 4 would serialize)."""
    geom = StencilGeometry((1, 3), (3, 3), STENCIL_2D_5PT)
    cmap = MirroredCommMap(geom)
    p = (0, 1)  # middle process: has both N and S neighbours
    north = {cmap.label(e) for t in geom.threads()
             for e in geom.exchanges_from(p, t) if e.direction == (0, 1)}
    south = {cmap.label(e) for t in geom.threads()
             for e in geom.exchanges_from(p, t) if e.direction == (0, -1)}
    assert north and south
    assert north.isdisjoint(south)


# ------------------------------------------------------- tag schema

def test_tag_schema_roundtrip():
    s = TagSchema(num_tid_bits=4, num_app_bits=8)
    tag = s.encode(src_tid=5, dst_tid=11, app_tag=200)
    assert s.decode(tag) == (5, 11, 200)
    assert tag <= (1 << TAG_BITS) - 1


def test_tag_schema_matches_vci_map_extraction():
    """The app-side encoder and the library-side TagBitsVciMap must agree
    on where the thread bits live."""
    bits = 3
    schema = TagSchema(num_tid_bits=bits, num_app_bits=8)
    info = listing2_info(n_threads=8, num_tid_bits=bits)
    hints = parse_comm_hints(info)
    vmap = TagBitsVciMap(hints, base_index=0, num_pool_vcis=64)
    for s in range(8):
        for d in range(8):
            tag = schema.encode(s, d, 17)
            assert vmap.src_field(tag) == s
            assert vmap.dst_field(tag) == d


def test_tag_overflow_on_layout():
    with pytest.raises(TagOverflowError):
        TagSchema(num_tid_bits=9, num_app_bits=8)  # 26 bits > 20


def test_tag_overflow_on_values():
    s = TagSchema(num_tid_bits=2, num_app_bits=4)
    with pytest.raises(TagOverflowError):
        s.encode(4, 0, 0)
    with pytest.raises(TagOverflowError):
        s.encode(0, 0, 16)


def test_listing2_info_bundle():
    info = listing2_info(n_threads=8, num_tid_bits=3)
    hints = parse_comm_hints(info)
    assert hints.recv_side_spreading and hints.num_vcis == 8
    with pytest.raises(MpiUsageError):
        listing2_info(n_threads=16, num_tid_bits=3)


def test_overtaking_only_info_bundle():
    hints = parse_comm_hints(overtaking_only_info(8))
    assert hints.send_side_spreading and not hints.recv_side_spreading


# ------------------------------------------------------- partition plans

def test_partition_plan_listing4_shape():
    geom = StencilGeometry((2, 2), (3, 4), STENCIL_2D_5PT)
    plan = PartitionPlan(geom)
    faces = plan.faces((0, 0))
    # proc (0,0) has E and N neighbours only
    dirs = {f.direction for f in faces}
    assert dirs == {(1, 0), (0, 1)}
    north = next(f for f in faces if f.direction == (0, 1))
    assert north.partitions == 3      # tx threads on the N face
    east = next(f for f in faces if f.direction == (1, 0))
    assert east.partitions == 4       # ty threads on the E face
    # thread (i, ty-1) drives partition i of the north op (Listing 4)
    for i in range(3):
        assert north.partition_of[(i, 3)] == i


def test_partition_plan_interior_proc_has_all_faces():
    geom = StencilGeometry((3, 3), (2, 2), STENCIL_2D_5PT)
    plan = PartitionPlan(geom)
    assert len(plan.faces((1, 1))) == 4
    assert plan.total_operations((1, 1)) == 8


def test_partition_plan_rejects_diagonals():
    geom = StencilGeometry((2, 2), (3, 3), STENCIL_2D_9PT)
    with pytest.raises(MpiUsageError, match="Lesson 15"):
        PartitionPlan(geom)


def test_partition_plan_3d_faces():
    geom = StencilGeometry((2, 2, 2), (2, 3, 4), STENCIL_3D_7PT)
    plan = PartitionPlan(geom)
    faces = plan.faces((0, 0, 0))
    assert {f.direction for f in faces} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    xface = next(f for f in faces if f.direction == (1, 0, 0))
    assert xface.partitions == 3 * 4
