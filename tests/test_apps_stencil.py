"""Stencil application tests: data correctness for every mechanism, and
the performance-shape claims of Fig 1(b) and Lessons 1-3."""

import numpy as np
import pytest

from repro.apps.harness import run_app
from repro.apps.stencil import (
    DIR_TAGS,
    ChannelRun,
    Patch,
    StencilConfig,
    halo_slices,
    jacobi,
    make_run,
    reference_jacobi,
    run_stencil,
)
from repro.errors import MpiUsageError
from repro.mapping.communicators import STENCIL_2D_5PT, StencilGeometry
from repro.netsim import NetworkConfig


# ---------------------------------------------------------------- field

def test_halo_slices_north():
    send, recv = halo_slices((3, 4), (0, 1))
    patch = np.arange(5 * 6).reshape(5, 6)
    # send = top interior row, recv = top halo row
    assert patch[send].shape == (1, 4)
    assert patch[recv].shape == (1, 4)
    assert (patch[send] == patch[3, 1:5]).all()
    assert (patch[recv] == patch[4, 1:5]).all()


def test_halo_slices_corner():
    send, recv = halo_slices((3, 4), (1, 1))
    patch = np.arange(5 * 6).reshape(5, 6)
    assert patch[send].shape == (1, 1)
    assert patch[send][0, 0] == patch[3, 4]
    assert patch[recv][0, 0] == patch[4, 5]


def test_halo_slices_rejects_bad_direction():
    with pytest.raises(MpiUsageError):
        halo_slices((4, 4), (2, 0))


def test_jacobi5_interior_math():
    data = np.zeros((4, 4))
    data[1, 2] = 4.0  # west neighbour of (1,1)... layout: [y, x]
    patch = Patch(data=data, shape=(2, 2))
    out = np.zeros((2, 2))
    jacobi(5, patch, out)
    # cell (y=0,x=1) has value 4 -> its neighbours each get 1.0
    assert out[0, 0] == pytest.approx(1.0)
    assert out[1, 1] == pytest.approx(1.0)


def test_jacobi9_is_eight_neighbor_average():
    data = np.ones((3, 3))
    patch = Patch(data=data, shape=(1, 1))
    out = np.zeros((1, 1))
    jacobi(9, patch, out)
    assert out[0, 0] == pytest.approx(1.0)


def test_reference_matches_manual_iteration():
    geom = StencilGeometry((1, 1), (2, 2), STENCIL_2D_5PT)
    ref1 = reference_jacobi(geom, (3, 3), iters=1, stencil_points=5)
    ref2 = reference_jacobi(geom, (3, 3), iters=1, stencil_points=5)
    assert np.allclose(ref1, ref2)  # deterministic


# ------------------------------------------------------- end-to-end runs

@pytest.mark.parametrize("mechanism", ["original", "tags", "communicators",
                                       "endpoints", "partitioned"])
def test_all_mechanisms_produce_correct_field_5pt(mechanism):
    cfg = StencilConfig(proc_grid=(2, 2), thread_grid=(2, 3), pnx=4, pny=5,
                        stencil_points=5, iters=3, mechanism=mechanism)
    result = run_stencil(cfg)
    assert result.correct, f"max_error={result.max_error}"


@pytest.mark.parametrize("mechanism", ["original", "tags", "communicators",
                                       "endpoints"])
def test_all_mechanisms_produce_correct_field_9pt(mechanism):
    cfg = StencilConfig(proc_grid=(2, 2), thread_grid=(3, 3), pnx=4, pny=4,
                        stencil_points=9, iters=3, mechanism=mechanism)
    assert run_stencil(cfg).correct


@pytest.mark.parametrize("comm_map", ["naive", "mirrored", "corner"])
def test_communicator_map_variants_correct(comm_map):
    cfg = StencilConfig(proc_grid=(2, 2), thread_grid=(3, 3), pnx=3, pny=3,
                        stencil_points=9, iters=2, mechanism="communicators",
                        comm_map=comm_map)
    assert run_stencil(cfg).correct


def test_partitioned_rejects_9pt():
    with pytest.raises(MpiUsageError, match="Lesson 15"):
        StencilConfig(stencil_points=9, mechanism="partitioned")


def test_unknown_mechanism_rejected():
    with pytest.raises(MpiUsageError):
        StencilConfig(mechanism="telepathy")


def test_fig1b_shape_original_slower_than_parallel():
    """Fig 1(b): logically parallel communication beats the original
    MPI_THREAD_MULTIPLE approach for the stencil."""
    base = dict(proc_grid=(2, 2), thread_grid=(3, 3), pnx=4, pny=4,
                stencil_points=9, iters=3)
    t_orig = run_stencil(StencilConfig(mechanism="original", **base))
    t_ep = run_stencil(StencilConfig(mechanism="endpoints", **base))
    t_tags = run_stencil(StencilConfig(mechanism="tags", **base))
    assert t_orig.halo_time > 1.2 * t_ep.halo_time
    assert t_orig.halo_time > 1.2 * t_tags.halo_time


def test_tags_and_endpoints_equivalent_performance():
    """The paper's quantitative companion result: existing mechanisms
    (with hints) perform as well as endpoints."""
    base = dict(proc_grid=(2, 2), thread_grid=(3, 3), pnx=4, pny=4,
                stencil_points=9, iters=3)
    t_ep = run_stencil(StencilConfig(mechanism="endpoints", **base))
    t_tags = run_stencil(StencilConfig(mechanism="tags", **base))
    assert abs(t_tags.halo_time - t_ep.halo_time) / t_ep.halo_time < 0.25


def test_lesson3_endpoints_fewer_resources_than_communicators():
    base = dict(proc_grid=(2, 2), thread_grid=(3, 3), pnx=3, pny=3,
                stencil_points=9, iters=2)
    r_comm = run_stencil(StencilConfig(mechanism="communicators",
                                       comm_map="mirrored", **base))
    r_ep = run_stencil(StencilConfig(mechanism="endpoints", **base))
    assert r_comm.resources_created > 2 * r_ep.resources_created


def test_scarce_contexts_penalize_communicators():
    """Lesson 3's Omni-Path effect: with few NIC hardware contexts, the
    communicator mechanism's many VCIs share contexts and slow down,
    while endpoints (fewer channels) stay unshared."""
    base = dict(proc_grid=(2, 2), thread_grid=(3, 3), pnx=4, pny=4,
                stencil_points=9, iters=3)
    # 12 contexts: enough for the 9+ endpoint channels, not for the ~24
    # communicators the mirrored map commits (cf. 56 vs 808 on Omni-Path).
    net = NetworkConfig.scarce(12)
    r_comm = run_stencil(StencilConfig(mechanism="communicators",
                                       comm_map="mirrored", **base),
                         net=net, max_vcis_per_proc=64)
    r_ep = run_stencil(StencilConfig(mechanism="endpoints", **base),
                       net=net, max_vcis_per_proc=64)
    assert r_comm.nic_oversubscription > r_ep.nic_oversubscription
    assert r_comm.halo_time > r_ep.halo_time


def test_runs_are_deterministic():
    cfg = StencilConfig(proc_grid=(2, 1), thread_grid=(2, 2), pnx=3, pny=3,
                        stencil_points=5, iters=2, mechanism="endpoints")
    a = run_stencil(cfg)
    b = run_stencil(cfg)
    assert a.wall_time == b.wall_time
    assert a.halo_time == b.halo_time


def test_single_process_grid_all_shm():
    """A 1x1 process grid has no inter-process exchanges at all."""
    cfg = StencilConfig(proc_grid=(1, 1), thread_grid=(3, 3), pnx=3, pny=3,
                        stencil_points=9, iters=2, mechanism="endpoints")
    r = run_stencil(cfg)
    assert r.correct


@pytest.mark.parametrize("points, procs, threads", [
    (9, (2, 3), (3, 2)), (27, (2, 1, 2), (2, 2, 1))])
def test_endpoint_routes_follow_listing3(points, procs, threads):
    """Listing 3's ``n_ep = rank * N_THREADS + tid``, checked where the
    stencil sends: every route ``ChannelRun.plan`` builds under
    ``endpoints`` names the partner patch's endpoint rank, on the
    sending thread's own endpoint."""
    cfg = StencilConfig(proc_grid=procs, thread_grid=threads,
                        stencil_points=points, mechanism="endpoints")
    geom = cfg.geometry()
    coords = {geom.rank_of(p): p for p in geom.procs()}
    routes = 0

    def proc_main(proc):
        nonlocal routes
        run = make_run(proc, coords[proc.rank], cfg)
        assert isinstance(run, ChannelRun)
        yield from run.setup()
        for t in geom.threads():
            own = run.channels.handle(geom.linear_tid(t))
            sends = list(geom.exchanges_from(run.p, t))
            plan = run.plan(t)
            assert [d for d, _recv, _send in plan] == \
                [ex.direction for ex in sends]
            for ex, (_d, recv, send) in zip(sends, plan):
                g2 = ex.dst
                ep = (geom.rank_of(geom.proc_of(g2)) * cfg.nthreads
                      + geom.linear_tid(geom.thread_of(g2)))
                assert recv[:2] == send[:2] == (own, ep)
                routes += 1
        return proc.sim.now

    run_app(len(coords), cfg.nthreads, proc_main)
    assert routes == sum(1 for p in geom.procs() for t in geom.threads()
                         for _ in geom.exchanges_from(p, t))
    assert routes > 0


# ------------------------------------------------------- 3D stencils

@pytest.mark.parametrize("mechanism", ["original", "tags", "communicators",
                                       "endpoints"])
def test_3d_27pt_correct(mechanism):
    cfg = StencilConfig(proc_grid=(2, 2, 2), thread_grid=(2, 2, 2),
                        pnx=3, pny=3, pnz=3, stencil_points=27, iters=2,
                        mechanism=mechanism)
    r = run_stencil(cfg)
    assert r.correct, f"max_error={r.max_error}"


def test_3d_7pt_partitioned_correct():
    cfg = StencilConfig(proc_grid=(2, 2, 2), thread_grid=(2, 2, 2),
                        pnx=3, pny=3, pnz=3, stencil_points=7, iters=3,
                        mechanism="partitioned")
    assert run_stencil(cfg).correct


def test_3d_grid_dimension_validation():
    with pytest.raises(MpiUsageError, match="3-dimensional"):
        StencilConfig(proc_grid=(2, 2), thread_grid=(2, 2),
                      stencil_points=27)
    with pytest.raises(MpiUsageError, match="2-dimensional"):
        StencilConfig(proc_grid=(2, 2, 2), thread_grid=(2, 2, 2),
                      stencil_points=9)


def test_3d_hypre_scenario_communicator_penalty():
    """The Lesson 3 headline, simulated end to end: the 3D 27-pt stencil
    with the mirrored communicator map oversubscribes Omni-Path-like
    hardware contexts; endpoints do not."""
    base = dict(proc_grid=(2, 2, 2), thread_grid=(3, 3, 3), pnx=3, pny=3,
                pnz=3, stencil_points=27, iters=2)
    net = NetworkConfig.scarce(40)  # between 27 endpoints and ~300 comms
    r_comm = run_stencil(StencilConfig(mechanism="communicators", **base),
                         net=net, max_vcis_per_proc=512)
    r_ep = run_stencil(StencilConfig(mechanism="endpoints", **base),
                       net=net, max_vcis_per_proc=512)
    assert r_comm.correct and r_ep.correct
    assert r_comm.resources_created > 8 * r_ep.resources_created
    assert r_comm.nic_oversubscription > 1.5 * r_ep.nic_oversubscription
    assert r_comm.halo_time > 1.3 * r_ep.halo_time
