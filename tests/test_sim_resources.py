"""Unit tests for FIFOServer (repro.sim.resources)."""

import pytest

from repro.sim import FIFOServer, Simulator


def test_single_request_completes_after_service_time():
    sim = Simulator()
    srv = FIFOServer(sim)
    done = []

    def task():
        yield srv.submit(0.25)
        done.append(sim.now)

    sim.spawn(task())
    sim.run()
    assert done == [pytest.approx(0.25)]


def test_back_to_back_requests_rate_limited():
    """The core message-rate behaviour: N requests take N*g seconds."""
    sim = Simulator()
    gap = 0.2
    srv = FIFOServer(sim)
    completions = []

    def burst():
        events = [srv.submit(gap) for _ in range(5)]
        for ev in events:
            yield ev
            completions.append(sim.now)

    sim.spawn(burst())
    sim.run()
    assert completions == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])


def test_idle_server_does_not_accumulate_backlog():
    sim = Simulator()
    srv = FIFOServer(sim)

    def task():
        yield srv.submit(1.0)
        yield sim.timeout(10.0)  # idle gap
        yield srv.submit(1.0)

    proc = sim.spawn(task())
    sim.run(until=proc)
    assert sim.now == pytest.approx(12.0)


def test_negative_service_time_rejected():
    srv = FIFOServer(Simulator())
    with pytest.raises(ValueError):
        srv.submit(-0.5)


def test_occupy_returns_completion_time_without_event():
    sim = Simulator()
    srv = FIFOServer(sim)
    assert srv.occupy(0.1) == pytest.approx(0.1)
    assert srv.occupy(0.1) == pytest.approx(0.2)
    assert srv.backlog == pytest.approx(0.2)


def test_stats_track_utilization_and_queue_delay():
    sim = Simulator()
    srv = FIFOServer(sim)

    def burst():
        events = [srv.submit(0.5) for _ in range(4)]
        yield events[-1]

    proc = sim.spawn(burst())
    sim.run(until=proc)
    assert srv.stats.requests == 4
    assert srv.stats.busy_time == pytest.approx(2.0)
    # Queue delays: 0, 0.5, 1.0, 1.5.
    assert srv.stats.total_queue_delay == pytest.approx(3.0)
    assert srv.stats.mean_queue_delay == pytest.approx(0.75)
    assert srv.stats.utilization(sim.now) == pytest.approx(1.0)


def test_free_at_tracks_clock():
    sim = Simulator()
    srv = FIFOServer(sim)
    assert srv.free_at == 0.0
    srv.occupy(1.0)

    def waiter():
        yield sim.timeout(5.0)

    proc = sim.spawn(waiter())
    sim.run(until=proc)
    assert srv.free_at == pytest.approx(5.0)
    assert srv.backlog == 0.0


# -- a NaN or negative service time is refused at every entry -----------------
# ``st < 0`` admits NaN, and a NaN service time ran the clock to NaN with
# no error; each site now tests ``not st >= 0``, as Timeout does.
BAD = [float("nan"), -1.0]


@pytest.mark.parametrize("bad", BAD)
def test_submit_refuses_a_bad_service_time(bad):
    sim = Simulator()
    srv = FIFOServer(sim)
    with pytest.raises(ValueError, match="service time must be non-negative"):
        srv.submit(bad)
    assert srv.stats.requests == 0 and srv.free_at == 0.0
    assert sim.queue_empty()


@pytest.mark.parametrize("bad", BAD)
def test_occupy_refuses_a_bad_service_time(bad):
    srv = FIFOServer(Simulator())
    with pytest.raises(ValueError, match="service time must be non-negative"):
        srv.occupy(bad)
    assert srv.stats.requests == 0 and srv.free_at == 0.0


@pytest.mark.parametrize("bad", BAD)
def test_call_after_refuses_a_bad_delay(bad):
    sim = Simulator()
    with pytest.raises(ValueError, match="delay must be >= 0"):
        sim.call_after(bad, lambda e: None)
    assert sim.queue_empty() and sim._seq == 0


def test_nan_issue_gap_fails_the_issue_instead_of_the_clock():
    """The hardware context's injector is a FIFOServer fed ``issue_gap``
    per message through ``occupy``."""
    from repro.netsim import NicParams
    from repro.netsim.nic import Nic
    from tests.helpers import hw_context

    sim = Simulator()
    ctx = hw_context(Nic(sim, NicParams(issue_gap=float("nan"))), 0)
    with pytest.raises(ValueError, match="service time must be non-negative"):
        ctx.issue(56)


def test_nan_default_service_time_no_longer_runs_the_clock_to_nan():
    """The reported reproduction: a NaN request, a Timeout and a second
    request used to end the run at ``now == nan``. The NaN request is
    refused and the run keeps its clock."""
    sim = Simulator()
    srv = FIFOServer(sim)
    with pytest.raises(ValueError):
        srv.submit(float("nan"))
    order = []
    srv.submit(0.0, callback=lambda e: order.append(("a", sim.now)))
    sim.timeout(1.0).add_callback(lambda e: order.append(("t", sim.now)))
    srv.submit(0.5, callback=lambda e: order.append(("b", sim.now)))
    sim.run()
    assert order == [("a", 0.0), ("b", 0.5), ("t", 1.0)]
    assert sim.now == 1.0
