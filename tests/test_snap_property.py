"""Property battery: stop -> reproduce -> resume is byte-identical.

The contract is exact: for ANY workload, seed and mechanism, stopping a
run at ANY kernel step, reaching that state a second time through the
verifier (:func:`repro.snap.reproduce`), and running to completion must
produce a final state byte-identical to the uninterrupted run — final
metrics, trace digest, message bytes, and the simulated clock compare
with exact float equality, not tolerances. Hypothesis drives random
workload shapes (pt2pt, collectives, sendrecv rings, endpoints; with
and without instruments and fault injection) and random cut points.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.session import Session
from repro.faults import parse_plan
from repro.mpi.endpoints import comm_create_endpoints
from repro.obs import MetricsRegistry, Tracer
from repro.runtime import World
from repro.snap import capture_state, reproduce, state_digest

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])

KINDS = ("pt2pt", "allreduce", "ring", "endpoints")


@st.composite
def workload_specs(draw):
    kind = draw(st.sampled_from(KINDS))
    return {
        "kind": kind,
        "seed": draw(st.integers(0, 2**20)),
        "threads": draw(st.integers(1, 3)),
        "nmsg": draw(st.integers(2, 8)),
        # Spans the eager/rendezvous protocol switch.
        "nbytes": draw(st.sampled_from([8, 256, 4096, 32768])),
        "instruments": draw(st.booleans()),
        "faults": (draw(st.booleans())
                   if kind in ("pt2pt", "ring") else False),
    }


def make_build(spec):
    """A repeatable builder: each call returns a fresh world with the
    spec's workload spawned but nothing run."""
    elems = max(1, spec["nbytes"] // 8)

    def build():
        w = World(
            num_nodes=2, procs_per_node=1,
            threads_per_proc=spec["threads"], seed=spec["seed"],
            metrics=MetricsRegistry() if spec["instruments"] else None,
            tracer=Tracer() if spec["instruments"] else None,
            faults=(parse_plan("drop=0.03,dup=0.01")
                    if spec["faults"] else None))
        if spec["kind"] == "pt2pt":
            def sender(proc, tid):
                for i in range(spec["nmsg"]):
                    yield from proc.comm_world.Send(
                        np.full(elems, float(i)), dest=1,
                        tag=tid * 100 + i)

            def receiver(proc, tid):
                for i in range(spec["nmsg"]):
                    buf = np.zeros(elems)
                    yield from proc.comm_world.Recv(
                        buf, source=0, tag=tid * 100 + i)

            for tid in range(spec["threads"]):
                w.procs[0].spawn(sender(w.procs[0], tid))
                w.procs[1].spawn(receiver(w.procs[1], tid))
        elif spec["kind"] == "allreduce":
            def member(proc):
                data = np.arange(elems, dtype=np.float64) + proc.rank
                for _ in range(spec["nmsg"]):
                    out = np.zeros(elems)
                    yield from proc.comm_world.Allreduce(data, out)
            for proc in w.procs:
                proc.spawn(member(proc))
        elif spec["kind"] == "ring":
            def member(proc):
                comm = proc.comm_world
                n = comm.Get_size()
                for i in range(spec["nmsg"]):
                    out = np.full(elems, float(proc.rank))
                    buf = np.zeros(elems)
                    yield from comm.Sendrecv(
                        out, dest=(proc.rank + 1) % n, sendtag=i,
                        recvbuf=buf, source=(proc.rank - 1) % n,
                        recvtag=i)
                    yield from comm.Barrier()
            for proc in w.procs:
                proc.spawn(member(proc))
        else:  # endpoints
            nt = spec["threads"]

            def node(proc):
                eps = yield from comm_create_endpoints(proc.comm_world, nt)

                def thread(ep):
                    peer = (ep.rank + nt) % (2 * nt)
                    yield from ep.Send(np.full(elems, float(ep.rank)),
                                       dest=peer, tag=0)
                    buf = np.zeros(elems)
                    yield from ep.Recv(buf, source=peer, tag=0)
                for ep in eps:
                    proc.spawn(thread(ep))
            for proc in w.procs:
                proc.spawn(node(proc))
        return w

    return build


def _final_bytes(state):
    """Total message bytes issued across all NIC contexts."""
    return sum(ctx["bytes_issued"]
               for nic in state["nics"].values()
               for ctx in nic["contexts"])


@given(spec=workload_specs(), frac=st.floats(0.0, 1.0))
@SETTINGS
def test_snapshot_restore_run_is_byte_identical(spec, frac):
    """A stop at any cut is verified, its digest is the state
    ``run_steps(cut)`` reaches, and the verifier's second run, resumed,
    ends in the uninterrupted run's state."""
    build = make_build(spec)
    ref = build()
    ref.run()
    ref_state = capture_state(ref)
    total = ref.sim.steps
    assert total > 0
    cut = min(total - 1, int(total * frac))
    at_cut = build()
    at_cut.sim.run_steps(cut)

    def resumes_to_the_reference(world):
        world.run()
        state = capture_state(world)
        assert state_digest(state) == state_digest(ref_state)
        # The digest already covers these, but the contract is worth
        # naming: exact final metrics, trace, message bytes, and clock.
        assert state["metrics"] == ref_state["metrics"]
        assert state["trace"] == ref_state["trace"]
        assert _final_bytes(state) == _final_bytes(ref_state)
        assert state["kernel"]["now"] == ref_state["kernel"]["now"]

    # An end stop at the cut: a recipe that runs ``cut`` steps.
    built = []

    def upto_cut():
        built.append(build())
        built[-1].sim.run_steps(cut)

    record, _ = reproduce({}, upto_cut)
    assert record.verified and (record.world, record.step) == (0, cut)
    assert record.digest == state_digest(capture_state(at_cut))
    resumes_to_the_reference(built[-1])

    # A horizon stop at the cut's clock: the whole run, stopped by the
    # verifier's session after the last event at that time.
    built.clear()

    def whole_run():
        built.append(build())
        built[-1].run()

    record, _ = reproduce({}, whole_run, until=at_cut.sim.now)
    if record is None:  # no event lies beyond the cut's clock
        assert ref.sim.now == at_cut.sim.now
        return
    assert record.verified and record.world == 0 and record.step >= cut
    stopped = build()
    stopped.sim.run_steps(record.step)
    assert record.digest == state_digest(capture_state(stopped))
    assert built[-1].sim.steps == record.step
    resumes_to_the_reference(built[-1])


@given(spec=workload_specs(), cuts=st.lists(st.floats(0.0, 1.0), max_size=12))
@SETTINGS
def test_sliced_execution_is_invisible(spec, cuts):
    """A run stopped by a session at ANY set of steps, and resumed each
    time, has the same event count, clock and final state as one
    uninterrupted run."""
    build = make_build(spec)
    ref = build()
    ref.run()
    total = ref.sim.steps
    steps = sorted({max(1, round(total * cut)) for cut in cuts})
    pending, seen = list(steps), []
    session = Session()
    session.stop_step = pending.pop(0) if pending else None

    def on_stop(world):
        seen.append((world.sim.steps, state_digest(capture_state(world))))
        session.stop_step = pending.pop(0) if pending else None

    session.on_stop = on_stop
    with session:
        stopped = build()
        stopped.run()
    assert [step for step, _digest in seen] == steps
    for step, digest in seen:  # the state it stopped in is that step's
        cut = build()
        cut.sim.run_steps(step)
        assert state_digest(capture_state(cut)) == digest
    assert stopped.sim.steps == total
    assert state_digest(capture_state(stopped)) == \
        state_digest(capture_state(ref))
