"""Executed Python opcodes per simulated message: a host-cost census that
is exact run to run, and the gate that holds the committed census.

    PYTHONPATH=src python benchmarks/opcount.py [--size full|quick] [--top N]
    PYTHONPATH=src python benchmarks/opcount.py --check TABLE

Runs the Fig 1(a) grid of ``benchmarks/stack/workloads.py`` — its
``MODES`` x ``SIZES[size]["cores"]``, ``msgs_per_core`` messages per
core, on ``NetworkConfig.omnipath()`` — once with the checker off and
once on, each point exactly as the ``fig1a_eager`` / ``fig1a_checked``
workloads time it, under ``sys.settrace`` opcode events. It prints the
opcodes executed per simulated message: in all, by ``repro`` module, and
for the checker (``repro/check``) by mode and by function. Last, it
prints kernel events per simulated message by the qualified name of each
event's first callback, for every mode of the grid and for the chaos
sample of ``workloads.py`` at the same size (its ``scenarios`` count from
``CAMPAIGN_SEED``), and the ``Timeout`` events that sample builds per
scenario by call site (a task's sleep is a yielded delay and builds
none).

Opcodes miss what a message costs in host objects, so two more tables
count those: the generators started per simulated message, by function
(each mode of the unchecked grid, and the grid), and the host objects
alive at the busiest sampled step of the grid's busiest point (64
``everywhere`` ranks, at the size's messages per core), by type. An
object is one ``gc.get_objects()`` lists that the point added: sampled
every ``LIVE_INTERVAL`` kernel steps, the busiest sample is the one
with the most.

A wall clock on a shared host moves several per cent between runs of
the same tree; a step that small (a fused hook, a cheaper join) cannot
be told from noise there, and it can here: the counts depend only on the
code and the CPython minor version. Every mode runs once untraced first,
so imports stay out of the counts, and the garbage collector is off
while a point is traced, so no finalizer runs inside one point's count
at another's expense. Tracing makes a run ~20x slower; ``--size full``
takes a few minutes.

``--size serve`` is the census of a warm ``POST /jobs`` of the
``served_warm`` job instead (the ``full`` grid, 35 points, every one in
the store), in two columns, by module and by function: the opcodes the
service executes per POST, and those ``ServeClient.submit`` executes.
Both run in this process with no socket. The service's request bytes
are the ones a ``ServeClient`` sends (the document's canonical JSON),
fed to one HTTP connection protocol over an in-memory transport, which
answers each request inside the call that feeds it. One cold job fills
the store and a few warm ones load what a warm POST loads, all
untraced; then ``SERVE_POSTS`` warm POSTs are counted. The client's
socket is in memory too: it keeps what the client sends, which must be
those request bytes, and answers every read with the response the
service wrote to one more POST of them.

``--check TABLE`` re-runs the census at the size TABLE was recorded at
(``benchmarks/results/opcount_quick.txt`` and ``opcount_serve.txt`` in
CI) and exits 1 when any row of TABLE's gated tables (opcodes by
module, kernel events by first callback, generators by function, live
objects by type), in any column, rises more than 2 % over it; it exits
2, naming both, when TABLE was recorded on another CPython minor
version (the counts are that version's bytecode). A change that means
to raise a row re-records the table and says why.
"""

from __future__ import annotations

import argparse
import dis
import gc
import inspect
import os
import platform
import sys
from collections import Counter
from functools import lru_cache
from typing import Any, Callable

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "stack"))

from workloads import CAMPAIGN_SEED, MODES, SIZES  # noqa: E402  (the grid)

#: Name of the checker's package in ``module_of``'s keys.
CHECK = "repro/check/"

#: How far a gated row may rise over the committed table.
TOLERANCE = 0.02

#: The serve census's size: the ``served_warm`` job of the full grid.
SERVE = "serve"

#: Warm POSTs counted by the serve census (each costs the same).
SERVE_POSTS = 20

#: The census's header line names the CPython it ran on; a table from
#: another minor version cannot gate this one.
PYTHON = f"{platform.python_implementation()} {platform.python_version()}"

#: The point whose live host objects are sampled: the grid's busiest.
LIVE_POINT = ("everywhere", 64)

#: Kernel steps between two samples of the live host objects.
LIVE_INTERVAL = 32

#: What a sleeping task's wake-up is named in the event census: the
#: callback of the Timeout its entry stands for in every schedule view.
WAKE_UP = "Process._resume"

#: The first column's heading of each gated table -> the decimals its
#: values are printed, and compared, with.
GATED = {"module": 0, "callback": 2, "generator": 2, "type": 0}


def count_opcodes(fn: Callable[[], Any]) -> tuple[Any, Counter]:
    """``(fn(), opcodes executed per code object)`` with the collector
    off, restored to the caller's state after; only Python frames
    count, the tracer's own excluded."""
    counts: Counter = Counter()

    def on_event(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return on_event

    def on_call(frame, _event, _arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_event

    was_enabled = gc.isenabled()
    gc.disable()
    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(None)
        if was_enabled:
            gc.enable()
    return result, counts


@lru_cache(maxsize=None)
def _first_resume(code) -> int:
    """Offset of ``code``'s first ``RESUME``: a generator frame that calls
    in at or before it is starting, not resuming after a yield (-1 where
    the bytecode has no ``RESUME``, and a starting frame reads -1)."""
    return next((ins.offset for ins in dis.get_instructions(code)
                 if ins.opname == "RESUME"), -1)


def is_start(frame) -> bool:
    """Whether a profiler's ``call`` of ``frame`` starts a generator."""
    code = frame.f_code
    return bool(code.co_flags & inspect.CO_GENERATOR) \
        and frame.f_lasti <= _first_resume(code)


def count_events(fn: Callable[[], Any]) -> tuple[Counter, Counter, int]:
    """``(kernel events by first callback, generators started by
    function, messages)`` over the Worlds ``fn()`` builds.

    A profiler sees every Python callable the dispatch loop calls; the
    first one per step names the event. The loop wakes a sleeping task
    itself, so a generator it calls is a wake-up, named ``WAKE_UP``.
    Events whose callbacks list is empty count as ``(no callback)``. The
    same profiler sees every generator start. A message is a completed
    receive, the denominator of ``sim.events_per_msg``.
    """
    from repro.runtime.world import World
    from repro.sim.core import Simulator

    loop = Simulator.run_steps.__code__
    kinds: Counter = Counter()
    starts: Counter = Counter()
    worlds: list[Any] = []
    last: list[Any] = [None, -1]  # (simulator, step) counted last

    def on_profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if is_start(frame):
            starts[f"{module_of(code)}:{code.co_qualname}"] += 1
        caller = frame.f_back
        if caller is None or caller.f_code is not loop:
            return
        sim = caller.f_locals["self"]
        if sim is not last[0] or sim.steps != last[1]:
            last[:] = [sim, sim.steps]
            kinds[WAKE_UP if code.co_flags & inspect.CO_GENERATOR
                  else code.co_qualname] += 1

    init = World.__dict__["__init__"]

    def tracked_init(world, *args, **kwargs):
        init(world, *args, **kwargs)
        worlds.append(world)

    World.__init__ = tracked_init
    sys.setprofile(on_profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        World.__init__ = init
    events = sum(world.sim.steps for world in worlds)
    kinds["(no callback)"] = events - sum(kinds.values())
    messages = sum(proc.lib.recvs_completed
                   for world in worlds for proc in world.procs)
    return kinds, starts, messages


def type_name(cls: type) -> str:
    """A type's name in the live-object table: builtins bare, the rest
    with their module."""
    if cls.__module__ == "builtins":
        return cls.__qualname__
    return f"{cls.__module__}.{cls.__qualname__}"


def count_live_objects(fn: Callable[[], Any]) -> tuple[int, int, Counter]:
    """``(busiest step, steps, objects by type then)`` of the one World
    ``fn()`` runs: every ``LIVE_INTERVAL`` kernel steps (at the step's first
    Python call, before its event runs), the objects ``gc.get_objects()``
    lists beyond those alive before ``fn()``; the busiest sample is the
    one with the most, the earliest of equals."""
    from repro.sim.core import Simulator

    loop = Simulator.run_steps.__code__
    gc.collect()
    before = Counter(map(type, gc.get_objects()))
    busiest: list[Any] = [-1, -1, Counter()]  # step, total, by type
    last: list[Any] = [None, -1]

    def on_profile(frame, event, _arg):
        if event != "call":
            return
        caller = frame.f_back
        if caller is None or caller.f_code is not loop:
            return
        sim = caller.f_locals["self"]
        step = sim.steps
        if step % LIVE_INTERVAL or (sim is last[0] and step == last[1]):
            return
        last[:] = [sim, step]
        alive = Counter(map(type, gc.get_objects()))
        alive.subtract(before)
        alive = +alive  # what the point added
        total = sum(alive.values())
        if total > busiest[1]:
            busiest[:] = [step, total, alive]

    sys.setprofile(on_profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    steps = last[0].steps if last[0] is not None else 0
    step, _total, alive = busiest
    return step, steps, Counter({type_name(cls): n
                                 for cls, n in alive.items()})


def count_timeouts(fn: Callable[[], Any]) -> Counter:
    """Timeouts built while ``fn()`` runs, by call site: ``module:function``
    of the first frame outside the kernel, ``sim.timeout``'s caller."""
    from repro.sim.core import Simulator, Timeout

    kernel = Simulator.timeout.__code__.co_filename
    init = Timeout.__init__
    sites: Counter = Counter()

    def counting_init(self, *args: Any) -> None:
        frame = sys._getframe(1)
        while frame.f_code.co_filename == kernel:
            frame = frame.f_back
        sites[f"{module_of(frame.f_code)}:{frame.f_code.co_name}"] += 1
        init(self, *args)

    Timeout.__init__ = counting_init
    try:
        fn()
    finally:
        Timeout.__init__ = init
    return sites


def module_of(code) -> str:
    """``repro/<path>.py`` for a frame of the package, else ``other``."""
    parts = code.co_filename.replace(os.sep, "/").split("/")
    if "repro" not in parts:
        return "other (stdlib, numpy)"
    return "/".join(parts[len(parts) - 1 - parts[::-1].index("repro"):])


def config(mode: str, cores: int, msgs: int) -> Any:
    """A grid point's config, built outside the count (the workload
    builds it outside its timed operation)."""
    from repro.bench import MsgRateConfig
    return MsgRateConfig(mode=mode, cores=cores, msg_bytes=8, window=16,
                         seed=0, msgs_per_core=msgs)


def run_point(cfg: Any, checked: bool) -> int:
    """One grid point as the stack workload times it; returns messages."""
    from repro.bench import run_msgrate
    from repro.check import CheckConfig, checking
    from repro.netsim import NetworkConfig

    if not checked:
        return run_msgrate(cfg, net=NetworkConfig.omnipath()).messages
    with checking(CheckConfig(emit_warnings=False)) as session:
        result = run_msgrate(cfg, net=NetworkConfig.omnipath())
        if not session.report().clean:
            raise SystemExit(f"checker findings on {cfg}")
        session.close()
    return result.messages


def census(size: str, checked: bool) -> dict[str, tuple[int, Counter]]:
    """mode -> (messages, opcodes per code object) over the grid."""
    sizes = SIZES[size]
    for mode in MODES:  # imports and first-use caches, untraced
        run_point(config(mode, 2, 2), checked)
    out: dict[str, tuple[int, Counter]] = {}
    for mode in MODES:
        messages, counts = 0, Counter()
        for cores in sizes["cores"]:
            cfg = config(mode, cores, sizes["msgs_per_core"])
            gc.collect()
            sent, point = count_opcodes(lambda: run_point(cfg, checked))
            messages += sent
            counts.update(point)
        out[mode] = (messages, counts)
    return out


def event_census(size: str) -> tuple[dict[str, tuple[int, Counter]],
                                      dict[str, tuple[int, Counter]],
                                      Counter]:
    """``(column -> (messages, kernel events by first callback), mode ->
    (messages, generators started by function), chaos Timeouts by call
    site)``: each mode of the unchecked grid, then ``chaos`` (events
    only)."""
    from repro.scenarios import run_scenario, sample_scenarios
    sizes = SIZES[size]
    out: dict[str, tuple[int, Counter]] = {}
    generators: dict[str, tuple[int, Counter]] = {}
    for mode in MODES:
        kinds, starts, messages = count_events(lambda: [
            run_point(config(mode, cores, sizes["msgs_per_core"]), False)
            for cores in sizes["cores"]])
        out[mode] = (messages, kinds)
        generators[mode] = (messages, starts)
    specs = sample_scenarios(CAMPAIGN_SEED, sizes["scenarios"])
    timeouts: Counter = Counter()

    def chaos() -> None:
        timeouts.update(count_timeouts(lambda: [run_scenario(spec)
                                                for spec in specs]))

    kinds, _starts, messages = count_events(chaos)
    out["chaos"] = (messages, kinds)
    return out, generators, timeouts


def live_census(size: str) -> tuple[int, int, int, Counter]:
    """``(messages, busiest step, steps, live objects by type)`` of the
    ``LIVE_POINT`` at ``size``'s messages per core. A first sampled run
    is discarded: it builds what the point and the sampler build on
    first use (an ABC's instance cache, a NIC's pristine record)."""
    mode, cores = LIVE_POINT
    cfg = config(mode, cores, SIZES[size]["msgs_per_core"])
    sent: list[int] = []
    count_live_objects(lambda: sent.append(run_point(cfg, False)))
    return (sent[0],
            *count_live_objects(lambda: run_point(cfg, False)))


def event_rows(events: dict[str, tuple[int, Counter]]
               ) -> dict[str, list[float]]:
    """``row -> [per column...]`` kernel events per message: ``(all)``,
    then every first callback, most events first over all columns."""
    kinds = Counter()
    for _sent, counts in events.values():
        kinds.update(counts)
    rows = {"(all)": [sum(counts.values()) / sent
                      for sent, counts in events.values()]}
    for name, _n in kinds.most_common():
        rows[name] = [counts[name] / sent for sent, counts in events.values()]
    return rows


def generator_rows(generators: dict[str, tuple[int, Counter]]
                   ) -> dict[str, list[float]]:
    """``row -> [per mode..., grid]`` generators started per message:
    ``(all)``, then every function, by the grid's count."""
    grid = Counter()
    for _sent, starts in generators.values():
        grid.update(starts)
    columns = [*generators.values(),
               (sum(sent for sent, _ in generators.values()), grid)]
    rows = {"(all)": [sum(starts.values()) / sent
                      for sent, starts in columns]}
    for name, _n in grid.most_common():
        rows[name] = [starts[name] / sent for sent, starts in columns]
    return rows


def live_rows(live: tuple[int, int, int, Counter]) -> dict[str, list[float]]:
    """``row -> [live]``: ``(all)``, then every type, most first."""
    alive = live[3]
    rows = {"(all)": [float(sum(alive.values()))]}
    rows.update((name, [float(n)]) for name, n in alive.most_common())
    return rows


class _MemoryTransport:
    """The transport an HTTP connection protocol writes to, in memory.
    ``write`` is a builtin, so the census counts none of its opcodes."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.write = self.written.extend


class _ReplaySocket:
    """A client's connected socket, in memory: ``sendall`` keeps what the
    client sends, and every ``recv`` of ``READ_SIZE`` bytes returns one
    recorded ``response``. Both are builtins (a list's ``append``, a
    dict's ``get``), so the census counts none of their opcodes."""

    def __init__(self, response: bytes) -> None:
        from repro.serve.protocol import READ_SIZE
        self.sent: list[bytes] = []
        self.sendall = self.sent.append
        self.recv = {READ_SIZE: response}.get

    def close(self) -> None:
        """Nothing to release."""


def serve_census() -> tuple[Counter, Counter]:
    """Opcodes per code object over ``SERVE_POSTS`` warm ``POST /jobs``
    of the ``served_warm`` job: ``(service, client)``. The service's are
    fed to one connection of an in-process service whose store holds
    every point; the client's are ``ServeClient.submit`` calls on a
    socket that replays the service's response to one more POST."""
    import tempfile

    from repro.serve.client import ServeClient
    from repro.serve.http import HttpApi, _Connection
    from repro.serve.orchestrator import Orchestrator
    from repro.serve.protocol import CANONICAL_JSON

    sizes = SIZES["full"]
    spec = {"params": {"mode": MODES, "cores": sizes["cores"],
                       "msgs_per_core": [sizes["warm_msgs_per_core"]],
                       "seed": [1]}}
    # The bytes a ServeClient sends: the job document's canonical JSON.
    body = CANONICAL_JSON.encode({"kind": "sweep", "spec": spec}).encode()
    post = (b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
            % len(body)) + body
    with tempfile.TemporaryDirectory() as state:
        orch = Orchestrator(state)
        try:
            orch.submit("sweep", spec)
            orch.drain_inline()  # the cold fill
            connection = _Connection(HttpApi(orch))
            transport = _MemoryTransport()
            connection.connection_made(transport)
            for _ in range(3):  # first warm POSTs: imports, first uses
                connection.data_received(post)
            gc.collect()
            start = len(orch.jobs)

            def posts() -> None:
                for _ in range(SERVE_POSTS):
                    connection.data_received(post)

            _result, counts = count_opcodes(posts)
            done = [orch.jobs[job_id] for job_id in orch.job_ids()[start:]]
            if len(done) != SERVE_POSTS or any(
                    job.status != "done" or job.cache_hits != job.total
                    for job in done):
                raise SystemExit("a counted POST was not answered warm")
            last = len(transport.written)
            connection.data_received(post)  # the response to replay
            response = bytes(transport.written[last:])
        finally:
            orch.close()
    client = ServeClient("census.sock")  # never dialled: _sock is set
    client._sock = sock = _ReplaySocket(response)

    def submits() -> list[dict]:
        return [client.submit("sweep", spec) for _ in range(SERVE_POSTS)]

    submits()  # first uses, untraced
    answers, client_counts = count_opcodes(submits)
    client.close()
    if sock.sent != [post] * (2 * SERVE_POSTS) or any(
            doc["status"] != "done" or doc["cache_hits"] != doc["total"]
            for doc in answers):
        raise SystemExit("the client sent other bytes than the census "
                         "POST, or read another answer than a warm one")
    return counts, client_counts


#: The serve census's columns: opcodes per warm POST in each process.
SERVE_COLUMNS = ("service", "client")


def serve_rows(counts: tuple[Counter, Counter]) -> dict[str, list[float]]:
    """``row -> [service, client] opcodes per warm POST``: ``all``, then
    every module either side runs, by the sum of both."""
    modules = [_by(side, module_of) for side in counts]
    rows = {"all": [sum(side.values()) / SERVE_POSTS for side in modules]}
    for name, _n in (modules[0] + modules[1]).most_common():
        rows[name] = [side[name] / SERVE_POSTS for side in modules]
    return rows


def render_serve(top: int, counts: tuple[Counter, Counter]) -> str:
    """The serve census as plain-text tables."""
    sizes = SIZES["full"]
    points = len(MODES) * len(sizes["cores"])
    service, client = SERVE_COLUMNS
    lines = [f"Executed opcodes per warm POST /jobs: served_warm grid "
             f"({SERVE}: {points} points, {len(MODES)} modes x cores "
             f"{sizes['cores']}, {sizes['warm_msgs_per_core']} msgs/core, "
             f"{SERVE_POSTS} POSTs), {PYTHON}", "",
             f"{'module':<36} {service:>10} {client:>10}"]
    lines += [f"{name:<36} {a:>10.0f} {b:>10.0f}"
              for name, (a, b) in serve_rows(counts).items()]
    for column, side in zip(SERVE_COLUMNS, counts):
        functions = _by(side, lambda code: f"{module_of(code)}:"
                        f"{code.co_qualname}")
        lines += ["", f"by function ({column})", "",
                  f"{'function':<60} {'per_POST':>10}"]
        lines += [f"{name[-60:]:<60} {n / SERVE_POSTS:>10.0f}"
                  for name, n in functions.most_common(top)]
    return "\n".join(lines) + "\n"


def _by(counts: Counter, key: Callable[[Any], str]) -> Counter:
    grouped: Counter = Counter()
    for code, n in counts.items():
        grouped[key(code)] += n
    return grouped


def module_rows(runs: dict[bool, dict]) -> tuple[int, dict[str, list[float]]]:
    """``(messages, row -> [unchecked, checked] opcodes per message)``:
    the ``all`` row and one per module, every module included."""
    totals = []
    for checked in (False, True):
        messages, counts = 0, Counter()
        for sent, point in runs[checked].values():
            messages += sent
            counts.update(point)
        totals.append((messages, counts))
    messages = totals[0][0]
    plain, checked = (_by(counts, module_of) for _n, counts in totals)
    rows = {"all": [sum(plain.values()) / messages,
                    sum(checked.values()) / messages]}
    for name, n in checked.most_common():
        rows[name] = [plain[name] / messages, n / messages]
    return messages, rows


def render(size: str, top: int, runs: dict[bool, dict],
           events: dict[str, tuple[int, Counter]],
           generators: dict[str, tuple[int, Counter]],
           timeouts: Counter, live: tuple[int, int, int, Counter]) -> str:
    """The census as plain-text tables."""
    messages, rows = module_rows(runs)
    sizes = SIZES[size]
    lines = [f"Executed opcodes per simulated message: Fig 1(a) grid "
             f"({size}: {len(MODES)} modes x cores {sizes['cores']}, "
             f"{sizes['msgs_per_core']} msgs/core, {messages} messages), "
             f"{PYTHON}", "",
             f"{'module':<36} {'unchecked':>10} {'checked':>10}"]
    lines += [f"{name:<36} {a:>10.0f} {b:>10.0f}"
              for name, (a, b) in list(rows.items())[:top + 1]]

    lines += ["", f"{CHECK} per message, by mode (checked run)", "",
              f"{'function':<36} " + " ".join(f"{m:>17}" for m in MODES)]
    per_mode = {mode: (sent, Counter({
        f"{module_of(code)[len(CHECK):]}:{code.co_qualname}": n
        for code, n in counts.items() if module_of(code).startswith(CHECK)}))
        for mode, (sent, counts) in runs[True].items()}
    names = Counter()
    for _sent, funcs in per_mode.values():
        names.update(funcs)

    def row(label: str, pick: Callable[[Counter], int]) -> str:
        return f"{label:<36} " + " ".join(
            f"{pick(funcs) / sent:>17.0f}"
            for sent, funcs in per_mode.values())

    lines.append(row(CHECK + " (all)", lambda funcs: sum(funcs.values())))
    lines += [row(name, lambda funcs, name=name: funcs[name])
              for name, _n in names.most_common(top)]

    shown = list(event_rows(events).items())[:top + 1]
    width = max(48, *(len(name) for name, _ in shown))
    lines += ["", f"Kernel events per simulated message, by first callback "
              f"(unchecked grid by mode; chaos: {sizes['scenarios']} "
              f"scenarios of seed {CAMPAIGN_SEED}, checker on)", "",
              f"{'callback':<{width}} "
              + " ".join(f"{c:>17}" for c in events)]
    lines += [f"{name:<{width}} " + " ".join(f"{v:>17.2f}" for v in values)
              for name, values in shown]

    scenarios = sizes["scenarios"]
    lines += ["", f"Timeouts built per chaos scenario, by call site "
              f"({scenarios} scenarios of seed {CAMPAIGN_SEED})", "",
              f"{'call site':<60} {'per_scenario':>12}",
              f"{'(all)':<60} {sum(timeouts.values()) / scenarios:>12.2f}"]
    lines += [f"{name[-60:]:<60} {n / scenarios:>12.2f}"
              for name, n in timeouts.most_common(top)]

    shown = list(generator_rows(generators).items())[:top + 1]
    width = max(56, *(len(name) for name, _ in shown))
    lines += ["", "Generators started per simulated message, by function "
              "(unchecked grid by mode, and the grid)", "",
              f"{'generator':<{width}} "
              + " ".join(f"{c:>17}" for c in [*generators, "grid"])]
    lines += [f"{name:<{width}} " + " ".join(f"{v:>17.2f}" for v in values)
              for name, values in shown]

    messages, step, steps, _alive = live
    mode, cores = LIVE_POINT
    lines += ["", f"Host objects alive at the busiest step of the {cores}-"
              f"core {mode} point, by type ({messages} messages; step "
              f"{step} of {steps}, sampled every {LIVE_INTERVAL} steps)", "",
              f"{'type':<56} {'live':>10}"]
    lines += [f"{name:<56} {value:>10.0f}"
              for name, (value,) in list(live_rows(live).items())[:top + 1]]
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> dict[str, Any]:
    """A rendered census's gated part: ``{"size", "python", "columns",
    "rows", "tables"}``. ``tables`` maps the first heading of each gated
    table (``GATED``) to its ``{"columns", "rows"}``, each row name to
    its values as printed; ``columns`` and ``rows`` are the ``module``
    table's (``all`` and each module)."""
    lines = text.splitlines()
    head = lines[0]
    size = head.split(" grid (", 1)[1].split(":", 1)[0]
    python = head.rsplit(", ", 1)[1]
    tables: dict[str, dict[str, Any]] = {}
    for i, line in enumerate(lines):
        heading = line.split(None, 1)[0] if line.strip() else ""
        if heading not in GATED or lines[i - 1].strip():
            continue
        columns = line.split()[1:]
        rows: dict[str, list[float]] = {}
        for row in lines[i + 1:]:
            if not row.strip():
                break
            name, *values = row.rsplit(None, len(columns))
            rows[name] = [float(value) for value in values]
        tables[heading] = {"columns": columns, "rows": rows}
    return {"size": size, "python": python, **tables["module"],
            "tables": tables}


def minor_version(python: str) -> str:
    """``CPython 3.11`` from ``CPython 3.11.7``."""
    impl, version = python.split()
    return f"{impl} {'.'.join(version.split('.')[:2])}"


def compare(committed: dict[str, list[float]],
            fresh: dict[str, list[float]],
            tolerance: float = TOLERANCE,
            columns: tuple[str, ...] = ("unchecked", "checked"),
            digits: int = 0) -> list[str]:
    """The committed rows ``fresh`` raises by more than ``tolerance``,
    each as a line naming row, column and both values. A row compares
    as printed (``digits`` decimals: whole opcodes by default); a row
    gone from ``fresh`` reads 0."""
    risen = []
    for name, old in committed.items():
        new = fresh.get(name, [0.0] * len(old))
        for column, before, after in zip(columns, old, new):
            after = round(after, digits)
            if after > before * (1.0 + tolerance):
                risen.append(f"{name} ({column}): {before:.{digits}f} -> "
                             f"{after:.{digits}f} "
                             f"(+{after / before - 1:.1%})"
                             if before else
                             f"{name} ({column}): 0 -> {after:.{digits}f}")
    return risen


def check(path: str, top: int) -> int:
    """Re-run the census ``path`` recorded and hold it to ``path``:
    0 when no gated row rose, 1 when one did, 2 across CPython minor
    versions."""
    with open(path, encoding="utf-8") as fh:
        table = parse_table(fh.read())
    if minor_version(table["python"]) != minor_version(PYTHON):
        print(f"{path} was recorded on {table['python']}; this is {PYTHON}. "
              f"Opcode counts are only comparable on one CPython minor "
              f"version: run the check on {minor_version(table['python'])} "
              f"or re-record the table.")
        return 2
    size = table["size"]
    if size == SERVE:
        counts = serve_census()
        print(render_serve(top, counts), end="")
        fresh = {"module": serve_rows(counts)}
    else:
        runs = {checked: census(size, checked) for checked in (False, True)}
        events, generators, timeouts = event_census(size)
        live = live_census(size)
        print(render(size, top, runs, events, generators, timeouts, live),
              end="")
        fresh = {"module": module_rows(runs)[1],
                 "callback": event_rows(events),
                 "generator": generator_rows(generators),
                 "type": live_rows(live)}
    risen = []
    for heading, committed in table["tables"].items():
        risen += compare(committed["rows"], fresh[heading],
                         columns=tuple(committed["columns"]),
                         digits=GATED[heading])
    if risen:
        print(f"\nopcount check FAILED against {path}: rows rose more than "
              f"{TOLERANCE:.0%}:")
        print("\n".join(f"  {line}" for line in risen))
        print("Re-record the table if the rise is meant, and say why.")
        return 1
    gated = sum(len(t["rows"]) for t in table["tables"].values())
    print(f"\nopcount check passed against {path} "
          f"({gated} rows, tolerance {TOLERANCE:.0%}).")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Print the census (0), or run ``--check`` (see :func:`check`)."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=sorted(SIZES) + [SERVE],
                    default="full",
                    help="the Fig 1(a) grid's size, or serve: opcodes per "
                         "warm POST /jobs of the served_warm job")
    ap.add_argument("--top", type=int, default=12,
                    help="modules, checker functions, callbacks, generators "
                         "and object types listed")
    ap.add_argument("--check", metavar="TABLE",
                    help="hold a fresh census to this committed table "
                         "(recorded at its own size; --size is ignored)")
    args = ap.parse_args(argv)
    if args.check:
        return check(args.check, args.top)
    if args.size == SERVE:
        print(render_serve(args.top, serve_census()), end="")
        return 0
    runs = {checked: census(args.size, checked) for checked in (False, True)}
    events, generators, timeouts = event_census(args.size)
    print(render(args.size, args.top, runs, events, generators, timeouts,
                 live_census(args.size)), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
