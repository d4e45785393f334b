"""Start-up: a run loads only the layers it runs, and nothing else moves.

Every package root resolves its optional names on first use (PEP 562,
``repro._lazy``) and the optional layers load in the set-up that needs
them (DESIGN §2a). What that may not change, each checked in fresh
interpreters because this one has imported everything long ago:

- the lazy namespaces behave like eager ones (``__all__``, ``dir()``,
  ``from pkg import *``, the error for a name that does not exist);
- the import fences: one table (:data:`IMPORT_FENCES`) holds what
  ``import repro``, the kernel, a service and the CLI and serve front
  ends may load (no simulator for a service or the CLI, no numpy for a
  front end), and one Fig 1(a) point loads no layer it does not run (an
  unchecked World imports nothing of ``repro.check``, a checked one its
  checker, and neither numpy), and a process that submits to a service
  loads no event loop;
- the results: a run's state digest, trace and check report are the
  same bytes whether or not everything was imported first, and whether
  the checker was imported before a checked World or by it;
- the hot paths: a warmed-up Fig 1(a) point executes the same number of
  import statements at 1 and at 64 cores, and a service loads a job
  kind with its first job (numpy never, for sweep and selftest jobs) and
  nothing with the next.
"""

import builtins
import json
import os
import subprocess
import sys

import pytest

from repro.bench import MsgRateConfig, run_msgrate
from repro.netsim import NetworkConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every package whose root resolves names on first use.
LAZY_PACKAGES = ("repro", "repro.bench", "repro.check", "repro.faults",
                 "repro.mapping", "repro.mpi", "repro.netsim",
                 "repro.netsim.topology", "repro.obs", "repro.scenarios",
                 "repro.serve", "repro.snap")

FIG1A_MODES = ("everywhere", "threads-original", "threads-tags",
               "threads-comms", "threads-endpoints")

#: Layers a Fig 1(a) point never runs, checked or not. numpy is one: the
#: point's buffers are bytes (``repro.mpi.datatypes``).
NOT_IN_FIG1A = ("numpy", "repro.faults", "repro.scenarios", "repro.snap",
                "repro.mpi.coll", "repro.mpi.rma", "repro.mpi.partitioned",
                "repro.mpi.persistent", "repro.netsim.topology.generators",
                "repro.netsim.topology.routed", "repro.obs.chrome",
                "repro.obs.report", "repro.bench.report",
                "repro.netsim.traffic")


def _python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter on this tree; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=300,
                          cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout.strip()


def _loaded_by(code: str) -> set[str]:
    """The ``repro`` and ``numpy`` modules ``code`` adds to a fresh
    interpreter."""
    return set(json.loads(_python(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        + code +
        "\nprint(json.dumps(sorted(m for m in set(sys.modules) - before "
        "if m.partition('.')[0] in ('repro', 'numpy'))))\n")))


# -- the lazy namespaces ----------------------------------------------------
CONTRACT = """
import importlib, json, sys
name = sys.argv[1]
pkg = importlib.import_module(name)
problems = []
listed = dir(pkg)
problems += [f"dir() lacks {n}" for n in pkg.__all__ if n not in listed]
star = {}
exec(f"from {name} import *", star)
problems += [f"import * lacks {n}" for n in pkg.__all__ if n not in star]
for n in pkg.__all__:
    try:
        getattr(pkg, n)
    except AttributeError as exc:
        problems.append(f"{n}: {exc}")
try:
    pkg.no_such_name
    problems.append("no_such_name resolved")
except AttributeError as exc:
    problems.append(str(exc))
print(json.dumps(problems))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_namespace_behaves_like_an_eager_one(package):
    """A typo in a lazy table fails here, not at a user's first call."""
    problems = json.loads(_python(CONTRACT, package))
    assert problems == [
        f"module {package!r} has no attribute 'no_such_name'"]


# -- the import fences ------------------------------------------------------
#: One row a fence, keyed by its test id: ``(module, rule, prefixes)``.
#: What importing ``module`` may load beside the ``repro`` root:
#: ``"only"`` prefixes are all it may load, ``"not"`` prefixes what it
#: must not. A prefix names a module and every module below it.
IMPORT_FENCES = {
    "repro": ("repro", "only", ("repro.errors",)),
    "repro.sim.core": ("repro.sim.core", "only", ("repro.sim",)),  # kernel
    # A service orchestrates points its workers simulate: its store keys
    # on the state format version (``repro.snap.version``) and its
    # registry counts requests, and neither loads the MPI library, the
    # fabric or the kernel.
    "repro.serve.orchestrator": ("repro.serve.orchestrator", "not",
                                 ("repro.mpi", "repro.netsim",
                                  "repro.sim.core")),
    # ``repro submit``, ``repro jobs`` and a ``repro serve`` parent never
    # simulate: the CLI lists the Fig 1(a) modes from ``repro.bench``,
    # whose root loads nothing, and imports what a command runs in its
    # handler.
    "repro.cli-no-simulator": ("repro.cli", "not",
                               ("repro.sim", "repro.mpi", "repro.netsim")),
    # numpy loads where a run computes with it: a service loads it with
    # its first campaign or scenarios job, not when it is imported or
    # started.
    "repro.cli": ("repro.cli", "not", ("numpy",)),
    "repro.serve.http": ("repro.serve.http", "not", ("numpy",)),
    "repro.serve.service": ("repro.serve.service", "not", ("numpy",)),
    "repro.serve.worker": ("repro.serve.worker", "not", ("numpy",)),
}


@pytest.mark.parametrize("fence", IMPORT_FENCES)
def test_an_import_loads_only_what_it_may(fence):
    module, rule, prefixes = IMPORT_FENCES[fence]
    loaded = _loaded_by(f"import {module}") - {"repro"}
    fenced = {m for m in loaded
              if any(m == p or m.startswith(p + ".") for p in prefixes)}
    assert sorted(loaded - fenced if rule == "only" else fenced) == []


@pytest.mark.parametrize("checked", [False, True],
                         ids=["unchecked", "checked"])
def test_a_fig1a_point_loads_no_layer_it_does_not_run(checked):
    run = "run_msgrate(MsgRateConfig(mode=mode, cores=4, msgs_per_core=4))"
    if checked:
        run = f"from repro.check import checking\n    with checking():\n" \
              f"        {run}"
    loaded = _loaded_by(
        "from repro.bench import MODES, MsgRateConfig, run_msgrate\n"
        "for mode in MODES:\n"
        f"    {run}\n")
    if checked:
        assert "repro.check.checker" in loaded
        assert sorted(m for m in loaded if m.startswith(NOT_IN_FIG1A)) == []
    else:  # only a World that checks imports the checker
        assert sorted(m for m in loaded if m.startswith(
            NOT_IN_FIG1A + ("repro.check", "repro.obs"))) == []


#: A fresh interpreter holding ``World`` and nothing of ``repro.check``.
FRESH_WORLD = """
import json, sys
from repro.runtime import World
assert not [m for m in sys.modules if m.startswith("repro.check")]
"""


def test_a_world_with_check_true_imports_and_installs_its_checker():
    report = json.loads(_python(FRESH_WORLD + """
world = World(check=True)
from repro.check import CheckConfig
print(json.dumps({"checker": type(world.checker).__qualname__,
                  "installed": world.sim.checker is world.checker,
                  "defaults": world.checker.config == CheckConfig()}))
"""))
    assert report == {"checker": "Checker", "installed": True,
                      "defaults": True}


def test_a_world_in_a_checking_block_adopts_its_config():
    report = json.loads(_python(FRESH_WORLD + """
from repro.check import CheckConfig, checking
config = CheckConfig(mode="raise", emit_warnings=False)
with checking(config) as session:
    world = World()
    off = World(check=False)
print(json.dumps({"adopted": world.checker.config is config,
                  "off": off.checker is None,
                  "listed": [w is world for w in session.worlds]}))
"""))
    assert report == {"adopted": True, "off": True, "listed": [True, False]}


def test_an_unchecked_worlds_report_is_clean_without_the_checker():
    report = json.loads(_python(FRESH_WORLD + """
world = World()
report = world.check_report()
print(json.dumps({"checker": world.checker, "clean": report.clean,
                  "checker_loaded": "repro.check.checker" in sys.modules}))
"""))
    assert report == {"checker": None, "clean": True,
                      "checker_loaded": False}


#: One checked Fig 1(a) point, its World built with ``check=True``;
#: argv[1] is ``before`` to import the checker first.
CHECKED_POINT = """
import hashlib, json, sys
if sys.argv[1] == "before":
    import repro.check.checker
from repro.apps import harness
from repro.bench import MsgRateConfig, run_msgrate
from repro.sim.trace import Tracer
assert ("repro.check" in sys.modules) == (sys.argv[1] == "before")
worlds = []


class CheckedWorld(harness.World):
    def __init__(self, **kwargs):
        super().__init__(check=True, **kwargs)
        worlds.append(self)


harness.World = CheckedWorld
tracer = Tracer()
run_msgrate(MsgRateConfig(mode="threads-comms", cores=8, msgs_per_core=16),
            tracer=tracer)
from repro.snap import capture_state, state_digest
(world,) = worlds
trace = repr([(r.time, r.category.name, r.payload) for r in tracer.records])
print(json.dumps({
    "checked": world.checker is not None,
    "digest": state_digest(capture_state(world)),
    "trace": hashlib.sha256(trace.encode()).hexdigest(),
    "records": len(tracer.records),
    "report": world.check_report().render()}))
"""


def test_a_checked_point_is_the_same_whoever_imports_the_checker():
    """The CHK text, the trace and the state digest (which holds the
    checker's clocks) of a checked Fig 1(a) point are the same bytes
    whether the checker was imported before the World or by it."""
    by_world = json.loads(_python(CHECKED_POINT, "by-world"))
    before = json.loads(_python(CHECKED_POINT, "before"))
    assert by_world["checked"] and by_world["records"] > 0
    assert by_world == before


#: What a submitting process never loads: what only a serving process
#: runs (the event loop and the service's own layers), TLS, and the
#: process-pool package (serve processes are forked with ``os.fork``).
SERVER_ONLY = ("asyncio", "ssl", "multiprocessing",
               "repro.serve.orchestrator", "repro.serve.http",
               "repro.serve.worker")


#: A fresh interpreter that imports the client side every way there is,
#: then forks a service and runs ``repro submit`` against it to the
#: result; its last line lists the server-only modules it holds.
SUBMITTER = """
import contextlib, io, json, os, sys, tempfile
from repro.serve.client import ServeClient
from repro.serve.service import spawn_service
from repro import serve
from repro.serve import ServeClient
from repro.cli import main
with tempfile.TemporaryDirectory() as state:
    job = os.path.join(state, "job.yaml")
    with open(job, "w") as fh:
        fh.write("kind: selftest\\nspec: {n: 2}\\n")
    handle = spawn_service(os.path.join(state, "s"), workers=1)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["submit", "--state-dir", handle.state_dir, job])
    finally:
        handle.stop()
assert code == 0 and json.loads(out.getvalue())["status"] == "done"
print(json.dumps([m for m in sys.argv[1:] if m in sys.modules]))
"""


def test_a_submitting_process_loads_no_server():
    """The client, ``spawn_service``, the package root and a whole
    ``repro submit`` (a YAML job parsed, POSTed and waited for) are all
    a submitting process runs; the forked service child loads the event
    loop, the orchestrator, the HTTP API and the workers."""
    loaded = json.loads(_python(SUBMITTER, *SERVER_ONLY).splitlines()[-1])
    assert loaded == []


#: Forks a service with one worker from a lean interpreter; prints which
#: of the extensions in argv each of the two processes maps.
SERVE_MAPS = """
import json, sys, tempfile, time
from repro.serve.service import spawn_service


def mapped(pid):
    with open(f"/proc/{pid}/maps", encoding="utf-8") as fh:
        maps = fh.read()
    return [name for name in sys.argv[1:] if f"/{name}." in maps]


with tempfile.TemporaryDirectory() as state:
    handle = spawn_service(state, workers=1)
    try:
        while not handle.worker_pids():
            time.sleep(0.01)
        print(json.dumps({"service": mapped(handle.pid),
                          "worker": mapped(handle.worker_pids()[0])}))
    finally:
        handle.stop()
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/<pid>/maps")
def test_a_serve_process_maps_no_tls_and_no_process_pool():
    """The service imports asyncio without ``ssl`` and forks its workers
    with ``os.fork``: neither it nor its worker maps OpenSSL's binding
    or the process-pool package's extension."""
    report = json.loads(_python(SERVE_MAPS, "_ssl", "_multiprocessing"))
    assert report == {"service": [], "worker": []}


# -- results do not depend on what was imported first --------------------------
DETERMINISM = """
import hashlib, json, sys
eager, case = sys.argv[1] == "eager", sys.argv[2]
if eager:
    import repro
    from repro import *  # noqa: F403
from repro.check import CheckConfig, checking
from repro.check.session import Session
from repro.sim.trace import Tracer

tracer = Tracer()
if case == "scenario":
    from repro.scenarios import sample_scenarios
    from repro.scenarios.apps import get_app, spec_env
    spec = next(s for s in sample_scenarios(42, 48)
                if s.faults is not None and s.topology != "direct")
    adapter = get_app(spec.app)
    config = adapter.build(spec)
    env = spec_env(spec)
    if "seed" not in config.__dataclass_fields__:
        env["seed"] = spec.seed
    with checking(CheckConfig(mode="warn", emit_warnings=False)) as session:
        adapter.load()[1](config, tracer=tracer, **env)
else:
    from repro.bench import MsgRateConfig, run_msgrate
    block = checking(CheckConfig(emit_warnings=False)) \\
        if case == "fig1a-checked" else Session()
    with block as session:
        run_msgrate(MsgRateConfig(mode="threads-comms", cores=8,
                                  msgs_per_core=16),
                    tracer=tracer)
from repro.snap import capture_state, state_digest
trace = repr([(r.time, r.category.name, r.payload) for r in tracer.records])
print(json.dumps({
    "digest": state_digest(capture_state(session.worlds[-1])),
    "trace": hashlib.sha256(trace.encode()).hexdigest(),
    "records": len(tracer.records),
    "report": session.report().render()}))
"""


@pytest.mark.parametrize("case", ["fig1a", "fig1a-checked", "scenario"])
def test_results_do_not_depend_on_what_was_imported_first(case):
    """Registries and anything else filled at import time: the state
    digest, the traced records and the check report are the same bytes
    after importing one front end as after ``from repro import *``."""
    lazy = json.loads(_python(DETERMINISM, "lazy", case))
    eager = json.loads(_python(DETERMINISM, "eager", case))
    assert lazy["records"] > 0
    assert lazy == eager


# -- hot paths ------------------------------------------------------------------
def _imports_during(fn) -> int:
    """How many import statements ``fn()`` executes."""
    count = 0
    original = builtins.__import__

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return original(*args, **kwargs)

    builtins.__import__ = counting
    try:
        fn()
    finally:
        builtins.__import__ = original
    return count


@pytest.mark.parametrize("mode", FIG1A_MODES)
def test_a_fig1a_point_imports_nothing_per_message(mode):
    """Set-up may import once per point; a per-process, per-thread or
    per-message import would make the 64-core point count more."""
    def point(cores):
        return lambda: run_msgrate(
            MsgRateConfig(mode=mode, cores=cores, msgs_per_core=16),
            net=NetworkConfig.omnipath())
    point(2)()  # warm up: every first-use import happens here
    assert _imports_during(point(1)) == _imports_during(point(64))


SERVED = """
import json, os, sys, tempfile, threading, time
from repro.serve.client import ServeClient
from repro.serve.service import run_service


def numpy_mapped(pid):
    # Whether numpy's core extension is in pid's address space (None
    # where there is no /proc).
    try:
        with open(f"/proc/{pid}/maps", encoding="utf-8") as fh:
            return "_multiarray_umath" in fh.read()
    except OSError:
        return None


def sweep(cores):
    return {"params": {"mode": ["threads-comms"], "cores": [cores],
                       "msgs_per_core": [2]}}


def run(client, kind, spec):
    job_id = client.submit(kind, spec)["job_id"]
    client.wait(job_id, poll=0.01)
    return client.result(job_id)


def loaded(pids):
    return {"service": "numpy" in sys.modules,
            "workers": [numpy_mapped(pid) for pid in pids]}


with tempfile.TemporaryDirectory() as state:
    service = threading.Thread(target=run_service, args=(state,),
                               kwargs={"workers": 1}, daemon=True)
    service.start()
    discovery = os.path.join(state, "serve.json")
    while not os.path.exists(discovery):
        time.sleep(0.01)
    with open(discovery, encoding="utf-8") as fh:
        path = json.load(fh)["socket"]
    report = {}
    with ServeClient(path) as client:
        while not client.healthz()["workers"]:
            time.sleep(0.01)
        pids = [w["pid"] for w in client.healthz()["workers"].values()]
        run(client, "sweep", sweep(2))
        run(client, "selftest", {"n": 2})
        report["lean"] = loaded(pids)
        campaign = run(client, "campaign", {"seed": 42, "n": 48})
        specs = [point["spec"] for point in campaign["points"]]
        run(client, "scenarios", {"specs": specs[:2]})
        report["campaign"] = loaded(pids)
        before = set(sys.modules)
        run(client, "sweep", sweep(3))
        run(client, "selftest", {"n": 3})
        run(client, "campaign", {"seed": 43, "n": 48})
        run(client, "scenarios", {"specs": specs[2:4]})
        client.metrics()
        report["added"] = sorted(set(sys.modules) - before)
        client.shutdown()
    service.join(30)
    assert not service.is_alive()
    print(json.dumps(report))
"""


def test_a_job_kind_loads_with_its_first_job():
    """DESIGN §2a: a service preloads nothing. Sweep and selftest jobs
    leave numpy out of the service and its worker alike; a campaign job
    brings it into both (which shows the probes see it); and once a kind
    has run, a second job of it (submit, poll, fetch) imports nothing.
    The first campaign's 48 scenarios sample every app: a campaign that
    samples an app no earlier one did loads that app's modules."""
    report = json.loads(_python(SERVED))
    on_linux = sys.platform.startswith("linux")
    assert report["lean"] == {"service": False,
                              "workers": [False] if on_linux else [None]}
    assert report["campaign"] == {"service": True,
                                  "workers": [True] if on_linux else [None]}
    assert report["added"] == []
