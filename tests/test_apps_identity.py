"""Byte identity of the app layer, recorded on the commit *before* the
harness/channels refactor (PR 16) touched any driver.

Three pins, all of which a pure restructuring of ``repro.apps`` must leave
alone:

- every ``(app, mechanism)`` pair of :data:`APP_REGISTRY` (25 + ``racer``)
  at adapter-default size, through ``run_scenario``, under a lossless
  direct fabric *and* under a lossy fabric + reliable transport +
  background traffic + routed topology: ``(status, wall_time, digest)``;
- the sha-256 of ``run_stencil(...).final_field`` for one 5-, 9-, 7- and
  27-point configuration (the floating-point association order of the
  Jacobi kernels);
- that importing the CLI / scenario / serve / bench packages pulls in
  no ``repro.apps`` module, and that nothing under ``src/repro`` — by its
  import statements, and by ``sys.modules`` after a sample and one
  scenario of every app — loads a third-party package other than numpy
  and PyYAML. The Vite proxy imported networkx until PR 24: 358 more
  modules, 16 MiB and 0.18 s in a process that samples a campaign,
  15.7 MiB and 0.10 s of set-up on ``chaos_campaign`` (``BENCH_24.json``).

A digest that moves here means simulated bytes moved: thread names,
pending-callback qualnames, communicator names and the order of
collective set-up calls all enter the state digest.
"""

import ast
import hashlib
import os
import subprocess
import sys

import pytest

from repro.apps.harness import run_app
from repro.apps.stencil import StencilConfig, run_stencil
from repro.faults import FaultPlan, TransportParams
from repro.netsim.traffic import TrafficShape
from repro.scenarios import APP_REGISTRY, ScenarioSpec, run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The two environments every pair is pinned under.
ENVIRONMENTS = (
    {},
    dict(faults=FaultPlan(drop=0.05, dup=0.02),
         transport=TransportParams(rto=30e-6, max_retries=16),
         traffic=TrafficShape(kind="mice", flows=2, msgs_per_flow=4),
         traffic_seed=5, topology="fat_tree", topology_params={"k": 4}),
)

#: (app, mechanism) -> one (status, wall_time, digest) per environment.
IDENTITY = {
    ('stencil', 'original'): (
        ('ok', 2.89808e-06,
         '10a5b1f0da121701218ead177cdf6902705e5cc2f9698a5d7896b8ab435cb836'),
        ('ok', 6.380120000000001e-06,
         '64071d2e425c9cd919cfcd4c0ec8865299320e7d1f141c24bee7dc50d9c23d1a'),
    ),
    ('stencil', 'tags'): (
        ('ok', 2.89808e-06,
         '75e6bd8255770b332fd5ba82dbdf8d52d0207ae6a6cfa7cb5d70a7e342c21c49'),
        ('ok', 6.380120000000001e-06,
         'c31a0a33f8a1c80762d28d9690e40853ae97526f1be21a19bbd18afc2727bbf0'),
    ),
    ('stencil', 'communicators'): (
        ('ok', 2.89808e-06,
         'e0d00b2892ce7e63b5cc4c698acbaba4d831be05af75df756f5ef7dc531a30f4'),
        ('ok', 6.380120000000001e-06,
         '5f60066b346f7785b2625226d44ae02518311cec59027b5cebeb78a0b1d7d85f'),
    ),
    ('stencil', 'endpoints'): (
        ('ok', 2.89808e-06,
         '6d805bf73fe9b777905926820f31f84f135f589f115376a0638e972db39f2b1d'),
        ('ok', 6.380120000000001e-06,
         '4696a039d48c8dee362a1c7e380b30362e96d0053a9eea95eec7eca42c563f02'),
    ),
    ('stencil', 'partitioned'): (
        ('ok', 5.006799999999996e-06,
         '1b914b2de75fa313c221e81c879b7c21cee7c8ecc3dd6ed8d76514c6a97aac55'),
        ('ok', 4.084680000000079e-05,
         'b7847f81d4d39fc7fd33d2bedeaf735ef5d20ce9d6ffcda42315594454483a99'),
    ),
    ('legion', 'original'): (
        ('ok', 4.241500000000007e-05,
         '22e3c4ee76c2548e08bf2c684ee8e7e3f5e72a136f7a8741ee7f228364e592ec'),
        ('ok', 4.329000000000009e-05,
         '59e317abddbec1b1bae7499915878c494e291e3ba4d8807fb35dacd621c02796'),
    ),
    ('legion', 'communicators'): (
        ('ok', 4.258500000000003e-05,
         '269dc51e135cd6fc4045b56dfe9a64e5b5eadfc4eb6239cfeb42f5e18e35988b'),
        ('ok', 4.3335000000000045e-05,
         '313f86c9cdbd5ebb3dba533c4dfabda0e165f032841c9760a550423a95547704'),
    ),
    ('legion', 'endpoints'): (
        ('ok', 4.218500000000008e-05,
         '310cef4d230ec6bc7461e6355b8c11d3704c01572eabce5d7db04a818e62d8c7'),
        ('ok', 4.30600000000001e-05,
         '85f7f1ceaecdacce98cc6edf78d603c862d23db27ed52a7ea3ea51bc00f0b130'),
    ),
    ('circuit', 'original'): (
        ('ok', 1.3465000000000014e-05,
         '4d873e5f4eee646e749704195026415ea6a15457eee1b4dabd478b416019c9df'),
        ('ok', 4.623000000000019e-05,
         '27c65f3447b019dbe56c6e8248ccf6cb1238f1789d3f53d28d33d77b2146b40f'),
    ),
    ('circuit', 'communicators'): (
        ('ok', 1.3874999999999998e-05,
         'c08ebf10184e50fc16a048f6c92f913f7fafdfd888b914f4ba990c5ee65d4fb7'),
        ('ok', 4.598500000000015e-05,
         '20a7e83f159e61175da8dbb85d69228d9ff3293735ea7a87ba98d605feb86b75'),
    ),
    ('circuit', 'endpoints'): (
        ('ok', 1.3240000000000016e-05,
         '04dcecbfc17f6dcf89652fc3b6cd98a5fdaea0f061689497aef6f2340712fd90'),
        ('ok', 4.5790000000000177e-05,
         '457e6f1339b9cfef6abeee89daa2032c9be867268890639a60d1417e7e8c8cb4'),
    ),
    ('graph', 'original'): (
        ('ok', 1.4401440000000004e-05,
         'd1c8a191c3385066ab1f7e4a217ec219ad8ad24032682c4bc641cc6ebfb3ec6f'),
        ('ok', 1.6221920000000006e-05,
         '103c2799c3071e26f343cac84b32667658a6dedb4d7ad72980af25b60ddc7a41'),
    ),
    ('graph', 'tags'): (
        ('ok', 1.355096e-05,
         '89790e257191c6486a0f92b83ccf99e76c10348c36ca6166e78b01431da4c644'),
        ('ok', 1.7046440000000003e-05,
         '4e6f7ad67c85d9b4bce9ad830da848577959441ed48bda1b9155403166bad71c'),
    ),
    ('graph', 'communicators'): (
        ('ok', 1.363096e-05,
         '4fa22ca716f7deabb30c5dc005b1f0b10e3092f2334d10d59b38587eb752b8f0'),
        ('ok', 1.7086440000000002e-05,
         'd0a9050a035680867b5ef00c8372007b9f281ebc56a5487e264c03425cb29530'),
    ),
    ('graph', 'endpoints'): (
        ('ok', 1.355096e-05,
         '717ba99de8c92a4dd368d80b91c00c036d3d03d16d7ad589fcd291519ac40295'),
        ('ok', 3.879166951396931e-05,
         '2ad368ab2f59a3d0d73fd2fda9a37a37b9ddfc6caf6ce7eba06afed440921e35'),
    ),
    ('nwchem', 'window'): (
        ('ok', 1.0099159999999997e-05,
         '11c641d5762e6f7c7f66d20764c616e8fe838a9c29325fc94cd5741fd97598fd'),
        ('ok', 0.00010745209550917505,
         'dbecf5b16168acb217bf46035b3bca1bac795c7a38984ba63c2d0b0678ba4af2'),
    ),
    ('nwchem', 'window-relaxed'): (
        ('ok', 9.933919999999996e-06,
         '96d9f82bbf33d5098a48c299704ebd90d3d8c5c6ad439e7bf0f7bd7103767058'),
        ('ok', 4.72580155091751e-05,
         '12955064844174ea681c679544d4abce0ada07a487d2945425944c6e34477075'),
    ),
    ('nwchem', 'endpoints'): (
        ('ok', 9.534999999999996e-06,
         'da0d8ae749919b0c14e7c5076c2c5a48e4be0ae578f616291c87885d2b094ba4'),
        ('ok', 4.9242529563283735e-05,
         'abe4a7ca932544e4db37bd564742b694ce1d8c4476beceb008fd252bfb6d7ce9'),
    ),
    ('vasp', 'funneled'): (
        ('ok', 1.6169600000000003e-06,
         '83bf1e688636e62d20e44e7439e638193391ef43a52871a83f76f31c0367f75d'),
        ('ok', 2.5655999999999996e-06,
         'cf67b5f003e565a8e804234f53957be641e71b08208356df76ee79bdae9f515c'),
    ),
    ('vasp', 'existing'): (
        ('ok', 1.5575200000000003e-06,
         '29288c42175064229303b12ab254c17fb7dc978f79fe77197840b9e18252582c'),
        ('ok', 2.48568e-06,
         '8a98da06253fd49ee18f2408da753237555fd35f76419b5634ecf6e050ef5e6a'),
    ),
    ('vasp', 'endpoints'): (
        ('ok', 1.67312e-06,
         'faa9458c9337eea0a15dee505b7f17825e5e88fbd139089ac1ecf5d3cd7e7d92'),
        ('ok', 2.60128e-06,
         '3bf459fe7d8fb363ae90901d12096417ac08a523c4fa19bad22d39307955ecf4'),
    ),
    ('vasp', 'partitioned'): (
        ('ok', 1.5575200000000003e-06,
         '29288c42175064229303b12ab254c17fb7dc978f79fe77197840b9e18252582c'),
        ('ok', 2.48568e-06,
         '8a98da06253fd49ee18f2408da753237555fd35f76419b5634ecf6e050ef5e6a'),
    ),
    ('device', 'host-driven'): (
        ('ok', 4.329888e-05,
         '86775478dc8240372110d7e113c1b45f9096fb1ba5bf1af18811c3418b3aca6a'),
        ('ok', 7.638911999999997e-05,
         'a057bbf04d9966dc26a425483cc1bd3b313cfac518bf6217218d71afa97e5456'),
    ),
    ('device', 'device-partitioned'): (
        ('ok', 2.883e-05,
         '0f6ed7097af65a5627ffa15bd5a9734032d4b9e2a9ba84814cf29230785807d6'),
        ('ok', 3.171e-05,
         'ed41942382b990674ec40bf687baf8a89f27269ca86df4932d94a059f9ba7932'),
    ),
    ('device', 'device-mpi'): (
        ('ok', 5.178895999999999e-05,
         '7f881fbc4f0e28e9fff0416c174731535158bbd642db46ff4d04c91f07d81bb3'),
        ('ok', 5.4573440000000004e-05,
         '98d29b1e5ecf268f4f555c7d30d179b5ddb5ac02b43e4fbdae2010a29bfcaf36'),
    ),
    ('racer', 'default'): (
        ('finding', 1.2592000000000002e-06,
         '8a8097d3427c82917dff1368a83805168c77578e981ff86e4d475acdd4ad530d'),
        ('finding', 2.172e-06,
         '837dba7d1d53d3d1752e7cfb779176ed596541e2d255954d2ab094d9753d098b'),
    ),
}


def test_table_covers_the_whole_registry():
    pairs = {(app, mech) for app, adapter in APP_REGISTRY.items()
             for mech in adapter.mechanisms}
    assert pairs == set(IDENTITY) and len(pairs) == 26


@pytest.mark.parametrize("env", (0, 1), ids=("direct", "chaos"))
@pytest.mark.parametrize("app,mechanism", sorted(IDENTITY))
def test_outcome_is_byte_identical(app, mechanism, env):
    spec = ScenarioSpec(app=app, mechanism=mechanism, seed=11,
                        **ENVIRONMENTS[env])
    out = run_scenario(spec)
    assert (out["status"], out["wall_time"], out["digest"]) \
        == IDENTITY[app, mechanism][env]


#: (StencilConfig kwargs, final_field.shape, sha-256 of its bytes).
FIELD_HASHES = [
    (dict(proc_grid=(2, 2), thread_grid=(2, 3), pnx=4, pny=5,
          stencil_points=5, iters=3, mechanism="tags"),
     (30, 16),
     "9f229489b7cc336e7dfe05f25eff602c23a297b1a46cd3aef46feb42533fb7b9"),
    (dict(proc_grid=(2, 2), thread_grid=(2, 2), pnx=4, pny=3,
          stencil_points=9, iters=3, mechanism="communicators", seed=2),
     (12, 16),
     "44563bde3b82cac4ff8cd2694566d72e9fef015d689a51c461d9c595821f0306"),
    (dict(proc_grid=(2, 1, 2), thread_grid=(1, 2, 2), pnx=3, pny=4, pnz=2,
          stencil_points=7, iters=2, mechanism="partitioned"),
     (8, 8, 6),
     "5941ff0e93ee25e008b675ac42018948392e71c81353b146b518335cc18d2066"),
    (dict(proc_grid=(2, 2, 1), thread_grid=(2, 1, 2), pnx=3, pny=2, pnz=4,
          stencil_points=27, iters=2, mechanism="endpoints", seed=1),
     (8, 4, 12),
     "cce1dfc86018d3f5f228af8f99efd1bf22d80899a7de7bb44b47416f8e76995a"),
]


@pytest.mark.parametrize("kwargs,shape,digest", FIELD_HASHES,
                         ids=[f"{k['stencil_points']}pt"
                              for k, _, _ in FIELD_HASHES])
def test_final_field_bytes(kwargs, shape, digest):
    result = run_stencil(StencilConfig(**kwargs))
    assert result.correct
    assert result.final_field.shape == shape
    assert hashlib.sha256(result.final_field.tobytes()).hexdigest() == digest


def _python(code):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_front_ends_import_no_app_and_no_networkx():
    """``repro.scenarios`` names drivers lazily; nothing on the path of a
    served Fig 1(a) job may import an app, and no front end or worker
    pays at start-up for the static analyzer, the lint or YAML (each
    loads where it is first used). Sampling a campaign and running one
    scenario of every app then loads nothing but the standard library
    and ``repro`` on top of numpy and PyYAML."""
    assert _python(
        "import sys\n"
        "import repro.cli, repro.scenarios, repro.serve.service, "
        "repro.bench, repro.serve.worker\n"
        "late = ('networkx', 'yaml', 'repro.check.lint', "
        "'repro.check.static_')\n"
        "print(sorted(m for m in sys.modules if m in late or "
        "m.startswith(('networkx.', 'repro.apps'))))\n"
        "from repro.check import analyze_path, run_lint\n"
        "assert all(m in sys.modules for m in late[2:])\n") == "[]"
    # whatever the interpreter, numpy and PyYAML load by themselves
    # (site hooks, numpy's compiled helpers) is this host's, not ours
    assert _python(
        "import sys, numpy.random, yaml\n"
        "tops = lambda: {m.partition('.')[0] for m in sys.modules}\n"
        "before = tops()\n"
        "from repro.scenarios import run_scenario, sample_scenarios\n"
        "first = {}\n"
        "for spec in sample_scenarios(42, 48):\n"
        "    first.setdefault(spec.app, spec)\n"
        "assert len(first) == 7, sorted(first)\n"
        "assert all(run_scenario(spec)['status'] == 'ok' "
        "for spec in first.values())\n"
        "print(sorted(tops() - before - sys.stdlib_module_names))\n"
    ) == "['repro']"


def _package_trees():
    """``(path relative to src/repro, its AST)`` for every module."""
    package = os.path.join(ROOT, "src", "repro")
    for folder, _, files in os.walk(package):
        for filename in files:
            if filename.endswith(".py"):
                path = os.path.join(folder, filename)
                with open(path, encoding="utf-8") as source:
                    tree = ast.parse(source.read(), path)
                yield os.path.relpath(path, package).replace(os.sep, "/"), tree


def test_package_imports_only_stdlib_numpy_and_yaml():
    """At any nesting level: an import inside a function is still a host
    dependency of whoever calls it (a graph library was one such)."""
    allowed = sys.stdlib_module_names | {"numpy", "yaml", "repro"}
    foreign = set()
    for relpath, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign.update((relpath, name) for name in names
                           if name.partition(".")[0] not in allowed)
    assert foreign == set()


#: callee -> the only files under ``src/repro`` that may call it. Worlds
#: are built by the harness and mechanisms resolved by the channels (PR
#: 16's sentence, since PR 18 also true of ``bench/msgrate.py``); nwchem's
#: RMA window lives on endpoints of its own, and ``mpi/endpoints.py``
#: builds rankpoints out of the function it defines.
ONLY_CALLERS = {
    "World": {"apps/harness.py"},
    "listing2_info": {"apps/channels.py"},
    "comm_create_endpoints": {"apps/channels.py",
                              "apps/nwchem/blocksparse.py",
                              "mpi/endpoints.py"},
}


def test_worlds_and_mechanisms_are_built_in_one_place():
    callers = {name: set() for name in ONLY_CALLERS}
    for relpath, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                if callee in callers:
                    callers[callee].add(relpath)
    assert callers == ONLY_CALLERS


def _names(relpath):
    """Every identifier ``src/repro/<relpath>`` mentions: names, attributes,
    definitions and imports (comments and docstrings do not count)."""
    with open(os.path.join(ROOT, "src", "repro", relpath),
              encoding="utf-8") as source:
        tree = ast.parse(source.read(), relpath)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


#: file -> identifiers it must not mention: the second body of a job that
#: has one. Which worlds a block built is the session's list, not a
#: process-wide registry the checker feeds; a scenario is not recorded;
#: one session type checks and stops worlds, and a stopped run is the
#: kernel's loop; one ``run_program`` runs a script; spans are paired in
#: ``sim/trace.py``; frames are read by ``FrameDecoder``; nothing numbers
#: wire messages across worlds.
SAID_ONCE = {
    "check/session.py": {"_live", "register", "live_checkers",
                         "collect_report"},
    "check/__init__.py": {"_live", "register", "live_checkers",
                          "collect_report"},
    "check/checker.py": {"session"},
    "scenarios/executor.py": {"recording", "SnapController"},
    "runtime/world.py": {"default_snap_controller", "_snap", "drive"},
    "cli.py": {"runpy"},
    "snap/replay.py": {"runpy"},
    "check/static_/crossval.py": {"runpy"},
    "obs/chrome.py": {"deque", "open_by_id", "open_fifo"},
    "serve/protocol.py": {"read_frame", "_read_exact"},
    "netsim/message.py": {"itertools", "count", "_seq_counter", "seq"},
}


def test_the_layers_around_the_simulator_say_it_once():
    import repro.analysis

    for relpath, forbidden in SAID_ONCE.items():
        assert not _names(relpath) & forbidden, relpath
    for gone in ("analysis/contention.py", "snap/session.py"):
        assert not os.path.exists(os.path.join(ROOT, "src", "repro", gone))
    assert sorted(repro.analysis.__all__) == [
        "Capability", "MECHANISM_NAMES", "OPERATIONS", "PATTERNS",
        "UsabilityReport", "render_table", "render_usability",
        "scope_matrix", "stencil_usability"]
    # Both views of a trace go through the one pairing function.
    assert "pair_records" in _names("obs/chrome.py")
    with open(os.path.join(ROOT, "src", "repro", "sim", "trace.py"),
              encoding="utf-8") as source:
        tree = ast.parse(source.read())
    (pair_spans,) = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "pair_spans"]
    assert "pair_records" in {getattr(node.func, "id", None)
                              for node in ast.walk(pair_spans)
                              if isinstance(node, ast.Call)}


def test_run_app_places_several_processes_on_a_node():
    """``procs_per_node`` reaches the cluster: ``2 x nodes`` ranks, packed
    node by node, each main spawned in rank order."""
    spawned = []

    def proc_main(proc):
        spawned.append(proc.rank)
        yield proc.compute(1e-6 * (proc.rank + 1))
        return proc.sim.now

    world, end_times = run_app(3, 1, proc_main, procs_per_node=2)
    assert world.num_procs == 6 and len(world.nodes) == 3
    assert [p.node.node_id for p in world.procs] == [0, 0, 1, 1, 2, 2]
    assert spawned == list(range(6))
    assert end_times == pytest.approx([1e-6 * (r + 1) for r in range(6)])
