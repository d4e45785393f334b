"""Shared test helpers (importable as tests.helpers)."""

import inspect
import sys
import types
from typing import Optional

import numpy as np
import pytest

from repro.bench import MsgRateConfig, run_msgrate
from repro.check import CheckConfig, checking
from repro.netsim import ClusterSpec, NetworkConfig
from repro.runtime import World
from repro.snap import capture_state, diff_states, prune_state, state_digest


def mutated(module: types.ModuleType, fragment: str,
            replacement: str) -> types.ModuleType:
    """A copy of ``module`` built from its source with ``fragment``, which
    must occur exactly once, replaced: a mutant for a battery to kill."""
    source = inspect.getsource(module)
    assert source.count(fragment) == 1, \
        f"{fragment!r} is not in {module.__name__} exactly once"
    mutant = types.ModuleType(f"{module.__name__}_mutant")
    mutant.__package__ = module.__package__
    sys.modules[mutant.__name__] = mutant  # dataclasses look it up
    try:
        exec(compile(source.replace(fragment, replacement),
                     f"<{module.__name__}, mutant>", "exec"), mutant.__dict__)
    finally:
        del sys.modules[mutant.__name__]
    return mutant


def flat_world(nprocs: int, threads_per_proc: int = 1,
               network: Optional[NetworkConfig] = None, **kwargs) -> World:
    """One single-process node per rank — the dominant test topology.

    Remaining keyword arguments pass straight through to :class:`World`
    (``seed``, ``max_vcis_per_proc``, instruments, ...); the cluster
    shape and network pricing go through a direct :class:`ClusterSpec`.
    """
    return World(cluster=ClusterSpec(nodes=nprocs,
                                     threads_per_proc=threads_per_proc,
                                     network=network), **kwargs)


def checked_msgrate_world(mode: str, cores: int = 8,
                          msgs_per_core: int = 16) -> World:
    """Run one Fig 1(a) point under the checker (as ``fig1a_checked``
    does) and hand back its finished world."""
    with checking(CheckConfig(emit_warnings=False)) as session:
        run_msgrate(MsgRateConfig(mode=mode, cores=cores, msg_bytes=8,
                                  window=16, msgs_per_core=msgs_per_core),
                    net=NetworkConfig.omnipath())
    (world,) = session.worlds
    return world


def hw_context(nic, index: int):
    """The hardware context in slot ``index`` of ``nic``, built now if the
    run never touched it. Production code has no such view (observers read
    ``nic.slots()``/``nic.built_contexts()``); tests that drive or inspect
    one particular slot ask for it here."""
    return nic._context(index)


def build_out_pools(world: World) -> None:
    """Build every slot of every NIC of ``world`` — what ``Nic.__init__``
    once did; simulated results and state digests must not notice."""
    for node in world.nodes:
        for index in range(len(node.nic.slots())):
            hw_context(node.nic, index)


def run_ranks(world: World, *fns, max_steps=2_000_000):
    """Spawn ``fns[i]`` (a generator function taking the process) on rank
    ``i``, run to completion, and return their return values."""
    tasks = [world.procs[i].spawn(fn(world.procs[i]))
             for i, fn in enumerate(fns)]
    return world.run_all(tasks, max_steps=max_steps)


def run_same(world: World, fn, max_steps=2_000_000):
    """Run the same generator function on every rank."""
    return run_ranks(world, *([fn] * world.num_procs), max_steps=max_steps)


def lockstep(build_a, build_b, ignore=()):
    """Run two freshly built worlds one kernel step at a time: the first
    step at which their states, less the paths containing an ``ignore``
    substring, differ — with the ``diff_states`` paths there — or None
    when both finish identical."""
    a, b = build_a(), build_b()
    while True:
        state_a, state_b = (prune_state(capture_state(w), ignore)
                            for w in (a, b))
        if state_digest(state_a) != state_digest(state_b):
            return a.sim.steps, diff_states(state_a, state_b)
        if a.sim.run_steps(1) + b.sim.run_steps(1) == 0:
            return None
