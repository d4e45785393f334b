"""``make_simulator()``, kept for ``benchmarks/stack/layers.py::probe_kernel``.

The calendar queue is :class:`repro.sim.core.Simulator` itself; this module
goes once the (frozen) stack benchmark builds a ``Simulator()`` directly.
"""

from .core import Simulator

__all__ = ["make_simulator"]


def make_simulator() -> Simulator:
    """A new :class:`~repro.sim.core.Simulator`."""
    return Simulator()
