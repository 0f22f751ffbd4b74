"""Deterministic test harnesses that ship with the package.

Currently one member: :mod:`repro.testing.faults`, the seeded
fault-injection harness the chaos suite and the fault benchmark gate
drive.  The package is a leaf (it imports only :mod:`repro.errors`), so
any layer — the service's materialisation and query boundaries, the
snapshot writer — can hook it without cycles.
"""

from . import faults
from .faults import FaultInjector, InjectedFault

__all__ = ["faults", "FaultInjector", "InjectedFault"]
