"""TROD: the transaction-oriented debugger (the paper's contribution).

Facade: create a :class:`Trod`, attach it to a runtime, and use

* ``trod.debugger`` — declarative debugging over provenance (§3.3/§3.4)
* ``trod.replayer`` — faithful bug replay (§3.5)
* ``trod.retroactive`` — retroactive programming (§3.6)
* ``trod.security`` / ``trod.taint`` — security forensics (§4.2)
"""

from repro.core.buffer import TraceBuffer
from repro.core.debugger import Debugger
from repro.core.orderings import enumerate_interleavings, naive_interleaving_count
from repro.core.privacy import PrivacyManager, RedactionReport
from repro.core.profiling import PerformanceProfiler
from repro.core.provenance import ProvenanceStore
from repro.core.quality import DataQualityMonitor, QualityViolation
from repro.core.replay import BreakpointInfo, ReplayEngine, ReplayResult
from repro.core.retroactive import (
    OrderingOutcome,
    RetroactiveEngine,
    RetroactiveResult,
)
from repro.core.security import AccessControlChecker, PatternViolation
from repro.core.taint import ExfiltrationTracker, FlowReport
from repro.core.tracer import Trod

__all__ = [
    "AccessControlChecker",
    "BreakpointInfo",
    "DataQualityMonitor",
    "Debugger",
    "PerformanceProfiler",
    "PrivacyManager",
    "QualityViolation",
    "RedactionReport",
    "ExfiltrationTracker",
    "FlowReport",
    "OrderingOutcome",
    "PatternViolation",
    "ProvenanceStore",
    "ReplayEngine",
    "ReplayResult",
    "RetroactiveEngine",
    "RetroactiveResult",
    "TraceBuffer",
    "Trod",
    "enumerate_interleavings",
    "naive_interleaving_count",
]
