"""Fleet margin registry + parallel profiling.

The paper's system-level results (Section III-D2) presuppose that
every node's frequency margin is known and kept current.  This package
is that bookkeeping layer: :class:`MarginRegistry` (append-only event
log + compacted snapshots, the single source of truth for effective
margins), :class:`FleetProfiler` (deterministic parallel profiling
into the registry), and :class:`FleetIngest` (degradation-ladder
events flow through the registry instead of mutating cluster nodes
directly).  Placement over registry margins is
:class:`repro.service.BucketPool`.  See DESIGN.md §8.
"""

from .ingest import FleetIngest
from .profiler import (FleetConfig, FleetProfileSummary, FleetProfiler,
                       node_seed)
from .registry import (EVENT_KINDS, MarginRegistry, NodeRecord,
                       RegistryError, RegistryEvent, canonical_json)

__all__ = [
    "EVENT_KINDS", "FleetConfig", "FleetIngest", "FleetProfileSummary",
    "FleetProfiler", "MarginRegistry", "NodeRecord", "RegistryError",
    "RegistryEvent", "canonical_json", "node_seed",
]
