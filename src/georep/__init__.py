"""Bounded-divergence geo-replication with a deterministic simulator.

Containers (table:family pairs) carry a three-dimensional divergence
bound: maximum shipment lag, maximum pending updates, and maximum
numeric drift.  Updates queue per container and ship in batches the
moment any active dimension trips; client write groups replicate
atomically; multi-master topologies converge under last-writer-wins
with origin-based echo suppression.  A discrete-event harness runs
whole multi-cluster scenarios (latency, partitions, workloads) fully
deterministically and reports per-window bandwidth metrics.
"""

from .blocks import BlockMode, ClientSession
from .bounds import Bound, ContainerId, Update
from .cluster import ClusterNode
from .engine import Simulation, run_scenario
from .errors import GeorepError, LivelockError, ProtocolError, ScenarioError
from .metrics import compare_runs, format_comparison, write_csv
from .scenario import load_scenario
from .shipping import ReplicationSource, Trigger
from .simnet import SimNet

__version__ = "0.1.0"

# The names the demos and the benchmark import from the package, plus
# the error classes; everything else is imported from its module.
__all__ = [
    "BlockMode",
    "Bound",
    "ClientSession",
    "ClusterNode",
    "ContainerId",
    "GeorepError",
    "LivelockError",
    "ProtocolError",
    "ReplicationSource",
    "ScenarioError",
    "SimNet",
    "Simulation",
    "Trigger",
    "Update",
    "compare_runs",
    "format_comparison",
    "load_scenario",
    "run_scenario",
    "write_csv",
]
