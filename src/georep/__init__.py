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
from .bounds import (
    IMMEDIATE,
    UPDATE_OVERHEAD_BYTES,
    Bound,
    ContainerId,
    ContainerState,
    Update,
    parse_numeric,
    pending_from_percent,
    update_size,
)
from .cache import PendingCache
from .cluster import ApplyReport, ClusterNode
from .engine import BatchRecord, RunResult, Simulation, run_scenario
from .errors import GeorepError, LivelockError, ProtocolError, ScenarioError
from .metrics import (
    CSV_COLUMNS,
    Comparison,
    MetricsCollector,
    Row,
    compare_runs,
    format_comparison,
    read_csv,
    write_csv,
    write_summary,
)
from .scenario import Scenario, load_scenario
from .shipping import (
    BATCH_HEADER_BYTES,
    Batch,
    ReplicationSource,
    Trigger,
    decode_batch,
    encode_batch,
)
from .simnet import LinkSpec, SimNet
from .workload import (
    BlockEndOp,
    BlockScript,
    BlockStartOp,
    ReadOp,
    WorkloadSpec,
    WriteOp,
    ZipfianSampler,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "BATCH_HEADER_BYTES",
    "CSV_COLUMNS",
    "IMMEDIATE",
    "UPDATE_OVERHEAD_BYTES",
    "ApplyReport",
    "Batch",
    "BatchRecord",
    "BlockEndOp",
    "BlockMode",
    "BlockScript",
    "BlockStartOp",
    "Bound",
    "ClientSession",
    "ClusterNode",
    "Comparison",
    "ContainerId",
    "ContainerState",
    "GeorepError",
    "LinkSpec",
    "LivelockError",
    "MetricsCollector",
    "PendingCache",
    "ProtocolError",
    "ReadOp",
    "ReplicationSource",
    "Row",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SimNet",
    "Simulation",
    "Trigger",
    "Update",
    "WorkloadSpec",
    "WriteOp",
    "ZipfianSampler",
    "compare_runs",
    "decode_batch",
    "encode_batch",
    "format_comparison",
    "generate",
    "load_scenario",
    "parse_numeric",
    "pending_from_percent",
    "read_csv",
    "run_scenario",
    "update_size",
    "write_csv",
    "write_summary",
]
