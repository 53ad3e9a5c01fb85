"""Deterministic workload generation.

A workload spec fully determines the operation stream: one seeded
generator drives every random choice, and the read/write interleave is
deterministic (write number w lands at the earliest index where
floor((index+1) * write_fraction) reaches w), so a 50/50 mix alternates
read, write, read, write rather than coin-flipping.

Key popularity follows either a uniform draw over the keyspace or a
zipfian draw where the key of rank r is chosen with probability
proportional to 1 / (r+1)^constant, sampled from the exact cumulative
distribution.  That distribution is held packed, as an ``array('d')``
of 8 bytes per key rather than a list of float objects: the entries are
the same doubles, so ``bisect_right`` draws bit-identical ranks.

Operations are paced in bursts: ``burst_ops`` operations share each
arrival instant and consecutive instants are ``burst_spacing_ms``
apart.  The defaults (1 op per instant, 1 ms apart) give steady
one-per-millisecond arrivals.  Scripted write groups replace the plain
op stream when a block script is present; each group is one ``BlockOp``
holding its puts.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Union

from .blocks import BlockMode
from .bounds import ContainerId
from .errors import ScenarioError
from .shipping import MAX_VALUE_BYTES


class ReadOp(NamedTuple):
    container: ContainerId
    key: str


class WriteOp(NamedTuple):
    container: ContainerId
    key: str
    value: bytes


class BlockOp(NamedTuple):
    """One write group: its puts, in order, open and close as one client
    action at one instant on one cluster."""

    mode: BlockMode
    writes: tuple[WriteOp, ...]


# Ops are named tuples: immutable, yet built without the per-field
# ``object.__setattr__`` a frozen dataclass pays.
Operation = Union[ReadOp, WriteOp, BlockOp]

# One scheduled client action: (arrival instant, acting cluster, op).
TimedOp = tuple[int, int, Operation]


@dataclass(frozen=True, slots=True)
class BlockScript:
    """Scripted stream of write groups replacing the plain op mix.  Each
    field is the [blocks] key of the same name and holds its default;
    those of ``count``, ``pattern`` and ``containers`` fail validation.
    Each validation message starts with the field that failed."""

    count: int = 0
    puts_per_block: int = 1
    pattern: tuple[BlockMode, ...] = ()
    containers: tuple[ContainerId, ...] = ()
    spacing_ms: int = 1

    def __post_init__(self) -> None:
        _require_positive(self, "count", "puts_per_block", "spacing_ms")
        for name in ("pattern", "containers"):
            if not getattr(self, name):
                raise ScenarioError(f"{name} must not be empty")

    @property
    def total_updates(self) -> int:
        return self.count * self.puts_per_block


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Everything needed to regenerate one operation stream.  Each field
    but ``block_script`` (the [blocks] section) is the [workload] key of
    the same name and holds its default.  Each validation message starts
    with the field that failed."""

    operations: int = 50_000
    write_fraction: float = 0.5
    distribution: str = "zipfian"
    zipf_constant: float = 0.99
    keyspace: int = 10_000
    value_bytes: int = 1000
    containers: tuple[tuple[ContainerId, float], ...] = (
        (ContainerId("usertable", "family"), 1.0),
    )
    seed: int = 42
    burst_ops: int = 1
    burst_spacing_ms: int = 1
    origins: tuple[int, ...] = (1,)
    disjoint_keys: bool = False
    block_script: BlockScript | None = None

    def __post_init__(self) -> None:
        _require_positive(self, "operations", "keyspace", "value_bytes", "burst_ops",
                          "burst_spacing_ms")
        if self.value_bytes > MAX_VALUE_BYTES:
            raise ScenarioError(f"value_bytes must fit the u32 value length: {self.value_bytes}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ScenarioError(f"write_fraction must be in [0, 1]: {self.write_fraction}")
        if self.distribution not in ("zipfian", "uniform"):
            raise ScenarioError(f"distribution must be zipfian or uniform: {self.distribution!r}")
        if self.distribution == "zipfian" and not 0.0 < self.zipf_constant < 1.0:
            raise ScenarioError(f"zipf_constant must be in (0, 1): {self.zipf_constant}")
        if not self.containers or not all(0 < w < math.inf for _, w in self.containers):
            raise ScenarioError("containers: a workload needs containers; "
                                "weights must be positive and finite")
        if not self.origins:
            raise ScenarioError("origins: at least one originating cluster is required")

    @property
    def total_updates(self) -> int:
        """Number of replicated updates the stream will produce; the
        basis for resolving percentage bounds.

        The per-op write test telescopes, so the write count is exactly
        floor(operations * write_fraction).
        """
        if self.block_script is not None:
            return self.block_script.total_updates
        return math.floor(self.operations * self.write_fraction)

    @property
    def client_actions(self) -> int:
        """Number of client actions the stream holds: one per op, or one
        per scripted write group."""
        if self.block_script is not None:
            return self.block_script.count
        return self.operations


def _require_positive(spec, *names: str) -> None:
    for name in names:
        if getattr(spec, name) <= 0:
            raise ScenarioError(f"{name} must be positive: {getattr(spec, name)}")


def _cdf(weights: list[float], total: Callable[[list[float]], float]) -> array:
    """Cumulative distribution of ``weights`` over ``total(weights)``, for
    a draw by ``bisect_right(cdf, random())``; the last entry is exactly 1.

    Packed as doubles, 8 bytes an entry.  Built from a transient list,
    which sizes the array exactly and is faster than filling it from an
    iterator."""
    whole = total(weights)
    cdf = array("d", [acc / whole for acc in accumulate(weights)])
    cdf[-1] = 1.0
    return cdf


def generate(spec: WorkloadSpec) -> Iterator[TimedOp]:
    """Yield the full operation stream for a spec, in arrival order.

    The same spec always yields the identical stream.
    """
    rng = random.Random(spec.seed)
    if spec.block_script is not None:
        yield from _generate_blocks(spec, spec.block_script, rng)
        return

    key_cdf = None
    if spec.distribution == "zipfian":
        key_cdf = _cdf([1.0 / math.pow(rank + 1, spec.zipf_constant)
                        for rank in range(spec.keyspace)], math.fsum)
    cids = [cid for cid, _ in spec.containers]
    cid_cdf = _cdf([w for _, w in spec.containers], sum) if len(cids) > 1 else None

    burst_ops, spacing_ms = spec.burst_ops, spec.burst_spacing_ms
    origins, n_origins = spec.origins, len(spec.origins)
    write_fraction, value_bytes = spec.write_fraction, spec.value_bytes
    keyspace, disjoint_keys = spec.keyspace, spec.disjoint_keys
    random_, randrange, randbytes = rng.random, rng.randrange, rng.randbytes
    # The interleave test floor((k+1) * f) > floor(k * f) with a running
    # count: the writes so far equal floor(k * f), and for an integer w,
    # floor(x) > w exactly when x >= w + 1.
    next_write = 1
    for k in range(spec.operations):
        at_ms = (k // burst_ops) * spacing_ms
        origin = origins[k % n_origins]
        cid = cids[0] if cid_cdf is None else cids[bisect_right(cid_cdf, random_())]
        idx = randrange(keyspace) if key_cdf is None else bisect_right(key_cdf, random_())
        key = f"c{origin}-user{idx}" if disjoint_keys else f"user{idx}"
        if (k + 1) * write_fraction >= next_write:
            next_write += 1
            yield at_ms, origin, WriteOp(cid, key, randbytes(value_bytes))
        else:
            yield at_ms, origin, ReadOp(cid, key)


def _generate_blocks(spec: WorkloadSpec, script: BlockScript,
                     rng: random.Random) -> Iterator[TimedOp]:
    containers, randbytes, value_bytes = script.containers, rng.randbytes, spec.value_bytes
    for bi in range(script.count):
        writes = tuple(WriteOp(containers[pi % len(containers)], f"b{bi}-p{pi}",
                               randbytes(value_bytes))
                       for pi in range(script.puts_per_block))
        yield (bi * script.spacing_ms, spec.origins[bi % len(spec.origins)],
               BlockOp(script.pattern[bi % len(script.pattern)], writes))
