"""Deterministic workload generation.

A workload spec fully determines the operation stream: one seeded
generator drives every random choice, and the read/write interleave is
deterministic (write number w lands at the earliest index where
floor((index+1) * write_fraction) reaches w), so a 50/50 mix alternates
read, write, read, write rather than coin-flipping.

Key popularity follows either a uniform draw over the keyspace or a
zipfian draw where the key of rank r is chosen with probability
proportional to 1 / (r+1)^constant, sampled from the exact cumulative
distribution.

Operations are paced in bursts: ``burst_ops`` operations share each
arrival instant and consecutive instants are ``burst_spacing_ms``
apart.  The defaults (1 op per instant, 1 ms apart) give steady
one-per-millisecond arrivals.  Scripted write groups replace the plain
op stream when a block script is present.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, NamedTuple, Union

from .blocks import BlockMode
from .bounds import ContainerId
from .errors import ScenarioError


class ReadOp(NamedTuple):
    container: ContainerId
    key: str


class WriteOp(NamedTuple):
    container: ContainerId
    key: str
    value: bytes


class BlockStartOp(NamedTuple):
    mode: BlockMode


class BlockEndOp(NamedTuple):
    pass


# Ops are named tuples: immutable, yet built without the per-field
# ``object.__setattr__`` a frozen dataclass pays.
Operation = Union[ReadOp, WriteOp, BlockStartOp, BlockEndOp]

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


def _require_positive(spec, *names: str) -> None:
    for name in names:
        if getattr(spec, name) <= 0:
            raise ScenarioError(f"{name} must be positive: {getattr(spec, name)}")


class ZipfianSampler:
    """Exact-CDF sampler: rank r drawn proportional to 1 / (r+1)^s."""

    def __init__(self, keyspace: int, constant: float) -> None:
        if keyspace < 1:
            raise ScenarioError(f"keyspace must be at least 1: {keyspace}")
        if not 0.0 < constant < 1.0:
            raise ScenarioError(f"zipfian constant must be in (0, 1): {constant}")
        weights = [1.0 / math.pow(rank + 1, constant) for rank in range(keyspace)]
        total = math.fsum(weights)
        cdf = [acc / total for acc in accumulate(weights)]
        cdf[-1] = 1.0
        self._cdf = cdf

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_right(self._cdf, rng.random())


def generate(spec: WorkloadSpec) -> Iterator[TimedOp]:
    """Yield the full operation stream for a spec, in arrival order.

    The same spec always yields the identical stream.
    """
    rng = random.Random(spec.seed)
    if spec.block_script is not None:
        yield from _generate_blocks(spec, spec.block_script, rng)
        return

    sampler = None
    if spec.distribution == "zipfian":
        sampler = ZipfianSampler(spec.keyspace, spec.zipf_constant)
    cids = [cid for cid, _ in spec.containers]
    cum_weights = None
    if len(cids) > 1:
        weights = [w for _, w in spec.containers]
        total = sum(weights)
        cum_weights = [acc / total for acc in accumulate(weights)]
        cum_weights[-1] = 1.0

    burst_ops, spacing_ms = spec.burst_ops, spec.burst_spacing_ms
    origins, n_origins = spec.origins, len(spec.origins)
    write_fraction, value_bytes = spec.write_fraction, spec.value_bytes
    keyspace, disjoint_keys = spec.keyspace, spec.disjoint_keys
    sample = sampler.sample if sampler is not None else None
    random_, randrange, randbytes = rng.random, rng.randrange, rng.randbytes
    # The interleave test floor((k+1) * f) > floor(k * f) with a running
    # count: the writes so far equal floor(k * f), and for an integer w,
    # floor(x) > w exactly when x >= w + 1.
    next_write = 1
    for k in range(spec.operations):
        at_ms = (k // burst_ops) * spacing_ms
        origin = origins[k % n_origins]
        if cum_weights is None:
            cid = cids[0]
        else:
            cid = cids[bisect.bisect_right(cum_weights, random_())]
        idx = sample(rng) if sample is not None else randrange(keyspace)
        key = f"c{origin}-user{idx}" if disjoint_keys else f"user{idx}"
        if (k + 1) * write_fraction >= next_write:
            next_write += 1
            yield at_ms, origin, WriteOp(cid, key, randbytes(value_bytes))
        else:
            yield at_ms, origin, ReadOp(cid, key)


def _generate_blocks(spec: WorkloadSpec, script: BlockScript,
                     rng: random.Random) -> Iterator[TimedOp]:
    for bi in range(script.count):
        at_ms = bi * script.spacing_ms
        origin = spec.origins[bi % len(spec.origins)]
        mode = script.pattern[bi % len(script.pattern)]
        yield at_ms, origin, BlockStartOp(mode)
        for pi in range(script.puts_per_block):
            cid = script.containers[pi % len(script.containers)]
            key = f"b{bi}-p{pi}"
            yield at_ms, origin, WriteOp(cid, key, rng.randbytes(spec.value_bytes))
        yield at_ms, origin, BlockEndOp()
