"""Scenario files: the INI-style description of one simulation run.

Sections and keys.  Each ``key = value`` shows the key's default,
except that ``e.g.`` marks an example value of a key that has no
default (``required`` if it must be set, optional otherwise):

[topology]
    clusters = 1 2              e.g., required: cluster ids, space separated
    links = 1>2 2>1             e.g.: directed replication links

[network]                       (optional)
    latency_ms = 10             default one-way link latency
    latency_ms.1>2 = 25         e.g.: override for a declared link
    partitions =                e.g.: outage windows, one per line:
        1>2 5000 10000          link, start ms, end ms (half-open)
    window_ms = 1000            metric window for the CSV

[bounds]
    mode = bounded              bounded | plain (poll-everything baseline)
    default = 0 0 0             lag_ms, pending, drift; 0 disables
    some_table:family = 1000 0 0    e.g.: per-container bound, same triple
    pending_percent = 0.5       e.g.: pending limit as a percent of the
                                run's updates (alternative to a pending count)
    tick_ms = 100               shipping timer grid: lag validation, or
                                the plain-mode poll

[workload]
    operations = 50000          client operations (reads + writes)
    write_fraction = 0.5
    distribution = zipfian      zipfian | uniform
    zipf_constant = 0.99
    keyspace = 10000
    value_bytes = 1000
    containers = usertable:family       weighted: name or name*weight
    seed = 42
    burst_ops = 1               ops sharing each arrival instant
    burst_spacing_ms = 1        gap between instants
    origins = 1                 clusters that generate client traffic
    disjoint_keys = false       prefix keys per origin cluster

[blocks]                        (optional; replaces the plain op stream)
    count = 1000                e.g., required
    puts_per_block = 1
    pattern = IMMEDIATE ANY     e.g., required: modes cycled across blocks
    containers = a:fam b:fam    e.g., required: puts cycle across these
    spacing_ms = 1

A run writes ``<scenario stem>.csv`` and ``<scenario stem>.summary.json``.
Its event budget, past which it aborts as a livelock, has no key: the
engine derives it from the workload (``engine.Simulation``).

Unknown sections or keys are rejected so typos fail loudly, and so are
keys that would have no effect: under ``mode = plain`` every [bounds]
key but ``mode`` and ``tick_ms``; with a [blocks] script every
[workload] key but ``seed``, ``value_bytes`` and ``origins``;
``zipf_constant`` under ``distribution = uniform``; a
per-container bound for a container the workload never writes (the
[blocks] containers under a script, the [workload] ones otherwise;
none if it writes nothing, and then ``bounds.default`` is rejected too);
and a nonzero drift limit: values are random bytes, numbers only by chance.
Percentage bounds resolve against the number of replicated updates the
workload will produce (its writes), not its total operation count.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from .blocks import BlockMode
from .bounds import Bound, ContainerId, pending_from_percent
from .errors import ScenarioError
from .simnet import LinkSpec
from .workload import BlockScript, WorkloadSpec

@dataclass(frozen=True, slots=True)
class Scenario:
    """A fully validated, resolved run description."""

    name: str
    clusters: tuple[int, ...]
    links: dict[tuple[int, int], LinkSpec]
    mode: str
    default_bound: Bound
    bounds: dict[ContainerId, Bound]
    tick_ms: int
    window_ms: int
    workload: WorkloadSpec


def load_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    """Parse and validate a scenario file.

    Every validation failure raises ScenarioError with the offending
    key in the message.
    """
    path = Path(path)
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except configparser.MissingSectionHeaderError as exc:
        raise ScenarioError(f"malformed scenario file: {path}: line {exc.lineno}: "
                            "a [section] header must come first") from exc
    except configparser.ParsingError as exc:
        raise ScenarioError(f"malformed scenario file: {path}: line {exc.errors[0][0]}: "
                            "neither a [section] header nor a key = value line") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"malformed scenario file: {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ScenarioError(f"unknown section [{section}]")
        for key in parser[section]:
            if key in _KNOWN_KEYS[section]:
                continue
            if section == "network" and key.startswith("latency_ms."):
                continue  # a per-link override, checked against the links below
            # Any other ':' key in [bounds] names a container, unless it
            # reads as a dotted override of a [bounds] key, which has none.
            if (section == "bounds" and ":" in key
                    and key.partition(".")[0] not in _KNOWN_KEYS["bounds"]):
                continue
            raise ScenarioError(f"unknown key {key!r} in section [{section}]")
    for required in ("topology", "bounds", "workload"):
        if required not in parser:
            raise ScenarioError(f"missing required section [{required}]")

    topo = parser["topology"]
    clusters = _each(_parse_int)(topo.get("clusters", ""), "topology.clusters")
    if not clusters:
        raise ScenarioError("topology.clusters must list at least one cluster id")
    if len(set(clusters)) != len(clusters):
        raise ScenarioError("duplicate cluster ids in topology.clusters")
    if any(c <= 0 for c in clusters):
        raise ScenarioError("topology.clusters: cluster ids must be positive integers")

    link_pairs = [_parse_link(tok, "topology.links") for tok in topo.get("links", "").split()]
    if len(set(link_pairs)) != len(link_pairs):
        raise ScenarioError("duplicate links in topology.links")
    for src, dst in link_pairs:
        if src not in clusters or dst not in clusters:
            raise ScenarioError(f"topology.links: {src}>{dst} references an unknown cluster")
        if src == dst:
            raise ScenarioError(f"topology.links: {src}>{dst} may not be a self-loop")

    net = parser["network"] if "network" in parser else {}
    default_latency = _parse_int(net.get("latency_ms", "10"), "network.latency_ms")
    if default_latency < 0:
        raise ScenarioError(f"network.latency_ms must be non-negative: {default_latency}")
    window_ms = _parse_int(net.get("window_ms", "1000"), "network.window_ms")
    if window_ms <= 0:
        raise ScenarioError(f"network.window_ms must be positive: {window_ms}")
    partitions: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for line in net.get("partitions", "").splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ScenarioError(f"network.partitions: not 'src>dst start end': {line!r}")
        link = _parse_link(parts[0], "network.partitions")
        if link not in link_pairs:
            raise ScenarioError(f"network.partitions: undeclared link {parts[0]}")
        start, end = (_parse_int(part, "network.partitions") for part in parts[1:])
        partitions.setdefault(link, []).append((start, end))

    latency_keys = {link: f"latency_ms.{link[0]}>{link[1]}" for link in link_pairs}
    for key in net:
        if key.startswith("latency_ms.") and key not in latency_keys.values():
            raise ScenarioError(f"{key} does not name a declared link")
    links: dict[tuple[int, int], LinkSpec] = {}
    for link, key in latency_keys.items():
        latency = _parse_int(net[key], f"network.{key}") if key in net else default_latency
        if latency < 0:
            raise ScenarioError(f"network.{key} must be non-negative: {latency}")
        links[link] = _spec(LinkSpec, "network", latency_ms=latency,
                            partitions=tuple(sorted(partitions.get(link, []))))

    workload = _parse_workload(parser, clusters)
    bounds_cfg = parser["bounds"]
    mode = bounds_cfg.get("mode", "bounded")
    if mode not in ("bounded", "plain"):
        raise ScenarioError(f"bounds.mode must be 'bounded' or 'plain': {mode!r}")
    if mode == "plain":
        _reject_keys(bounds_cfg, "bounds", {"mode", "tick_ms"}, "under bounds.mode = plain")
    tick_ms = _parse_int(bounds_cfg.get("tick_ms", "100"), "bounds.tick_ms")
    if tick_ms <= 0:
        raise ScenarioError(f"bounds.tick_ms must be positive: {tick_ms}")
    default_bound, bounds = _parse_bounds(bounds_cfg, workload)

    if seed_override is not None:
        workload = replace(workload, seed=seed_override)

    return Scenario(
        name=path.stem, clusters=clusters, links=links, mode=mode,
        default_bound=default_bound, bounds=bounds, tick_ms=tick_ms,
        window_ms=window_ms, workload=workload,
    )


def _parse_workload(parser: configparser.ConfigParser,
                    clusters: tuple[int, ...]) -> WorkloadSpec:
    wl = parser["workload"]
    script_fields = {}
    if "blocks" in parser:
        _reject_keys(wl, "workload", {"seed", "value_bytes", "origins"},
                     "with a [blocks] script")
        script = _spec(BlockScript, "blocks", **_fields(parser["blocks"], "blocks", _BLOCK_KEYS))
        script_fields = {"operations": script.total_updates, "block_script": script}
    if wl.get("distribution") == "uniform" and "zipf_constant" in wl:
        raise ScenarioError("workload.zipf_constant has no effect under distribution = uniform")
    workload = _spec(WorkloadSpec, "workload", **_fields(wl, "workload", _WORKLOAD_KEYS),
                     **script_fields)
    for origin in workload.origins:
        if origin not in clusters:
            raise ScenarioError(f"workload.origins: {origin} is not a declared cluster")
    return workload


def _fields(section, name: str, parsers: dict) -> dict:
    """The keys ``section`` sets, parsed (``load_scenario`` has already
    rejected unknown keys); an unset key keeps its field default."""
    return {key: parsers[key](section.get(key), f"{name}.{key}") for key in section}


def _spec(cls, name: str, **fields):
    """``cls(**fields)``, with a failed field check reported under its key,
    ``name.field``: each check of ``cls`` starts its message with its field."""
    try:
        return cls(**fields)
    except ScenarioError as exc:
        raise ScenarioError(f"{name}.{exc}") from None


def _reject_keys(section, name: str, read: set[str], where: str) -> None:
    """Reject any key of ``section`` outside ``read``: it would be ignored."""
    for key in section:
        if key not in read:
            raise ScenarioError(f"{name}.{key} has no effect {where}")


def _parse_bounds(section, workload: WorkloadSpec) -> tuple[Bound, dict[ContainerId, Bound]]:
    default_triple = section.get("default")
    default_bound = _parse_bound_triple(default_triple, "bounds.default") \
        if default_triple is not None else Bound()
    if "pending_percent" in section:
        if default_bound.pending:
            raise ScenarioError(
                "bounds.pending_percent conflicts with a pending count in bounds.default")
        percent = _parse_float(section["pending_percent"], "bounds.pending_percent")
        try:
            pending = pending_from_percent(percent, workload.total_updates)
        except ValueError as exc:
            raise ScenarioError(f"bounds.pending_percent: {exc}") from exc
        default_bound = Bound(default_bound.lag_ms, pending, default_bound.drift)
    bounds = {_parse_container(key, f"bounds.{key}"): _parse_bound_triple(raw, f"bounds.{key}")
              for key, raw in section.items() if ":" in key}
    script = workload.block_script
    written = script.containers if script is not None else [c for c, _ in workload.containers]
    if workload.total_updates == 0:
        written = []
    for cid in bounds:
        if cid not in written:
            raise ScenarioError(f"bounds.{cid}: the workload writes no such container")
    if not written and default_triple is not None:
        raise ScenarioError("bounds.default has no effect under a workload that writes nothing")
    for where, bound in [("default", default_bound), *bounds.items()]:
        if bound.drift:
            raise ScenarioError(f"bounds.{where}: a drift limit has no effect on random bytes")
    return default_bound, bounds


def _parse_bound_triple(raw: str, where: str) -> Bound:
    parts = raw.split()
    if len(parts) != 3:
        raise ScenarioError(f"{where} must be 'lag_ms pending drift': {raw!r}")
    try:
        return Bound(int(parts[0]), int(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise ScenarioError(f"bad bound in {where}: {exc}") from exc


def _each(parse: Callable) -> Callable[[str, str], tuple]:
    """A parser of a space-separated list, made from one of its items."""
    return lambda raw, where: tuple(parse(tok, where) for tok in raw.split())


def _parse_weighted_container(tok: str, where: str) -> tuple[ContainerId, float]:
    name, star, weight = tok.partition("*")
    return (_parse_container(name, where),
            _parse_float(weight, f"{where}: weight of {name}") if star else 1.0)


def _parse_mode(tok: str, where: str) -> BlockMode:
    try:
        return BlockMode[tok.upper()]
    except KeyError:
        raise ScenarioError(f"{where}: unknown block mode {tok!r} (IMMEDIATE or ANY)") from None


def _parse_container(text: str, where: str) -> ContainerId:
    try:
        return ContainerId.parse(text)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_link(token: str, where: str) -> tuple[int, int]:
    src, sep, dst = token.partition(">")
    if not sep:
        raise ScenarioError(f"{where}: a link must be written 'src>dst': {token!r}")
    return _parse_int(src, f"{where}: link {token!r}"), _parse_int(dst, f"{where}: link {token!r}")


def _parse_int(raw: str, where: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ScenarioError(f"{where}: not an integer: {raw!r}") from None
    # A larger count would overflow the float arithmetic of percentages.
    if value.bit_length() > 63:
        raise ScenarioError(f"{where}: not a 64-bit integer: {raw!r}")
    return value


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"{where}: not a number: {raw!r}") from None


def _parse_bool(raw: str, where: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ScenarioError(f"{where}: not a boolean: {raw!r}")


# One parser per [workload] or [blocks] key: the WorkloadSpec or
# BlockScript field of the same name, which holds the key's default.
_WORKLOAD_KEYS = {
    "operations": _parse_int,
    "write_fraction": _parse_float,
    "distribution": lambda raw, where: raw,
    "zipf_constant": _parse_float,
    "keyspace": _parse_int,
    "value_bytes": _parse_int,
    "containers": _each(_parse_weighted_container),
    "seed": _parse_int,
    "burst_ops": _parse_int,
    "burst_spacing_ms": _parse_int,
    "origins": _each(_parse_int),
    "disjoint_keys": _parse_bool,
}
_BLOCK_KEYS = {
    "count": _parse_int,
    "puts_per_block": _parse_int,
    "pattern": _each(_parse_mode),
    "containers": _each(_parse_container),
    "spacing_ms": _parse_int,
}

_KNOWN_KEYS = {
    "topology": {"clusters", "links"},
    "network": {"latency_ms", "partitions", "window_ms"},
    "bounds": {"mode", "default", "pending_percent", "tick_ms"},
    "workload": _WORKLOAD_KEYS.keys(),
    "blocks": _BLOCK_KEYS.keys(),
}
