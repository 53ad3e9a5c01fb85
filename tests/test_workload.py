"""Workload generation: mixes, key distributions, pacing, block scripts."""

import bisect
import math
import random
from array import array
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georep.blocks import BlockMode
from georep.bounds import ContainerId
from georep.errors import ScenarioError
from georep.workload import (BlockOp, BlockScript, ReadOp, WorkloadSpec, WriteOp, _zipf_cdf,
                             generate)

CID = ContainerId("usertable", "family")


def spec(**kwargs):
    base = dict(operations=10, distribution="uniform", keyspace=100,
                value_bytes=8, seed=1)
    base.update(kwargs)
    return WorkloadSpec(**base)


class TestMix:
    def test_fifty_fifty_interleaves_exactly(self):
        ops = [op for _, _, op in generate(spec(operations=10, write_fraction=0.5))]
        kinds = ["W" if isinstance(op, WriteOp) else "R" for op in ops]
        assert kinds == ["R", "W"] * 5

    def test_all_writes(self):
        ops = [op for _, _, op in generate(spec(operations=20, write_fraction=1.0))]
        assert all(isinstance(op, WriteOp) for op in ops)

    def test_all_reads(self):
        ops = [op for _, _, op in generate(spec(operations=20, write_fraction=0.0))]
        assert all(isinstance(op, ReadOp) for op in ops)

    @given(n=st.integers(1, 400), wf=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_write_count_is_exactly_floored_fraction(self, n, wf):
        ops = [op for _, _, op in generate(spec(operations=n, write_fraction=wf))]
        writes = sum(isinstance(op, WriteOp) for op in ops)
        assert len(ops) == n
        assert writes == math.floor(n * wf)


def reference_zipf_cdf(keyspace, constant):
    """The zipfian key CDF as first written: rank r drawn proportional
    to 1 / (r+1)^s."""
    weights = [1.0 / math.pow(rank + 1, constant) for rank in range(keyspace)]
    total = math.fsum(weights)
    acc = 0.0
    cdf = []
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


def reference_generate(spec):
    """The generator as first written, one frozen record per op: each op
    as (instant, origin, kind, fields)."""
    rng = random.Random(spec.seed)
    if spec.block_script is not None:
        script = spec.block_script
        for bi in range(script.count):
            at_ms = bi * script.spacing_ms
            origin = spec.origins[bi % len(spec.origins)]
            writes = []
            for pi in range(script.puts_per_block):
                cid = script.containers[pi % len(script.containers)]
                writes.append(WriteOp(cid, f"b{bi}-p{pi}", rng.randbytes(spec.value_bytes)))
            yield at_ms, origin, "BlockOp", (script.pattern[bi % len(script.pattern)],
                                             tuple(writes))
        return
    key_cdf = None
    if spec.distribution == "zipfian":
        key_cdf = reference_zipf_cdf(spec.keyspace, spec.zipf_constant)
    cids = [cid for cid, _ in spec.containers]
    cum_weights = None
    if len(cids) > 1:
        total = sum(w for _, w in spec.containers)
        acc = 0.0
        cum_weights = []
        for _, w in spec.containers:
            acc += w
            cum_weights.append(acc / total)
        cum_weights[-1] = 1.0
    for k in range(spec.operations):
        at_ms = (k // spec.burst_ops) * spec.burst_spacing_ms
        origin = spec.origins[k % len(spec.origins)]
        if cum_weights is None:
            cid = cids[0]
        else:
            cid = cids[bisect.bisect_right(cum_weights, rng.random())]
        if key_cdf is None:
            idx = rng.randrange(spec.keyspace)
        else:
            idx = bisect.bisect_right(key_cdf, rng.random())
        key = f"c{origin}-user{idx}" if spec.disjoint_keys else f"user{idx}"
        wf = spec.write_fraction
        if math.floor((k + 1) * wf) > math.floor(k * wf):
            yield at_ms, origin, "WriteOp", (cid, key, rng.randbytes(spec.value_bytes))
        else:
            yield at_ms, origin, "ReadOp", (cid, key)


scripts = st.builds(
    BlockScript, count=st.integers(1, 12), puts_per_block=st.integers(1, 5),
    pattern=st.lists(st.sampled_from(BlockMode), min_size=1, max_size=4).map(tuple),
    containers=st.lists(st.sampled_from([CID, ContainerId("t", "f"), ContainerId("u", "f")]),
                        min_size=1, max_size=3).map(tuple),
    spacing_ms=st.integers(1, 3))
specs = st.builds(
    WorkloadSpec, operations=st.integers(1, 300),
    write_fraction=st.sampled_from([0.0, 1.0, 1 / 3, 0.999, 0.5]) | st.floats(0, 1),
    distribution=st.sampled_from(["zipfian", "uniform"]),
    zipf_constant=st.sampled_from([0.5, 0.99]), keyspace=st.integers(1, 300),
    value_bytes=st.integers(1, 40),
    containers=st.lists(st.tuples(st.sampled_from([CID, ContainerId("t", "f"),
                                                   ContainerId("u", "f")]),
                                  st.floats(0.1, 5.0)),
                        min_size=1, max_size=3).map(tuple),
    seed=st.integers(0, 2**32), burst_ops=st.integers(1, 7),
    burst_spacing_ms=st.integers(1, 4),
    origins=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    disjoint_keys=st.booleans(), block_script=st.none() | scripts)


@given(specs)
@settings(max_examples=200, deadline=None)
def test_stream_matches_the_reference_generator(workload):
    got = [(at_ms, origin, type(op).__name__, tuple(op))
           for at_ms, origin, op in generate(workload)]
    assert got == list(reference_generate(workload))


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = list(generate(spec(operations=200, seed=99)))
        b = list(generate(spec(operations=200, seed=99)))
        assert a == b

    def test_different_seed_differs(self):
        a = list(generate(spec(operations=200, seed=1)))
        b = list(generate(spec(operations=200, seed=2)))
        assert a != b


class TestPacing:
    def test_default_is_one_op_per_millisecond(self):
        times = [at for at, _, _ in generate(spec(operations=5))]
        assert times == [0, 1, 2, 3, 4]

    def test_bursts_share_instants(self):
        s = spec(operations=12, burst_ops=4, burst_spacing_ms=100)
        times = [at for at, _, _ in generate(s)]
        assert times == [0] * 4 + [100] * 4 + [200] * 4

    def test_origins_round_robin(self):
        s = spec(operations=6, origins=(1, 2))
        assert [o for _, o, _ in generate(s)] == [1, 2, 1, 2, 1, 2]

    def test_disjoint_keys_prefix_per_origin(self):
        s = spec(operations=4, origins=(1, 2), disjoint_keys=True,
                 write_fraction=1.0)
        keys = [op.key for _, _, op in generate(s)]
        assert all(k.startswith(("c1-", "c2-")) for k in keys)

    def test_value_bytes_is_respected(self):
        s = spec(operations=4, write_fraction=1.0, value_bytes=17)
        assert all(len(op.value) == 17 for _, _, op in generate(s))


class TestUniformDistribution:
    def test_frequencies_near_uniform(self):
        # 10^5 draws over 1000 keys: each count within 5 sigma of 100.
        s = spec(operations=100_000, write_fraction=0.0, keyspace=1000, seed=5)
        counts = Counter(op.key for _, _, op in generate(s))
        expect = 100
        sigma = math.sqrt(100_000 * (1 / 1000) * (1 - 1 / 1000))
        assert len(counts) == 1000
        for count in counts.values():
            assert abs(count - expect) <= 5 * sigma


@pytest.mark.parametrize("keyspace, constant", [
    (1, 0.5), (2, 0.99), (1000, 0.01), (10_000, 0.5), (100_000, 0.99)])
def test_zipf_cdf_is_bit_identical_to_the_listcomp_formula(keyspace, constant):
    weights = [1.0 / math.pow(rank + 1, constant) for rank in range(keyspace)]
    whole = math.fsum(weights)
    listed = array("d", [acc / whole for acc in accumulate(weights)])
    listed[-1] = 1.0
    assert _zipf_cdf(keyspace, constant).tobytes() == listed.tobytes()


def draw(cdf, rng):
    return bisect.bisect_right(cdf, rng.random())


class TestZipfianDistribution:
    def test_keyspace_of_one_always_hits_rank_zero(self):
        cdf = _zipf_cdf(1, 0.5)
        rng = random.Random(3)
        assert all(draw(cdf, rng) == 0 for _ in range(100))

    def test_constant_outside_unit_interval_rejected(self):
        for c in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ScenarioError):
                spec(distribution="zipfian", zipf_constant=c)
        with pytest.raises(ScenarioError):
            spec(distribution="zipfian", zipf_constant=1.5)

    def test_top_rank_frequency_matches_harmonic_oracle(self):
        """Empirical top-10 rank frequencies within 1% relative error of
        1/((r+1)^s * H) where H is the generalized harmonic sum.

        Deterministic under the pinned seed; 3M draws keep the 1% band
        at roughly 3 sigma for the thinnest of the ten ranks.
        """
        keyspace, constant, draws = 1000, 0.99, 3_000_000
        harmonic = math.fsum(1 / (k ** constant) for k in range(1, keyspace + 1))
        cdf = _zipf_cdf(keyspace, constant)
        rng = random.Random(99)
        counts = Counter(draw(cdf, rng) for _ in range(draws))
        for rank in range(10):
            expected = draws / ((rank + 1) ** constant * harmonic)
            assert abs(counts[rank] - expected) / expected < 0.01

    def test_small_constant_approaches_uniform(self):
        keyspace, draws = 50, 200_000
        cdf = _zipf_cdf(keyspace, 0.01)
        rng = random.Random(7)
        counts = Counter(draw(cdf, rng) for _ in range(draws))
        expect = draws / keyspace
        for rank in range(keyspace):
            assert abs(counts[rank] - expect) / expect < 0.15

    def test_cdf_covers_unit_interval(self):
        cdf = _zipf_cdf(10, 0.99)
        assert cdf[-1] == 1.0
        assert all(0 < p <= 1 for p in cdf)


class TestContainers:
    def test_single_container_used_throughout(self):
        s = spec(operations=40, write_fraction=1.0)
        assert {op.container for _, _, op in generate(s)} == {CID}

    def test_weighted_split_roughly_follows_weights(self):
        heavy, light = ContainerId("heavy", "f"), ContainerId("light", "f")
        s = spec(operations=20_000, write_fraction=1.0,
                 containers=((heavy, 3.0), (light, 1.0)), seed=11)
        counts = Counter(op.container for _, _, op in generate(s))
        share = counts[heavy] / 20_000
        assert 0.70 < share < 0.80

    def test_weight_total_is_the_plain_float_sum(self, monkeypatch):
        # Weights 0.1, 0.2, 0.3 sum to 0.6000000000000001, which puts the
        # second cut point at exactly 0.5, so a draw of 0.5 lands on the
        # third container; an exact total (math.fsum, 0.6) would put the
        # cut at 0.5000000000000001 and the draw on the second.
        class Half(random.Random):
            def random(self):
                return 0.5

        monkeypatch.setattr(random, "Random", Half)
        a, b, c = (ContainerId(t, "f") for t in "abc")
        s = spec(operations=30, write_fraction=1.0,
                 containers=((a, 0.1), (b, 0.2), (c, 0.3)))
        assert {op.container for _, _, op in generate(s)} == {c}


class TestBlockScripts:
    def script(self, **kwargs):
        base = dict(count=4, puts_per_block=3,
                    pattern=(BlockMode.IMMEDIATE, BlockMode.ANY),
                    containers=(ContainerId("a", "f"), ContainerId("b", "f")),
                    spacing_ms=10)
        base.update(kwargs)
        return BlockScript(**base)

    def test_stream_shape(self):
        s = spec(operations=12, block_script=self.script())
        ops = list(generate(s))
        # 4 blocks, each one op holding its 3 puts.
        assert len(ops) == 4
        for _, _, op in ops:
            assert isinstance(op, BlockOp)
            assert isinstance(op.writes, tuple) and len(op.writes) == 3
            assert all(isinstance(write, WriteOp) for write in op.writes)

    def test_modes_cycle_across_blocks(self):
        s = spec(operations=12, block_script=self.script())
        blocks = [op for _, _, op in generate(s)]
        assert [op.mode for op in blocks] == [
            BlockMode.IMMEDIATE, BlockMode.ANY, BlockMode.IMMEDIATE, BlockMode.ANY]

    def test_containers_cycle_within_a_block(self):
        s = spec(operations=12, block_script=self.script())
        first_block_writes = next(generate(s))[2].writes
        names = [str(op.container) for op in first_block_writes]
        assert names == ["a:f", "b:f", "a:f"]

    def test_blocks_are_spaced(self):
        s = spec(operations=12, block_script=self.script())
        times = sorted({at for at, _, _ in generate(s)})
        assert times == [0, 10, 20, 30]

    def test_total_updates_counts_puts(self):
        assert self.script().total_updates == 12
        s = spec(operations=12, block_script=self.script())
        assert s.total_updates == 12

    def test_invalid_scripts_rejected(self):
        with pytest.raises(ScenarioError):
            self.script(count=0)
        with pytest.raises(ScenarioError):
            self.script(pattern=())
        with pytest.raises(ScenarioError):
            self.script(spacing_ms=0)


class TestSpecValidation:
    @pytest.mark.parametrize("bad", [
        dict(operations=0),
        dict(write_fraction=1.5),
        dict(distribution="pareto"),
        dict(keyspace=0),
        dict(value_bytes=0),
        dict(containers=((CID, 0.0),)),
        dict(burst_ops=0),
        dict(origins=()),
    ])
    def test_rejections(self, bad):
        with pytest.raises(ScenarioError):
            spec(**bad)

    def test_total_updates_for_plain_stream(self):
        assert spec(operations=50_000, write_fraction=0.5).total_updates == 25_000
        assert spec(operations=7, write_fraction=0.5).total_updates == 3
