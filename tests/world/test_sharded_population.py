"""Property-based tests for the sharded lazy population.

The contract the streaming scan engine stands on:

- **shard independence** — building shard *k* in isolation equals
  shard *k* sliced out of a full build (host content is a pure
  function of ``(seed, global index)``, never of shard partitioning);
- **seed sensitivity** — different seeds produce different universes;
- **cross-shard uniqueness** — host ids and addresses never collide
  across shards.

Exercised over randomized ``(seed, host_count, shard_count)`` draws —
via Hypothesis when it is installed, and over a fixed seeded sample
otherwise, so tier-1 checks the same properties either way.
"""

from __future__ import annotations

import random

import pytest

from repro.world.population import (
    CONSOLE_MARKER,
    SHARDED_ADDRESS_BASE,
    ShardedPopulation,
    ShardedPopulationConfig,
    shard_bounds_for,
)

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without the dep
    HAVE_HYPOTHESIS = False


def _config(host_count: int, shard_count: int) -> ShardedPopulationConfig:
    return ShardedPopulationConfig(
        host_count=host_count, shard_count=shard_count
    )


def _check_shard_independence(
    seed: int, host_count: int, shard_count: int
) -> None:
    full = ShardedPopulation(seed, _config(host_count, 1))
    sharded = ShardedPopulation(seed, _config(host_count, shard_count))
    everything = [full.raw_at(i) for i in range(host_count)]
    rebuilt = []
    for shard in range(shard_count):
        start, stop = sharded.shard_bounds(shard)
        isolated = [sharded.raw_at(i) for i in range(start, stop)]
        assert isolated == everything[start:stop]
        rebuilt.extend(isolated)
    assert rebuilt == everything


def _check_uniqueness(seed: int, host_count: int, shard_count: int) -> None:
    population = ShardedPopulation(seed, _config(host_count, shard_count))
    seen_indexes = set()
    seen_ips = set()
    for shard in range(shard_count):
        start, stop = population.shard_bounds(shard)
        for index in range(start, stop):
            host_index, ip = population.raw_at(index)[:2]
            assert host_index == index
            assert host_index not in seen_indexes
            assert ip not in seen_ips
            seen_indexes.add(host_index)
            seen_ips.add(ip)
    assert len(seen_indexes) == host_count


if HAVE_HYPOTHESIS:

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        host_count=st.integers(min_value=0, max_value=400),
        shard_count=st.integers(min_value=1, max_value=12),
    )
    def test_shard_independence_property(seed, host_count, shard_count):
        _check_shard_independence(seed, host_count, shard_count)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        host_count=st.integers(min_value=1, max_value=300),
        shard_count=st.integers(min_value=1, max_value=9),
    )
    def test_cross_shard_uniqueness_property(seed, host_count, shard_count):
        _check_uniqueness(seed, host_count, shard_count)

else:  # pragma: no cover - fallback for environments without hypothesis

    def test_shard_independence_property():
        rng = random.Random(0xC0FFEE)
        for _ in range(30):
            _check_shard_independence(
                rng.randrange(2**32), rng.randrange(0, 400),
                rng.randrange(1, 13),
            )

    def test_cross_shard_uniqueness_property():
        rng = random.Random(0xBEEF)
        for _ in range(20):
            _check_uniqueness(
                rng.randrange(2**32), rng.randrange(1, 300),
                rng.randrange(1, 10),
            )


def test_shard_count_invariance():
    """The same (seed, index) yields the same host at any partitioning."""
    for shard_count in (1, 3, 7, 16):
        population = ShardedPopulation(77, _config(500, shard_count))
        assert population.raw_at(123) == ShardedPopulation(
            77, _config(500, 1)
        ).raw_at(123)


def test_seed_sensitivity():
    """Different seeds must produce observably different universes."""
    a = ShardedPopulation(1, _config(200, 4))
    b = ShardedPopulation(2, _config(200, 4))
    assert [a.raw_at(i) for i in range(200)] != [
        b.raw_at(i) for i in range(200)
    ]


def test_shard_bounds_partition_exactly():
    """Bounds tile [0, host_count) with no gap or overlap, any split."""
    rng = random.Random(31337)
    for _ in range(50):
        host_count = rng.randrange(0, 1000)
        shard_count = rng.randrange(1, 20)
        cursor = 0
        for shard in range(shard_count):
            start, stop = shard_bounds_for(host_count, shard_count, shard)
            assert start == cursor
            assert stop >= start
            cursor = stop
        assert cursor == host_count


def test_population_composition():
    """Installs carry the console marker; decoys don't; rates are sane."""
    from repro.products.registry import default_registry

    keywords = [
        keyword.strip('"').lower()
        for spec in default_registry().resolve(None)
        for keyword in spec.shodan_keywords
    ]
    population = ShardedPopulation(5, _config(5000, 8))
    installs = decoys = 0
    for shard in range(population.shard_count):
        start, stop = population.shard_bounds(shard)
        for index in range(start, stop):
            (
                _index, ip, _port, _country, _asn, banner, product,
                install_keyword,
            ) = population.raw_at(index)
            lowered = banner.lower()
            if product is not None:
                installs += 1
                assert CONSOLE_MARKER in lowered
                assert install_keyword is not None
            elif any(keyword in lowered for keyword in keywords):
                decoys += 1
                assert CONSOLE_MARKER not in lowered
            assert ip >= SHARDED_ADDRESS_BASE
    # 1.2% installs / 2% decoys of 5000, generously bracketed.
    assert 20 <= installs <= 130
    assert decoys >= 20


def test_config_validation():
    with pytest.raises(ValueError):
        ShardedPopulationConfig(host_count=-1)
    with pytest.raises(ValueError):
        ShardedPopulationConfig(shard_count=0)
    with pytest.raises(ValueError):
        ShardedPopulationConfig(install_rate=0.7, decoy_rate=0.6)
    with pytest.raises(IndexError):
        ShardedPopulation(1, _config(10, 2)).shard_bounds(2)


def test_identity_excludes_shard_count():
    """Epoch identity must be invariant to the build partitioning."""
    a = ShardedPopulation(3, _config(100, 2)).identity()
    b = ShardedPopulation(3, _config(100, 16)).identity()
    assert a == b


class DescribeFromIdentity:
    """Round-tripping a config through its identity dict — what a
    distributed-scan worker does when it rebuilds the coordinator's
    population."""

    def test_round_trips_exactly(self):
        config = ShardedPopulationConfig(
            host_count=5_000,
            shard_count=8,
            install_rate=0.04,
            decoy_rate=0.02,
            country_codes=("YE", "QA"),
            asn_count=40,
            products=("netsweeper",),
        )
        rebuilt = ShardedPopulationConfig.from_identity(
            config.identity(), shard_count=config.shard_count
        )
        assert rebuilt == config
        assert rebuilt.identity() == config.identity()

    def test_defaults_round_trip(self):
        config = ShardedPopulationConfig(host_count=100)
        rebuilt = ShardedPopulationConfig.from_identity(
            config.identity(), shard_count=16
        )
        assert rebuilt.identity() == config.identity()

    def test_rejects_unknown_keys(self):
        identity = ShardedPopulationConfig(host_count=100).identity()
        identity["extra"] = 1
        with pytest.raises(ValueError):
            ShardedPopulationConfig.from_identity(identity, shard_count=2)

    def test_rejects_missing_keys(self):
        identity = ShardedPopulationConfig(host_count=100).identity()
        del identity["install_rate"]
        with pytest.raises(ValueError):
            ShardedPopulationConfig.from_identity(identity, shard_count=2)
