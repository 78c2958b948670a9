"""World model: simulated clock, entities, topology, and population."""

from repro.world.clock import MINUTES_PER_DAY, SimClock, SimTime
from repro.world.content import ContentClass
from repro.world.entities import (
    AutonomousSystem,
    Country,
    Host,
    InterceptAction,
    InterceptKind,
    ISP,
    OnPathDevice,
    Organization,
    OrgKind,
    WebSite,
)
from repro.world.population import (
    DEFAULT_CLASS_MIX,
    DomainSynthesizer,
    PopulationConfig,
    ShardedPopulation,
    ShardedPopulationConfig,
    populate,
    shard_bounds_for,
)
from repro.world.rng import (
    derive_rng,
    derive_seed,
    stable_sample,
    stable_shuffle,
    weighted_choice,
)
from repro.world.world import MAX_REDIRECTS, Vantage, World


def __getattr__(name: str):
    # The builder pulls in repro.middlebox (deployments), whose modules
    # import repro.products, whose base classes import this package —
    # importing it lazily keeps repro.world importable from either side
    # of that cycle.
    if name in ("CustomScenario", "WorldBuilder"):
        from repro.world import builder

        return getattr(builder, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AutonomousSystem",
    "ContentClass",
    "CustomScenario",
    "WorldBuilder",
    "Country",
    "DEFAULT_CLASS_MIX",
    "DomainSynthesizer",
    "Host",
    "ISP",
    "InterceptAction",
    "InterceptKind",
    "MAX_REDIRECTS",
    "MINUTES_PER_DAY",
    "OnPathDevice",
    "Organization",
    "OrgKind",
    "PopulationConfig",
    "ShardedPopulation",
    "ShardedPopulationConfig",
    "SimClock",
    "SimTime",
    "Vantage",
    "WebSite",
    "World",
    "derive_rng",
    "derive_seed",
    "populate",
    "shard_bounds_for",
    "stable_sample",
    "stable_shuffle",
    "weighted_choice",
]
