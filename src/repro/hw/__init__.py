"""Hardware substrate for the simulated MI300A APU.

Exports the configuration dataclasses, the simulated clock, the HBM
channel-mapping model, the Infinity Cache model, the cache-hierarchy
latency model, and the chiplet topology.
"""

from .caches import CacheHierarchy, HierarchyLevel, cpu_hierarchy, gpu_hierarchy
from .clock import SimClock
from .config import (
    GiB,
    KiB,
    MAX_FRAGMENT_EXPONENT,
    MI300AConfig,
    MiB,
    PAGE_SIZE,
    TiB,
    default_config,
    small_config,
)
from .hbm import HBMSubsystem, channel_balance, effective_slice_hit_fraction
from .infinity_cache import ICResidency, InfinityCache
from .topology import APUTopology, Chiplet, link_pairs

__all__ = [
    "APUTopology",
    "CacheHierarchy",
    "Chiplet",
    "GiB",
    "HBMSubsystem",
    "HierarchyLevel",
    "ICResidency",
    "InfinityCache",
    "KiB",
    "MAX_FRAGMENT_EXPONENT",
    "MI300AConfig",
    "MiB",
    "PAGE_SIZE",
    "SimClock",
    "TiB",
    "channel_balance",
    "cpu_hierarchy",
    "default_config",
    "effective_slice_hit_fraction",
    "gpu_hierarchy",
    "link_pairs",
    "small_config",
]
