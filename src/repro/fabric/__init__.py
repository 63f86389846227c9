"""The async sharded event fabric (compress-once / fan-out-many).

Channels shard across N loops by stable CRC32 hash; each event is
compressed once per distinct ``(method, canonical params)`` through a
bounded LRU :class:`~repro.fabric.cache.BlockCache` and every subscriber
that resolved to the same configuration is served zero-copy from the
cached bytes.  See DESIGN.md's fabric section for the architecture and
ownership rules.
"""

from .broker import DeliveryCallback, EventFabric, FabricSubscription
from .cache import BlockCache, CacheKey
from .loadgen import DEFAULT_SPECS, FanoutConfig, FanoutResult, run_fanout
from .sharding import shard_assignments, shard_index, shard_load

__all__ = [
    "BlockCache",
    "CacheKey",
    "DeliveryCallback",
    "DEFAULT_SPECS",
    "EventFabric",
    "FabricSubscription",
    "FanoutConfig",
    "FanoutResult",
    "run_fanout",
    "shard_assignments",
    "shard_index",
    "shard_load",
]
