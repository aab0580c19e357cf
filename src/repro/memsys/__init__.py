"""Memory system models: caches and the load/store queue."""

from repro.memsys.cache import CacheModel, CacheConfig, AccessResult
from repro.memsys.lsq import LoadStoreQueue

__all__ = [
    "CacheModel",
    "CacheConfig",
    "AccessResult",
    "LoadStoreQueue",
]
