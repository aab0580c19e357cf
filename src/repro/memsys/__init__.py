"""Memory system models: the instruction and data caches.

The load/store queue is state of
:class:`~repro.pipeline.processor.Processor` (``lsq_occupancy`` and the
store index ``stores_at``, read by ``Processor.forwarding_store``).
"""

from repro.memsys.cache import CacheModel, CacheConfig, AccessResult

__all__ = [
    "CacheModel",
    "CacheConfig",
    "AccessResult",
]
