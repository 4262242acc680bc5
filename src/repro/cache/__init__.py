"""Set-associative cache hierarchy (timing model).

The caches are timing-only: they track presence and dirtiness of 64 B
blocks, not payloads.  Functional crash-consistency tests drive the
memory system directly below this layer.
"""

from .cache import Cache
from .hierarchy import CacheHierarchy

__all__ = ["Cache", "CacheHierarchy"]
