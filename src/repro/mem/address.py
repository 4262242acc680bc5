"""Address arithmetic helpers.

:class:`AddressMap` centralizes the block/page geometry so the
controllers never do shift-and-mask arithmetic inline (the core and the
caches shift by the block size themselves on every access).  Physical
addresses are what software sees; hardware addresses (device offsets)
are produced by the consistency controllers' translation layers.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..errors import AddressError


class AddressMap:
    """Block/page geometry for one configured machine."""

    def __init__(self, config: SystemConfig) -> None:
        self.block_bytes = config.block_bytes
        self.page_bytes = config.page_bytes
        self.physical_bytes = config.physical_bytes
        self._block_shift = self.block_bytes.bit_length() - 1
        self._page_shift = self.page_bytes.bit_length() - 1

    # --- index extraction ---------------------------------------------

    def block_index(self, addr: int) -> int:
        """Physical block number containing ``addr``."""
        return addr >> self._block_shift

    def page_index(self, addr: int) -> int:
        """Physical page number containing ``addr``."""
        return addr >> self._page_shift

    def page_of_block(self, block: int) -> int:
        """Page number containing block number ``block``."""
        return block >> (self._page_shift - self._block_shift)

    def blocks_in_page(self, page: int) -> range:
        """Block numbers belonging to page number ``page``."""
        per_page = self.page_bytes >> self._block_shift
        first = page * per_page
        return range(first, first + per_page)

    # --- address construction --------------------------------------------

    def block_addr(self, block: int) -> int:
        """Byte address of the start of block number ``block``."""
        return block << self._block_shift

    def page_addr(self, page: int) -> int:
        """Byte address of the start of page number ``page``."""
        return page << self._page_shift

    def block_align(self, addr: int) -> int:
        """Round ``addr`` down to its block boundary."""
        return addr & ~(self.block_bytes - 1)

    # --- validation ------------------------------------------------------

    def check(self, addr: int) -> None:
        """Raise :class:`AddressError` if outside the physical space."""
        if not 0 <= addr < self.physical_bytes:
            raise AddressError(
                f"address 0x{addr:x} outside physical space "
                f"(0x{self.physical_bytes:x} bytes)")
