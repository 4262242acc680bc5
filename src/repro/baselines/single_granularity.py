"""Uniform-granularity ThyNVM ablations (Table 1, §2.3).

The paper's central observation is that *no single* checkpointing
granularity wins: cache-block granularity minimizes stall time but
needs a metadata entry per block, while page granularity needs little
metadata but stalls the application behind full-page writebacks.
These two policies instantiate exactly those corner designs using the
ThyNVM controller itself, so the Table 1 tradeoff (and the §1 claims —
up to 86.2 % stall-time reduction vs. uniform page granularity at 26 %
of uniform block granularity's metadata) can be measured directly.
"""

from __future__ import annotations

from ..core.controller import ThyNVMPolicy


def block_only_policy() -> ThyNVMPolicy:
    """Uniform cache-block-granularity checkpointing (option ③ in
    Table 1): every write is block-remapped in NVM, no page writeback.

    Short checkpoint latency (metadata-only), but metadata storage
    scales with the write working set in *blocks*.
    """
    return ThyNVMPolicy(
        enable_page_writeback=False,
        enable_block_remapping=True,
        temp_cooperation=True,
    )


def page_only_policy() -> ThyNVMPolicy:
    """Uniform page-granularity checkpointing (option ② in Table 1):
    every written page is cached in DRAM and checkpointed by full-page
    writeback; no block remapping exists, so stores to a page whose
    checkpoint is still in flight must wait.

    Small metadata, long checkpoint latency on the critical path.
    """
    return ThyNVMPolicy(
        enable_page_writeback=True,
        enable_block_remapping=False,
        temp_cooperation=False,
    )
