"""Clean committed-snapshot idioms: nothing in the persist family fires.

A commit builds a new snapshot and swaps it in whole; reads through
the committed snapshot are fine.
"""


class GoodController:
    def __init__(self, memctrl):
        self.memctrl = memctrl
        self.committed_meta = None

    def swap_snapshot(self, epoch):
        self.committed_meta = self._snapshot(epoch)

    def read_committed(self, block):
        return self.committed_meta.block_regions.get(block)

    def copy_then_edit(self, block, region):
        fresh = dict(self.committed_meta.block_regions)
        fresh[block] = region
        return fresh
