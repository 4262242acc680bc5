"""Persist violations: every rule in the persist family fires.

Analyzed as data, never imported.
"""


class BadController:
    def __init__(self, engine, memctrl):
        self.engine = engine
        self.memctrl = memctrl
        self.committed_meta = None      # __init__ is exempt by design

    # -- persist-committed-mutation --------------------------------------

    def poke_committed(self, block, region):
        self.committed_meta.block_regions[block] = region

    def grow_committed(self, page, slot):
        self.committed_meta.page_regions.update({page: slot})
