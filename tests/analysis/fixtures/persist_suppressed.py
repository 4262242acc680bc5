"""Persist violations carrying reviewed inline suppressions."""


class SuppressedController:
    def __init__(self, memctrl):
        self.memctrl = memctrl
        self.committed_meta = None

    def poke_committed(self, block, region):
        self.committed_meta.block_regions[block] = region   # lint: ok[persist-committed-mutation]

    def grow_committed(self, page, slot):
        self.committed_meta.page_regions.update({page: slot})   # lint: ok
