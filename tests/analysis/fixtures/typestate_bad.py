"""Bulk-run typestate violations: every rule in the family fires.

Analyzed as data, never imported — the shapes mirror the real
queue/controller code (`sim/queueing.py`, `mem/controller.py`) without
needing imports.
"""


class BadQueue:
    # -- typestate-cursor-monotonic: decrement + constant reset ----------

    def unservice_block(self, request):
        if request.total == 1:
            return
        request.serviced -= 1            # cursor moves backwards

    def restart_run(self, request):
        request.issued = 0               # reset outside a reset context
        request.total += 1

    # -- typestate-cursor-order: cross-rank aliasing (the seeded bug) ----

    def service_head_block(self, request):
        if request.total == 1:
            return
        request.serviced = request.completed

    # -- typestate-grow-tail-only: refusal discarded ---------------------

    def admit_next(self, queue, request):
        queue.grow_bulk(request)         # False means the block is lost

    def first_admission(self, queue, request):
        queue.try_enqueue_bulk(request)  # admitted count discarded


class BadIssuer:
    # -- typestate-parallel-arrays ---------------------------------------

    def store_payload(self, request, data):
        request.block_data.append(data)  # grows the preallocated array

    def stamp_admission(self, request, index, now):
        request.admit_times[index] = now  # slot-store in the grown array

    def swap_arrays(self, request, total):
        request.admit_times = [0] * total  # wholesale rebind mid-run


class BadController:
    # -- typestate-crashed-use -------------------------------------------

    def __init__(self, memctrl):
        self.memctrl = memctrl
        self._crashed = False

    def write_block(self, addr, origin, data):
        self._issue_write(DeviceKind.NVM, addr, origin, data, None)

    def crash(self):
        self._crashed = True
