"""Clean bulk-run typestate: the real code's shapes, no findings.

Analyzed as data, never imported.
"""


class GoodQueue:
    def service_head_block(self, request):
        if request.total == 1:
            return
        request.serviced += 1            # frontier advanced, never aliased
        queued = request.queued - 1      # queued is a gauge, not a cursor
        request.queued = queued

    def admit_next(self, queue, request, index):
        if not queue.grow_bulk(request):
            self.submit_single(request.block_addr(index))  # exact fallback

    def first_admission(self, queue, request):
        admitted = queue.try_enqueue_bulk(request)
        return admitted

    def drop_all(self, request):
        request.queued = 0               # crash teardown context is exempt
        request.issued = 0


class GoodIssuer:
    def store_payload(self, request, data):
        request.block_data[request.issued] = data  # slot i = block i

    def stamp_admission(self, request, now):
        request.admit_times.append(now)  # grows exactly with admission

    def bulk(self, total):
        self.block_data = [None] * total  # construction context is exempt
        self.admit_times = []
        self.fences = []


class GoodController:
    def __init__(self, memctrl):
        self.memctrl = memctrl
        self._crashed = False

    def write_block(self, addr, origin, data):
        if self._crashed:
            raise CrashedError("write after crash")
        self._issue_write(DeviceKind.NVM, addr, origin, data, None)

    def crash(self):
        self._crashed = True
