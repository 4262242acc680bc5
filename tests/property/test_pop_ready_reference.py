"""Property tests pinning the bank-indexed ``pop_ready`` to its reference.

``BoundedQueue.pop_ready`` walks per-bank, age-ordered entry lists with
a per-address index and a packed integer key (docs/PERFORMANCE.md).
The straight-line reference below states the FR-FCFS semantics
directly over one FIFO of blocks — same-address FIFO by a quadratic
older-scan, ordering by a lexicographic tuple.  The two must pick
identical blocks in identical order for every enqueue/pop
interleaving, or an optimization has changed simulated behaviour.
"""

from collections import namedtuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.queueing import BoundedQueue
from repro.sim.request import MemoryRequest, Origin

NUM_BANKS = 4
NUM_ADDRS = 12          # small space so same-address chains are common


def make_request(addr_idx: int, demand: bool) -> MemoryRequest:
    request = MemoryRequest(
        addr_idx * 64, True, Origin.CPU if demand else Origin.MIGRATION)
    # The controller caches the device decode at submit; mirror that.
    request.bank = addr_idx % NUM_BANKS
    request.row = addr_idx // NUM_BANKS
    return request


def reference_pop_ready(items, busy_banks, open_rows, demand_priority):
    """The pre-optimization semantics, written for clarity not speed."""
    best = None
    best_key = None
    for index, request in enumerate(items):
        if request.bank in busy_banks:
            continue
        if any(older.addr == request.addr for older in items[:index]):
            continue
        key = (
            0 if (not demand_priority or request.demand) else 1,
            0 if open_rows[request.bank] == request.row else 1,
            index,
        )
        if best_key is None or key < best_key:
            best, best_key = request, key
    return best


enqueue_op = st.tuples(
    st.just("enqueue"),
    st.integers(0, NUM_ADDRS - 1),
    st.booleans(),
)
pop_op = st.tuples(
    st.just("pop"),
    st.sets(st.integers(0, NUM_BANKS - 1)),
    st.lists(st.one_of(st.none(), st.integers(0, NUM_ADDRS // NUM_BANKS)),
             min_size=NUM_BANKS, max_size=NUM_BANKS),
    st.booleans(),
)


@given(st.lists(st.one_of(enqueue_op, pop_op), max_size=80))
@settings(max_examples=200, deadline=None)
def test_pop_ready_matches_reference(ops):
    queue = BoundedQueue("q", 16)
    mirror = []
    for op in ops:
        if op[0] == "enqueue":
            _, addr_idx, demand = op
            request = make_request(addr_idx, demand)
            if queue.try_enqueue(request):
                mirror.append(request)
        else:
            _, busy_banks, open_rows, demand_priority = op
            expected = reference_pop_ready(
                mirror, busy_banks, open_rows, demand_priority)
            got = queue.pop_ready(
                busy_banks, open_rows, demand_priority=demand_priority)
            assert got is expected
            if got is not None:
                mirror.remove(got)
        assert len(queue) == len(mirror)


# --- bulk runs ---------------------------------------------------------------
#
# Block addresses decode as ((row * NUM_BANKS + bank) * ROW_BLOCKS + col)
# blocks, so a run of consecutive blocks stays inside one (bank, row),
# as the controller requires of every run.

NUM_ROWS = 2
ROW_BLOCKS = 4
BLOCK = 64
# (first column, block count) of every run that fits in one row.
RUN_SPANS = [(col, total) for col in range(ROW_BLOCKS)
             for total in range(2, ROW_BLOCKS - col + 1)]

# One queued block as the reference sees it; ``entry`` is the queue
# entry (a single request or a run) that holds it.
Block = namedtuple("Block", "entry addr bank row demand")


def block_addr(bank, row, col):
    return ((row * NUM_BANKS + bank) * ROW_BLOCKS + col) * BLOCK


def block_of(entry, addr):
    return Block(entry, addr, entry.bank, entry.row, entry.demand)


single_args = st.tuples(
    st.integers(0, NUM_BANKS - 1),
    st.integers(0, NUM_ROWS - 1),
    st.integers(0, ROW_BLOCKS - 1),
    st.booleans(),
)
run_args = st.tuples(
    st.integers(0, NUM_BANKS - 1),
    st.integers(0, NUM_ROWS - 1),
    st.sampled_from(RUN_SPANS),
)
pop_args = st.tuples(
    st.sets(st.integers(0, NUM_BANKS - 1)),
    st.lists(st.one_of(st.none(), st.integers(0, NUM_ROWS - 1)),
             min_size=NUM_BANKS, max_size=NUM_BANKS),
    st.booleans(),
)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_pop_ready_matches_reference_with_bulk_runs(data):
    """Runs enter through ``try_enqueue_bulk``, extend through
    ``grow_bulk`` or, when it refuses, through a fallback single (as
    ``MemoryController._admit_fallback`` does), and drain and re-enter.
    The reference holds every admitted block as its own FIFO element.
    Each step draws only among the moves the controller could make in
    that state, so runs are partly admitted, refused, regrown and
    re-entered in most examples.

    Runs are background traffic, as every run the controllers issue
    (checkpoint, journal and migration copies) is.  Only a *demand* run
    whose head block waits behind an older background block at the
    same address could let one of its younger blocks win in the
    per-block view while the run waits; no such run exists.
    """
    queue = BoundedQueue("q", 6)
    mirror = []                  # Blocks, oldest first
    runs = []                    # runs with blocks still to admit
    for _ in range(40):
        moves = ["pop"]
        if not queue.full:       # admission only ever fills a free slot
            moves += ["single", "run"] + ["grow", "grow"] * bool(runs)
        move = data.draw(st.sampled_from(moves))
        if move == "single":
            bank, row, col, demand = data.draw(single_args)
            request = MemoryRequest(block_addr(bank, row, col), True,
                                    Origin.CPU if demand
                                    else Origin.MIGRATION)
            request.bank, request.row = bank, row
            assert queue.try_enqueue(request)
            mirror.append(block_of(request, request.addr))
        elif move == "run":
            bank, row, (col, total) = data.draw(run_args)
            run = MemoryRequest.bulk(block_addr(bank, row, col), True,
                                     Origin.CHECKPOINT, total, BLOCK)
            run.bank, run.row = bank, row
            admitted = queue.try_enqueue_bulk(run)
            for index in range(admitted):
                mirror.append(block_of(run, run.block_addr(index)))
            if run.issued < run.total:
                runs.append(run)
        elif move == "grow":
            run = data.draw(st.sampled_from(runs))
            addr = run.block_addr(run.issued)
            # The run may grow exactly when it is not queued or its
            # youngest block is the youngest block queued.
            tail = not run.in_queue or mirror[-1].entry is run
            assert queue.grow_bulk(run) is tail
            if tail:
                mirror.append(block_of(run, addr))
            else:
                single = MemoryRequest(addr, True, run.origin)
                single.bank, single.row = run.bank, run.row
                run.issued += 1
                assert queue.try_enqueue(single)
                mirror.append(block_of(single, addr))
            if run.issued == run.total:
                runs.remove(run)
        else:
            busy_banks, open_rows, demand_priority = data.draw(pop_args)
            expected = reference_pop_ready(
                mirror, busy_banks, open_rows, demand_priority)
            got = queue.pop_ready(
                busy_banks, open_rows, demand_priority=demand_priority)
            if expected is None:
                assert got is None
            else:
                assert got is expected.entry
                if got.total > 1:
                    assert got.service_addr == expected.addr
                mirror.remove(expected)
        assert len(queue) == len(mirror)
