"""Data before metadata (paper §4.4), checked on the running system.

Every NVM write outstanding when the pre-commit fence is issued is
serviced before the commit record goes out.
"""

from __future__ import annotations

from repro.core.checkpoint import CheckpointRun

from ..conftest import end_epoch, make_direct, settle, write_block


def test_nvm_queue_is_drained_at_every_commit_record(monkeypatch):
    """The drive leaves writes queued at the fence: stores issued while
    the previous checkpoint is in flight are still in the NVM write
    queue when its last stage completes.  At the fence the test records
    every outstanding NVM write, a single request or a bulk run with
    the blocks it has admitted so far; the commit record may go out
    only once each of them has completed.  Writes submitted after the
    fence may still be queued at the commit."""
    fences = []
    commits = []
    drain_and_commit = CheckpointRun._drain_and_commit
    write_commit = CheckpointRun._write_commit

    def fenced(self):
        state = self.memctrl._nvm
        outstanding = list(state.write_queue.items()) + [
            request for _event, request in state.active.values()
            if request.is_write]
        singles = [request for request in outstanding if request.total == 1]
        runs = {id(request): (request, request.serviced + request.queued)
                for request in outstanding if request.total > 1}
        fences.append((singles, list(runs.values())))
        return drain_and_commit(self)

    def committing(self):
        singles, runs = fences[-1]
        unserviced = [request.req_id for request in singles
                      if request.complete_time is None]
        unserviced += [f"run {request.req_id}: {admitted - request.completed}"
                       f" block(s)" for request, admitted in runs
                       if request.completed < admitted]
        assert not unserviced, (
            f"commit record issued before fenced NVM writes completed: "
            f"{unserviced}")
        commits.append(len(singles) + len(runs))
        return write_commit(self)

    monkeypatch.setattr(CheckpointRun, "_drain_and_commit", fenced)
    monkeypatch.setattr(CheckpointRun, "_write_commit", committing)

    system = make_direct()
    for block in range(64):
        write_block(system, block, bytes([block]))
    end_epoch(system, wait_commit=False)
    for block in range(64):
        write_block(system, 1000 + 7 * block, bytes([block]))
    end_epoch(system)
    end_epoch(system)
    settle(system.engine)
    assert len(commits) >= 3
    # The drive tests the fence only if it left writes outstanding.
    assert max(commits) > 0
