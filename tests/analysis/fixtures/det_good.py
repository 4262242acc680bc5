"""Clean fixture: deterministic counterparts of det_bad.py."""


class Tracker:
    def __init__(self, now: int):
        self.now = now                      # simulated time: fine

    def stamp(self):
        return self.now
