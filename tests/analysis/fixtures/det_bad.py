"""Seeded-bad fixture: every determinism rule must fire on this module.

Not imported by any test — analyzed as data by tests/analysis.
"""

import time
from datetime import datetime

__all__ = ["Tracker", "missing_name"]


class Tracker:
    def stamp(self):
        return time.time()                  # det-wallclock

    def when(self):
        return datetime.now()               # det-wallclock
