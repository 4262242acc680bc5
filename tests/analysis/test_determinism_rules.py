"""No package that decides a simulated result reads the host clock.

The simulator must be bit-reproducible: the same trace and seed give
the same cycles and crash images on any host.  A host-clock read stays
latent on a fast host: a 600 s host-time budget in the engine loop
(the ``engine-host-deadline`` mutant in ``tests/mutants/``) passes
every golden, fuzz plan and crashproc cell.  So this check
(``det-wallclock``) looks for the call itself.  It parses, never
imports, every module of the packages below and flags each call that
resolves through the module's imports to a ``time`` clock or sleep, or
to ``datetime``'s ``now``, ``utcnow`` or ``today``.  The harness,
perf, fuzz and CLI layers time host work and are out of scope.
"""

import ast
from pathlib import Path
from typing import Dict, List, Optional

import repro

SRC = Path(repro.__file__).parent

#: Every package whose code decides a simulated result: timing, cache
#: hits, stalls, protocol decisions, workload streams and statistics.
SIMULATED = ("sim", "core", "baselines", "mem", "cache", "cpu",
             "workloads", "stats")

TIME_FNS = frozenset({"time", "time_ns", "monotonic", "monotonic_ns",
                      "perf_counter", "perf_counter_ns", "process_time",
                      "sleep"})
DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: A module that reads the host clock; each read is marked.
DET_BAD = '''\
import time
from datetime import datetime


class Tracker:
    def stamp(self):
        return time.time()                  # host clock

    def when(self):
        return datetime.now()               # host clock
'''

#: Its deterministic counterpart: simulated time only.
DET_GOOD = '''\
class Tracker:
    def __init__(self, now: int):
        self.now = now

    def stamp(self):
        return self.now
'''


def imported_names(tree: ast.Module) -> Dict[str, str]:
    """Name bound in the module -> dotted origin ("time", "datetime.date")."""
    origins: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                origins[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                origins[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
    return origins


def dotted_target(call: ast.Call, origins: Dict[str, str]) -> Optional[str]:
    """A call's target as a dotted path from its import, if it has one."""
    func = call.func
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    parts.append(origins.get(func.id, func.id))
    return ".".join(reversed(parts))


def host_clock_calls(source: str) -> List[str]:
    tree = ast.parse(source)
    origins = imported_names(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = dotted_target(node, origins)
        if target is None:
            continue
        parts = target.split(".")
        if ((parts[0] == "time" and parts[-1] in TIME_FNS)
                or ("datetime" in parts[:-1] and parts[-1] in DATETIME_FNS)):
            calls.append(f"line {node.lineno}: {target}()")
    return calls


def host_clock_reads(root: Path) -> Dict[str, List[str]]:
    """Host-clock calls in the simulated packages under the package
    directory ``root``, keyed by module path."""
    found = {}
    for package in SIMULATED:
        for path in sorted((root / package).rglob("*.py")):
            calls = host_clock_calls(path.read_text(encoding="utf-8"))
            if calls:
                found[path.relative_to(root).as_posix()] = calls
    return found


def test_simulated_packages_read_no_host_clock():
    for package in SIMULATED:
        assert list((SRC / package).rglob("*.py")), \
            f"package {package!r} moved; update SIMULATED"
    assert host_clock_reads(SRC) == {}


def test_bad_fixture_trips_every_determinism_rule():
    marked = [number for number, line in enumerate(DET_BAD.splitlines(), 1)
              if line.endswith("# host clock")]
    assert [call.split(":")[0] for call in host_clock_calls(DET_BAD)] \
        == [f"line {number}" for number in marked]


def test_wallclock_flags_time_and_datetime():
    assert sorted(call.split(": ")[1] for call in host_clock_calls(DET_BAD)) \
        == ["datetime.datetime.now()", "time.time()"]
    seeded = (
        "import time\ntime.perf_counter()\n",
        "import time as host\nhost.sleep(1)\n",
        "def run():\n    from time import monotonic as clock\n"
        "    return clock()\n",
        "import datetime\ndatetime.datetime.now()\n",
        "from datetime import date\ndate.today()\n",
    )
    for source in seeded:
        assert len(host_clock_calls(source)) == 1, source


def test_good_fixture_is_clean():
    assert host_clock_calls(DET_GOOD) == []
    # The simulated clock and locals named like the module are not reads.
    assert host_clock_calls(
        "def step(self, time):\n    now = self.now\n"
        "    self.engine.schedule_at(time, self.now)\n") == []


def test_out_of_scope_module_is_ignored(tmp_path):
    for package in ("harness", "perf", "fuzz"):
        (tmp_path / package).mkdir()
        (tmp_path / package / "clock.py").write_text(DET_BAD)
    assert host_clock_reads(tmp_path) == {}
    (tmp_path / "mem").mkdir()
    (tmp_path / "mem" / "clock.py").write_text(DET_BAD)
    assert list(host_clock_reads(tmp_path)) == ["mem/clock.py"]
