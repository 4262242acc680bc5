"""Build the mutant x detector catch matrix (docs/ANALYSIS.md).

    PYTHONPATH=src python tests/mutants/run.py            # every mutant
    PYTHONPATH=src python tests/mutants/run.py NAME ...   # a subset

For the clean tree and then for each mutant of ``catalogue.MUTANTS``,
copy the repository (without ``.git`` and caches) into a fresh
temporary directory, apply the patch, and run each detector the way CI
runs it, with ``PYTHONHASHSEED=0`` and a timeout.  A fresh copy per
mutant matters: a failing fuzz run archives reproducers into
``fuzz-corpus/``, which the next run would replay as regressions.

Detectors:

* ``tier-1`` — ``pytest -x`` without ``tests/mutants/`` (the anchor
  test fails on every mutant by construction);
* ``fuzz`` — ``repro fuzz --quick --jobs 0`` (CI's fuzz-smoke);
* ``crashproc`` — ``repro crashproc --sweep --quick``;
* ``hashseed`` — the golden step under ``PYTHONHASHSEED=1`` (no CI job
  runs this), only for mutants tier-1 passes;
* ``bench`` — ``repro bench --jobs 2``, only for defects no other
  detector catches; it catches when its failed-claim set differs from
  the clean tree's.

The Markdown matrix goes to stdout.  A run over the whole catalogue
also rewrites the table between the ``catch-matrix`` markers of
docs/ANALYSIS.md.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from tests.mutants.catalogue import MUTANTS, Mutant, apply  # noqa: E402

GOLDEN_STEP = (
    "tests/integration/test_golden_determinism.py",
    "tests/integration/test_golden_store_modes.py",
    "tests/property/test_pop_ready_reference.py",
    "tests/property/test_core_access_reference.py",
    "tests/property/test_no_reference_cycles.py",
    "tests/property/test_declared_plan.py",
    "tests/property/test_engine_props.py",
)
RUNTIME = ("tier-1", "fuzz", "crashproc")
COLUMNS = RUNTIME + ("hashseed", "bench")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", "*.pyc",
                                 ".pytest_cache", ".hypothesis",
                                 "*.egg-info", ".perfbench")


class Cell:
    """One detector's verdict on one tree."""

    def __init__(self, caught: bool, seconds: float, detail: str = "",
                 status: Optional[int] = None) -> None:
        self.caught = caught
        self.seconds = seconds
        self.detail = detail
        self.status = status

    def render(self) -> str:
        if self.status is None and not self.caught:
            return "—"
        verdict = "**caught**" if self.caught else "pass"
        detail = f": {self.detail}" if self.detail else ""
        return f"{verdict}{detail} ({self.seconds:.0f} s)"


def _run(tree: Path, argv: Sequence[str], timeout: float,
         hashseed: str = "0") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=hashseed)
    try:
        return subprocess.run(list(argv), cwd=tree, env=env,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as expired:
        return subprocess.CompletedProcess(
            argv, -9, expired.stdout or "", expired.stderr or "")


def _timed(tree: Path, argv: Sequence[str], timeout: float,
           hashseed: str = "0"):
    started = time.perf_counter()
    proc = _run(tree, argv, timeout, hashseed)
    return proc, time.perf_counter() - started


def _first_failure(output: str) -> str:
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.M)
    if match:
        path, _, test = match.group(1).partition("::")
        return "::".join(filter(None, (Path(path).name, test)))
    return "timeout" if not output else ""


def tier1(tree: Path) -> Cell:
    # The anchor test fails on every mutant by construction.
    proc, seconds = _timed(tree, [sys.executable, "-m", "pytest", "-x",
                                  "-q", "-p", "no:cacheprovider", "tests",
                                  "--ignore=tests/mutants"], timeout=420)
    failed = proc.returncode != 0
    detail = _first_failure(proc.stdout) if failed else ""
    if proc.returncode == -9:
        detail = "timeout"
    return Cell(failed, seconds, detail, proc.returncode)


def hashseed(tree: Path) -> Cell:
    proc, seconds = _timed(tree, [sys.executable, "-m", "pytest", "-x",
                                  "-q", "-p", "no:cacheprovider",
                                  *GOLDEN_STEP], timeout=420, hashseed="1")
    failed = proc.returncode != 0
    return Cell(failed, seconds,
                _first_failure(proc.stdout) if failed else "",
                proc.returncode)


def fuzz(tree: Path) -> Cell:
    proc, seconds = _timed(tree, [sys.executable, "-m", "repro.cli", "fuzz",
                                  "--quick", "--jobs", "0"], timeout=600)
    detail = ""
    try:
        report = json.loads(proc.stdout)
        fails = report["plans"] - report["outcomes"].get("pass", 0)
        regressions = len(report["corpus"]["regressions"])
        if fails or regressions:
            detail = f"{fails}/{report['plans']} plans"
            if regressions:
                detail += f", {regressions} corpus"
    except (ValueError, KeyError, TypeError):
        detail = f"exit {proc.returncode}"
    return Cell(proc.returncode != 0, seconds, detail, proc.returncode)


def crashproc(tree: Path) -> Cell:
    proc, seconds = _timed(tree, [sys.executable, "-m", "repro.cli",
                                  "crashproc", "--sweep", "--quick"],
                           timeout=300)
    failed = proc.returncode != 0
    return Cell(failed, seconds, f"exit {proc.returncode}" if failed else "",
                proc.returncode)


def failed_claims(tree: Path):
    proc, seconds = _timed(tree, [sys.executable, "-m", "repro.cli", "bench",
                                  "--jobs", "2"], timeout=1200)
    claims = re.findall(r"^\s+FAIL\s+(\S+):", proc.stdout, re.M)
    return proc.returncode, sorted(claims), seconds


def fresh_tree(workdir: Path, mutant: Optional[Mutant]) -> Path:
    tree = workdir / (mutant.name if mutant else "clean")
    shutil.copytree(ROOT, tree, ignore=IGNORED)
    if mutant is not None:
        apply(mutant, tree / "src")
    return tree


def detect(tree: Path) -> Dict[str, Cell]:
    return {"tier-1": tier1(tree), "fuzz": fuzz(tree),
            "crashproc": crashproc(tree)}


def matrix(mutants: Sequence[Mutant], workdir: Path) -> str:
    tree = fresh_tree(workdir, None)
    clean = detect(tree)
    shutil.rmtree(tree)
    clean_bench = None
    rows: List[Dict[str, Cell]] = []
    for mutant in mutants:
        tree = fresh_tree(workdir, mutant)
        cells = detect(tree)
        if not cells["tier-1"].caught:
            cells["hashseed"] = hashseed(tree)
        if not any(cell.caught for cell in cells.values()):
            if clean_bench is None:
                clean_tree = fresh_tree(workdir, None)
                clean_bench = failed_claims(clean_tree)
                shutil.rmtree(clean_tree)
            status, claims, seconds = failed_claims(tree)
            moved = sorted(set(claims) ^ set(clean_bench[1]))
            cells["bench"] = Cell(bool(moved), seconds,
                                  ", ".join(moved), status)
        rows.append(cells)
        shutil.rmtree(tree)
        print(f"[matrix] {mutant.name}: " + ", ".join(
            f"{column} {cell.render()}" for column, cell in cells.items()),
            file=sys.stderr)
    return render(mutants, rows, clean)


def render(mutants: Sequence[Mutant], rows: Sequence[Dict[str, Cell]],
           clean: Dict[str, Cell]) -> str:
    columns = [column for column in COLUMNS
               if column in clean or any(column in row for row in rows)]
    lines = ["| detector | " + " | ".join(columns) + " |",
             "|---|" + "---|" * len(columns),
             "| clean tree | " + " | ".join(
                 clean[column].render() if column in clean else "—"
                 for column in columns) + " |",
             "",
             "| mutant | " + " | ".join(columns) + " |",
             "|---|" + "---|" * len(columns)]
    for mutant, cells in zip(mutants, rows):
        lines.append(f"| `{mutant.name}` | " + " | ".join(
            cells[column].render() if column in cells else "—"
            for column in columns) + " |")
    uncaught = [mutant.name for mutant, cells in zip(mutants, rows)
                if not any(cells[column].caught for column in RUNTIME)]
    lines += ["", "Defects no CI detector catches: "
              + (", ".join(f"`{name}`" for name in uncaught) or "none")
              + "."]
    return "\n".join(lines)


BEGIN = "<!-- catch-matrix: generated by tests/mutants/run.py -->"
END = "<!-- catch-matrix: end -->"


def write_docs(table: str) -> None:
    docs = ROOT / "docs" / "ANALYSIS.md"
    text = docs.read_text()
    start, stop = text.index(BEGIN) + len(BEGIN), text.index(END)
    docs.write_text(text[:start] + "\n" + table + "\n" + text[stop:])


def main(argv: Sequence[str]) -> int:
    names = set(argv)
    unknown = names - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    mutants = [mutant for mutant in MUTANTS
               if not names or mutant.name in names]
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        table = matrix(mutants, Path(workdir))
    print(table)
    if not names:
        write_docs(table)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
