"""The ``fuzz-corpus/`` archive of minimized crash-consistency failures.

Every failure the campaign finds is shrunk to a minimal reproducer and
persisted here as one JSON file named by a digest of its plan string.
Future campaigns (and CI's fuzz-smoke job) replay the corpus *first*,
regression-suite style: a corpus entry failing again means a previously
fixed crash-consistency bug is back, which is a hard failure — unlike a
brand-new finding, which is merely a warning until triaged.

Entry layout (all JSON-stable)::

    {
      "format": 1,
      "plan": "thynvm/sparse:s1:e2:b12@commit#1+0",
      "minimized_from": "thynvm/sparse:s1:e4:b24@commit#2+3000",
      "detail": "block 2 mismatch after recovery to epoch 0",
      "code_version": "<digest when archived>",
      "replay": "PYTHONPATH=src python -m repro.cli fuzz replay '<plan>'"
    }
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import WorkloadError
from .plan import CrashPlan, parse_plan
from .runner import FuzzResult

DEFAULT_CORPUS_DIR = "fuzz-corpus"
_FORMAT = 1


def code_version() -> str:
    """Digest of every ``repro`` source file; changes on any code edit.

    Provenance for campaign reports and archived entries.  Hashing the
    package sources rather than a VCS revision covers uncommitted edits
    and works without git metadata.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def entry_name(plan: CrashPlan) -> str:
    material = f"fuzz-corpus={_FORMAT}\0{plan}\0"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def entry_path(corpus_dir: Path, plan: CrashPlan) -> Path:
    return Path(corpus_dir) / f"{entry_name(plan)}.json"


def archive(corpus_dir: Path, plan: CrashPlan, result: FuzzResult,
            code_version: str,
            minimized_from: Optional[CrashPlan] = None) -> Path:
    """Persist one minimized reproducer; returns its path."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = entry_path(corpus_dir, plan)
    entry = {
        "format": _FORMAT,
        "plan": str(plan),
        "minimized_from": str(minimized_from) if minimized_from else None,
        "detail": result.detail,
        "code_version": code_version,
        "replay": ("PYTHONPATH=src python -m repro.cli fuzz replay "
                   f"'{plan}'"),
    }
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_corpus(corpus_dir: Path) -> List[Dict[str, object]]:
    """All archived entries, sorted by filename (deterministic order).

    Unreadable or malformed entries raise — a corrupted regression
    corpus should stop a campaign, not silently shrink it.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    entries: List[Dict[str, object]] = []
    for path in sorted(corpus_dir.glob("*.json")):
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise WorkloadError(f"corrupt corpus entry {path}: {error}")
        if not isinstance(entry, dict) or "plan" not in entry:
            raise WorkloadError(f"malformed corpus entry {path}")
        parse_plan(str(entry["plan"]))     # validate early
        entry["path"] = str(path)
        entries.append(entry)
    return entries
