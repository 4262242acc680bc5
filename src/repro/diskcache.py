"""Shared on-disk JSON cache primitives.

Both result caches in this tree — the parallel sweep harness's
simulation-result cache (``repro.harness.parallel``) and the fuzz
campaign's per-plan verdict cache (``repro.fuzz.campaign``) — follow
the same discipline:

* entries are single JSON files named by a sha256 content key,
* a ``format`` field guards against schema drift (mismatch = miss),
* writes go through a temp file and ``os.replace`` so a concurrent
  reader (or a crashed writer) never observes a torn entry.

This module holds that shared mechanism; the *keying* policy (what goes
into the digest) stays with each cache, because that is where the
correctness argument lives.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional


def digest(*parts: str) -> str:
    """sha256 hex digest over ``parts`` joined with NUL separators.

    The separator makes the digest injective over the part list:
    ``digest("ab", "c") != digest("a", "bc")``.
    """
    material = hashlib.sha256()
    for part in parts:
        material.update(part.encode("utf-8"))
        material.update(b"\0")
    return material.hexdigest()


def entry_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.json"


def load_entry(cache_dir: Path, key: str,
               fmt: int) -> Optional[Dict[str, object]]:
    """Load one entry; None on miss, corruption, or format mismatch."""
    path = entry_path(cache_dir, key)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
    except (OSError, ValueError):
        return None                      # missing or corrupt: treat as miss
    if not isinstance(entry, dict) or entry.get("format") != fmt:
        return None
    return entry


def store_entry(cache_dir: Path, key: str, entry: Dict[str, object]) -> None:
    """Atomically publish one entry (safe under concurrent writers)."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = entry_path(cache_dir, key)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, sort_keys=True)
    os.replace(tmp, path)                # atomic publish, even cross-process
