"""The crash-site catalogue must track the probe sites in the source."""

import pathlib
import re

import repro
from repro.core.probes import SITE_KINDS

NOTIFY = re.compile(r"\bprobes\.notify\(")
NOTIFY_KIND = re.compile(r"\bprobes\.notify\(\s*\"([a-z-]+)\"")


def probe_site_kinds():
    """The literal kind of every ``probes.notify`` call under src/repro."""
    kinds = set()
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        text = path.read_text()
        found = NOTIFY_KIND.findall(text)
        assert len(found) == len(NOTIFY.findall(text)), (
            f"{path.name}: a probes.notify call has no literal kind")
        kinds.update(found)
    return kinds


def test_every_probe_kind_is_catalogued():
    """Every kind a probe site fires is in SITE_KINDS, and every
    catalogued kind has a probe site.  Unlike the runtime reach test,
    this covers sites no fuzz schedule reaches (``aux-commit``)."""
    kinds = probe_site_kinds()
    assert kinds - SITE_KINDS.keys() == set(), "uncatalogued probe kinds"
    assert SITE_KINDS.keys() - kinds == set(), "catalogued kinds never fired"
    assert all(SITE_KINDS.values()), "a kind has no description"
