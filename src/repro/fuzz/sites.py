"""The crash-site taxonomy, anchored in the static effect classifier.

Crash sites are not invented ad hoc: :mod:`repro.analysis.effects`
classifies every persist, fence and commit point in the protocol
sources, and the runtime probes in :mod:`repro.core.probes` instrument
exactly that surface.  This module ties the two together:

* :func:`effect_surface` — scan the protocol packages and list, per
  effect, the functions that produce it (the static crash surface).
* :func:`taxonomy` — the probe-kind catalogue with, for each kind, the
  effect(s) it covers and the static sites backing it.
* :func:`coverage_gaps` — effects present in the static surface that no
  probe kind covers; a regression test keeps this empty so new persist
  or commit points cannot silently escape the fuzzer.

The *dynamic* half of enumeration — how many times each site actually
fires for a given system×workload — is :func:`repro.fuzz.runner.census`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Set, Tuple

from ..analysis.context import ModuleContext, load_module
from ..analysis.effects import Effect, EffectGraph

#: Packages whose persist/fence/commit surface the probes instrument.
PROTOCOL_PACKAGES = ("core", "baselines")

#: Which probe kinds cover which statically-classified effect.
KIND_EFFECTS: Dict[str, Tuple[Effect, ...]] = {
    "bulk-write": (Effect.BULK_WRITE,),
    "table-persist": (Effect.TABLE_PERSIST,),
    "fence": (Effect.FENCE,),
    "commit-write": (Effect.COMMIT,),
    "commit": (Effect.COMMIT,),
    "store-sync": (Effect.FENCE,),
    "aux-commit": (Effect.COMMIT,),
    # Lifecycle kinds: not one effect but a protocol phase edge.
    "ckpt-start": (),
    "stage-done": (),
    "promote": (),
    "demote": (),
}

KIND_DESCRIPTIONS: Dict[str, str] = {
    "ckpt-start": "a checkpoint run begins issuing its staged jobs",
    "stage-done": "one checkpoint stage is fully serviced (detail: index)",
    "bulk-write": "one block of a checkpoint bulk run becomes durable "
                  "(detail: stage index)",
    "table-persist": "a translation-table/log persist stage is planned "
                     "(detail: btt/ptt/log/pagemap)",
    "fence": "the pre-commit NVM write-queue fence is issued",
    "commit-write": "the commit record is submitted to NVM",
    "commit": "the commit record is serviced and metadata flips",
    "store-sync": "the backing stores are flushed to their medium "
                  "(mmap msync at the commit point)",
    "aux-commit": "an auxiliary (sub-epoch) checkpoint commits",
    "promote": "a page is adopted into the DRAM buffer (detail: page)",
    "demote": "a page demotion starts (detail: page)",
}

_SURFACE_EFFECTS = (Effect.BULK_WRITE, Effect.TABLE_PERSIST, Effect.FENCE,
                    Effect.COMMIT)


def _protocol_modules() -> List[ModuleContext]:
    package_root = Path(__file__).resolve().parent.parent
    modules: List[ModuleContext] = []
    for package in PROTOCOL_PACKAGES:
        for path in sorted((package_root / package).glob("*.py")):
            modules.append(load_module(path))
    return modules


def effect_surface() -> Dict[str, List[str]]:
    """The static crash surface: effect name -> sorted site list.

    Each site is ``"<module>::<function>:<line>"`` — one statically
    classified persist/fence/commit event in the protocol sources.
    """
    graph = EffectGraph.build(_protocol_modules())
    surface: Dict[str, List[str]] = {
        effect.value: [] for effect in _SURFACE_EFFECTS}
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        for event in info.events:
            if event.effect in _SURFACE_EFFECTS:
                surface[event.effect.value].append(
                    f"{qualname}:{event.line}")
    return surface


def taxonomy() -> Dict[str, Dict[str, object]]:
    """The full catalogue: per probe kind, description + static anchors."""
    surface = effect_surface()
    catalogue: Dict[str, Dict[str, object]] = {}
    for kind, effects in KIND_EFFECTS.items():
        anchors: List[str] = []
        for effect in effects:
            anchors.extend(surface.get(effect.value, []))
        catalogue[kind] = {
            "description": KIND_DESCRIPTIONS[kind],
            "effects": [effect.value for effect in effects],
            "static_sites": sorted(set(anchors)),
        }
    return catalogue


def coverage_gaps() -> Dict[str, List[str]]:
    """Persist/fence/commit sites no probe kind covers, keyed by effect.

    Non-empty means someone added a persist path the fuzzer cannot
    crash at.
    """
    covered: Set[str] = set()
    for effects in KIND_EFFECTS.values():
        covered.update(effect.value for effect in effects)
    return {effect: sites for effect, sites in effect_surface().items()
            if sites and effect not in covered}
