"""Same-cycle event-race rules (family: ``race``).

The engine breaks same-cycle ties by heap insertion order
(:class:`~repro.sim.engine.Engine` keeps a sequence counter).  That
makes runs deterministic — but it also means two handlers scheduled for
the same cycle that write the same attribute have an *ordering* chosen
by incidental insertion order, not by the protocol.  Reordering the
scheduling code (or fanning work out, as the PR-3 parallel harness
does) silently changes results.  This family flags those handler pairs
unless the program explicitly sequences them.

Footprints are class-qualified attribute names written transitively
through synchronous calls (``EffectGraph.footprint``); deferred
callbacks run at a later cycle and are deliberately excluded.  Handler
expressions the resolver cannot name (e.g. a callback parameter) are
skipped — the rule reports only what it can prove both sides of.
"""

from __future__ import annotations

import ast
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, Iterator, Tuple, cast

from ..context import ModuleContext
from ..effects import EffectGraph, ScheduleSite
from ..findings import Finding, Severity
from ..registry import Rule, register

if TYPE_CHECKING:
    from ..project import ProjectIndex
    from ..runner import LintConfig

_SiteKey = Tuple[str, int, int]


def _site_key(site: ScheduleSite) -> _SiteKey:
    return (site.module, site.line, site.col)


@register
class SameCycleRaceRule(Rule):
    """Two schedule sites whose handlers can collide on one attribute."""

    id = "race-same-cycle"
    family = "race"
    severity = Severity.ERROR
    description = ("handlers scheduled at different sites may fire in "
                   "the same cycle and write the same attribute; the "
                   "outcome depends on heap insertion order")
    rationale = (
        "Engine.schedule breaks same-cycle ties by insertion sequence. "
        "Two independent handlers that both write one attribute are "
        "therefore ordered by an accident of code layout; any refactor "
        "that reorders the schedule calls changes simulation results "
        "and breaks the byte-identical --jobs N guarantee.  Sequence "
        "one handler behind the other (schedule or call it from the "
        "first), or suppress with a justification if the writes are "
        "genuinely commutative.")
    example_bad = (
        "self.engine.schedule(delay, self._tick)   # writes self.count\n"
        "self.engine.schedule(delay, self._tock)   # writes self.count")
    example_good = (
        "self.engine.schedule(delay, self._tick)\n"
        "# _tick schedules _tock itself: explicit sequencing\n"
        "def _tick(self):\n"
        "    self.count += 1\n"
        "    self.engine.schedule(0, self._tock)")

    def check(self, module: ModuleContext, project: ProjectIndex,
              config: LintConfig) -> Iterator[Finding]:
        if not module.in_any(config.race_scope):
            return
        graph = project.effects or EffectGraph.build(project.modules)
        # One representative (earliest) site per resolved handler, so a
        # handler scheduled from many sites yields one pair, not many.
        representative: Dict[str, ScheduleSite] = {}
        for site in graph.schedule_sites():
            for handler in site.handlers:
                known = representative.get(handler)
                if known is None or _site_key(site) < _site_key(known):
                    representative[handler] = site
        handlers = sorted(representative)
        for index, first in enumerate(handlers):
            for second in handlers[index + 1:]:
                site_a = representative[first]
                site_b = representative[second]
                if _site_key(site_a) == _site_key(site_b):
                    continue      # alternative resolutions of one site
                shared = graph.footprint(first) & graph.footprint(second)
                if not shared:
                    continue
                if graph.reaches(first, second) or graph.reaches(
                        second, first):
                    continue      # explicitly sequenced
                later = max(site_a, site_b, key=_site_key)
                earlier = min(site_a, site_b, key=_site_key)
                if later.module != module.relpath:
                    continue      # reported in the later site's module
                attrs = ", ".join(f"{cls}.{attr}"
                                  for cls, attr in sorted(shared))
                name_a = graph.functions[first].name
                name_b = graph.functions[second].name
                anchor = cast(ast.AST, SimpleNamespace(
                    lineno=later.line, col_offset=later.col))
                yield self.finding(
                    module, anchor,
                    f"handlers {name_a} and {name_b} (also scheduled at "
                    f"{earlier.module}:{earlier.line}) may fire in the "
                    f"same cycle and both write {attrs}; result depends "
                    f"on heap insertion order — sequence them explicitly")
