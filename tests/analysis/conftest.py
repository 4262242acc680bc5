"""Helpers for the analyzer tests: run rules over seeded fixture files.

The fixture modules under ``fixtures/`` are analyzed as *data* (never
imported).  ``lint_fixture`` defaults ``determinism_scope`` to the
match-everything empty prefix so fixtures fall inside the determinism
family's scope; protocol tests override ``core_prefixes`` the same way.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import LintConfig, run_analysis

FIXTURES = Path(__file__).parent / "fixtures"

DETERMINISM_RULES = ("det-wallclock", "det-global-random", "det-id-order",
                     "det-set-iter", "det-set-pop")


def lint_fixture(name, *, select=None, determinism_scope=("",),
                 core_prefixes=("repro/core/",), suppressions=(),
                 persist_scope=("",), race_scope=("",),
                 typestate_scope=("",)):
    config = LintConfig(
        determinism_scope=tuple(determinism_scope),
        core_prefixes=tuple(core_prefixes),
        persist_scope=tuple(persist_scope),
        race_scope=tuple(race_scope),
        typestate_scope=tuple(typestate_scope),
        suppressions=tuple(suppressions),
        select=None if select is None else tuple(select),
    )
    return run_analysis([FIXTURES / name], config)


def rules_fired(report):
    return {finding.rule for finding in report.findings}
