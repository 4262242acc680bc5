"""The persist family: in-place mutation of the committed snapshot
fires on the bad fixture, stays quiet on the clean one, and honours
inline suppressions."""

from .conftest import lint_fixture, rules_fired

PERSIST_RULES = ("persist-committed-mutation",)


def test_bad_fixture_trips_every_persist_rule():
    report = lint_fixture("persist_bad.py", select=PERSIST_RULES)
    assert set(PERSIST_RULES) == rules_fired(report)


def test_committed_mutation_sites():
    report = lint_fixture("persist_bad.py",
                          select=["persist-committed-mutation"])
    assert len(report.findings) == 2


def test_good_fixture_is_clean():
    report = lint_fixture("persist_good.py", select=PERSIST_RULES)
    assert report.findings == []


def test_out_of_scope_module_is_ignored():
    report = lint_fixture("persist_bad.py", select=PERSIST_RULES,
                          persist_scope=("repro/core/",))
    assert report.findings == []


def test_inline_suppression_comments():
    report = lint_fixture("persist_suppressed.py", select=PERSIST_RULES)
    assert report.findings == []


def test_findings_are_errors():
    report = lint_fixture("persist_bad.py", select=PERSIST_RULES)
    assert {f.severity.value for f in report.findings} == {"error"}
