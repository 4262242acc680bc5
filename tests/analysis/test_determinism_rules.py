"""The determinism family flags the seeded-bad fixture, passes the
clean one, and honours scoping and suppression."""

from .conftest import DETERMINISM_RULES, lint_fixture, rules_fired


def test_bad_fixture_trips_every_determinism_rule():
    report = lint_fixture("det_bad.py")
    assert set(DETERMINISM_RULES) <= rules_fired(report)


def test_wallclock_flags_time_and_datetime():
    report = lint_fixture("det_bad.py", select=["det-wallclock"])
    assert len(report.findings) == 2
    assert {"time.time" in f.message or "datetime" in f.message
            for f in report.findings} == {True}


def test_good_fixture_is_clean():
    report = lint_fixture("det_good.py", select=DETERMINISM_RULES)
    assert report.findings == []


def test_out_of_scope_module_is_ignored():
    report = lint_fixture("det_bad.py", select=DETERMINISM_RULES,
                          determinism_scope=("repro/sim/",))
    assert report.findings == []


def test_inline_suppression_comments():
    report = lint_fixture("det_suppressed.py", select=DETERMINISM_RULES)
    assert report.findings == []


def test_path_suppression():
    report = lint_fixture("det_bad.py", select=DETERMINISM_RULES,
                          suppressions=(("det_bad.py", ("*",)),))
    assert report.findings == []


def test_path_suppression_is_rule_specific():
    # det_bad.py also carries an `__all__` naming a missing name.
    report = lint_fixture("det_bad.py",
                          select=DETERMINISM_RULES + ("api-all-exports",),
                          suppressions=(("det_bad.py", ("det-wallclock",)),))
    fired = rules_fired(report)
    assert "det-wallclock" not in fired
    assert "api-all-exports" in fired
