"""The typestate family: bulk-cursor monotonicity/ordering, parallel
arrays, the tail-merge contract and crashed-controller gating fire on
the bad fixture and stay quiet on the clean one."""

from .conftest import lint_fixture, rules_fired

TYPESTATE_RULES = (
    "typestate-cursor-monotonic",
    "typestate-cursor-order",
    "typestate-parallel-arrays",
    "typestate-grow-tail-only",
    "typestate-crashed-use",
)


def test_bad_fixture_trips_every_typestate_rule():
    report = lint_fixture("typestate_bad.py", select=TYPESTATE_RULES)
    assert set(TYPESTATE_RULES) == rules_fired(report)


def test_cursor_monotonic_decrement_and_reset():
    report = lint_fixture("typestate_bad.py",
                          select=["typestate-cursor-monotonic"])
    messages = [f.message for f in report.findings]
    assert len(messages) == 2
    assert any("decremented" in m for m in messages)
    assert any("reset to a constant" in m for m in messages)


def test_cursor_order_names_both_cursors():
    report = lint_fixture("typestate_bad.py",
                          select=["typestate-cursor-order"])
    assert len(report.findings) == 1
    message = report.findings[0].message
    assert ".serviced" in message and ".completed" in message
    assert "lower-rank" in message


def test_parallel_array_sites():
    report = lint_fixture("typestate_bad.py",
                          select=["typestate-parallel-arrays"])
    messages = " | ".join(f.message for f in report.findings)
    assert len(report.findings) == 3
    assert "grows" in messages                # block_data.append
    assert "slot-store" in messages           # admit_times[i] = now
    assert "reassigned wholesale" in messages


def test_grow_tail_only_flags_both_admitters():
    report = lint_fixture("typestate_bad.py",
                          select=["typestate-grow-tail-only"])
    called = {f.message.split("(")[0] for f in report.findings}
    assert called == {"grow_bulk", "try_enqueue_bulk"}


def test_crashed_use_names_the_durable_site():
    report = lint_fixture("typestate_bad.py",
                          select=["typestate-crashed-use"])
    assert len(report.findings) == 1
    assert "BadController.write_block" in report.findings[0].message


def test_good_fixture_is_clean():
    report = lint_fixture("typestate_good.py", select=TYPESTATE_RULES)
    assert report.findings == []


def test_out_of_scope_module_is_ignored():
    report = lint_fixture("typestate_bad.py", select=TYPESTATE_RULES,
                          typestate_scope=("repro/sim/",))
    assert report.findings == []


def test_queued_gauge_is_exempt():
    # typestate_good.py's service_head_block assigns request.queued from
    # a local; no cursor rule may treat the gauge as a cursor.
    report = lint_fixture("typestate_good.py",
                          select=["typestate-cursor-monotonic",
                                  "typestate-cursor-order"])
    assert report.findings == []


def test_every_typestate_rule_has_explain_material():
    from repro.analysis.registry import get_rule
    for rule_id in TYPESTATE_RULES:
        rule = get_rule(rule_id)
        assert rule.family == "typestate"
        assert rule.description and rule.rationale
        assert rule.example_bad and rule.example_good
