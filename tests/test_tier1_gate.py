"""The tier-1 gate on planted junit reports: it passes the designed FAILs
with their closed-form reasons and enough passes, and names what else it sees."""

import importlib.util
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest

GATE_PATH = Path(__file__).resolve().parents[1] / ".github" / "tier1_gate.py"
spec = importlib.util.spec_from_file_location("tier1_gate", GATE_PATH)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)

# a junit failure message as pytest writes it: the reason inside a longer text
MESSAGES = {
    name: f"AssertionError: assert False ... [{reason}, so ...] ..."
    for name, reason in gate.DESIGNED_FAILS.items()
}


def case(name, outcome="", message="", text="text"):
    classname, test = name.split("::")
    body = f"<{outcome} message={quoteattr(message)}>{escape(text)}</{outcome}>" if outcome else ""
    return f'<testcase classname="{classname}" name="{test}" time="0.1">{body}</testcase>'


def report(tmp_path, passed=gate.MIN_PASSED, messages=MESSAGES, extra=()):
    cases = [case(f"tests.test_planted::test_{i}") for i in range(passed)]
    cases += [case(name, "failure", message) for name, message in messages.items()]
    cases += extra
    path = tmp_path / "report.xml"
    path.write_text(f'<testsuites><testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')
    return path


def test_the_designed_fails_with_their_reasons_pass_the_gate(tmp_path):
    skipped = case("tests.test_planted::test_skipped", "skipped", "no BLAS")
    path = report(tmp_path, extra=[skipped])
    assert gate.problems(path) == []
    assert gate.main([str(path)]) == 0


def test_fewer_passes_than_recorded_fail_the_gate(tmp_path):
    # a skipped test is not a pass
    skipped = case("tests.test_planted::test_skipped", "skipped", "no BLAS")
    path = report(tmp_path, passed=gate.MIN_PASSED - 1, extra=[skipped])
    assert gate.problems(path) == [f"{path}: {gate.MIN_PASSED - 1} passed, fewer than {gate.MIN_PASSED}"]


@pytest.mark.parametrize("outcome", ["failure", "error"])
def test_an_unexpected_fail_fails_the_gate(tmp_path, outcome):
    path = report(tmp_path, extra=[case("tests.test_planted::test_broken", outcome, "boom")])
    assert gate.problems(path) == [f"{path}: unexpected FAIL tests.test_planted::test_broken"]


def test_a_designed_fail_that_passes_or_loses_its_reason_fails_the_gate(tmp_path):
    criterion_3, criterion_6, criterion_9 = gate.DESIGNED_FAILS
    messages = {criterion_6: "AssertionError: assert False", criterion_9: MESSAGES[criterion_9]}
    path = report(tmp_path, extra=[case(criterion_3)], messages=messages)
    assert gate.problems(path) == [
        f"{path}: designed FAIL {criterion_3} did not fail",
        f"{path}: designed FAIL {criterion_6} lacks its reason {gate.DESIGNED_FAILS[criterion_6]!r}",
    ]
    assert gate.main([str(path)]) == 1




def traceback(reason, source):
    """A junit failure body as pytest writes it: the failing source line,
    which quotes ``source``, then the E lines of the exception, which hold
    ``reason``."""
    return (
        f"def test_criterion():\n>       assert report({source!r})\n"
        f"E       AssertionError: assert False\n"
        f"E        +  where False = report('... [{reason}] ...')\n\n"
        f"tests/test_acceptance.py:326: AssertionError"
    )


CRITERION_9 = "tests.test_acceptance::test_criterion_09_theorem_fuzz"
OTHER_MESSAGES = {name: m for name, m in MESSAGES.items() if name != CRITERION_9}


def test_a_reason_cut_from_the_message_passes_whole_in_the_e_lines(tmp_path):
    reason = gate.DESIGNED_FAILS[CRITERION_9]
    cut = f"AssertionError: assert False ... [{reason[:-10]}...] ..."
    failure = case(CRITERION_9, "failure", cut, traceback(reason, "the test's source"))
    path = report(tmp_path, messages=OTHER_MESSAGES, extra=[failure])
    assert gate.problems(path) == []


def test_a_reason_only_in_a_source_line_fails_the_gate(tmp_path):
    reason = gate.DESIGNED_FAILS[CRITERION_9]
    failure = case(CRITERION_9, "failure", "AssertionError: assert False", traceback("cut", reason))
    path = report(tmp_path, messages=OTHER_MESSAGES, extra=[failure])
    assert gate.problems(path) == [f"{path}: designed FAIL {CRITERION_9} lacks its reason {reason!r}"]
