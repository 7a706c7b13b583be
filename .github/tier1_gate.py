"""Fail unless each tier-1 junit report holds exactly the designed FAILs,
each failing with its closed-form reason, and at least the recorded number
of passes.

    python .github/tier1_gate.py REPORT.xml [REPORT.xml ...]

Exits 0 when every report passes the gate, else prints what differs and
exits 1.
"""

import sys
import xml.etree.ElementTree as ET

# acceptance checks that assert a commonly quoted expectation the exact models
# violate; each fails by design and prints its closed-form reason (README),
# which its junit failure message or the E lines of its traceback must hold.
# pytest shortens a long message in its middle, so each reason is a part that
# survives the shortening
DESIGNED_FAILS = {
    "tests.test_acceptance::test_criterion_03_landscape_shape":
        "exact limit is 1/sqrt(17) = 0.2425",
    "tests.test_acceptance::test_criterion_06_cavity_variant_ordering":
        "co-rotating model has an exact 0.5 plateau and a 0.0286 tail",
    "tests.test_acceptance::test_criterion_09_theorem_fuzz":
        "every exchange-symmetric mediated Hamiltonian carries singlet-sector dark states",
}
# the tier-1 pass count recorded in CHANGES.md
MIN_PASSED = 666


def failure_texts(failure) -> tuple[str, str]:
    """The junit failure message and the E lines of the traceback below it,
    the exception as pytest prints it; not the source lines around them,
    which may quote a reason that the failure does not give."""
    lines = (failure.text or "").splitlines()
    return failure.get("message", ""), "\n".join(l[1:].strip() for l in lines if l.startswith("E "))


def problems(path) -> list[str]:
    """What keeps the junit report at ``path`` from passing the gate."""
    failed, passed = {}, 0
    for case in ET.parse(path).iter("testcase"):
        failure = case.find("failure")
        if failure is None:
            failure = case.find("error")
        if failure is not None:
            failed[f"{case.get('classname')}::{case.get('name')}"] = failure_texts(failure)
        elif case.find("skipped") is None:
            passed += 1
    found = []
    for name in sorted(failed.keys() - DESIGNED_FAILS.keys()):
        found.append(f"{path}: unexpected FAIL {name}")
    for name, reason in sorted(DESIGNED_FAILS.items()):
        if name not in failed:
            found.append(f"{path}: designed FAIL {name} did not fail")
        elif not any(reason in text for text in failed[name]):
            found.append(f"{path}: designed FAIL {name} lacks its reason {reason!r}")
    if passed < MIN_PASSED:
        found.append(f"{path}: {passed} passed, fewer than {MIN_PASSED}")
    return found


def main(paths) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    found = [line for path in paths for line in problems(path)]
    print("\n".join(found) or f"{len(paths)} report(s) pass the tier-1 gate")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
