"""Fail unless each tier-1 junit report holds exactly the designed FAILs and
at least the recorded number of passes.

    python .github/tier1_gate.py REPORT.xml [REPORT.xml ...]

Exits 0 when every report passes the gate, else prints what differs and
exits 1.
"""

import sys
import xml.etree.ElementTree as ET

# acceptance checks that assert a commonly quoted expectation the exact models
# violate; each fails by design and prints its closed-form reason (README)
DESIGNED_FAILS = {
    "tests.test_acceptance::test_criterion_03_landscape_shape",
    "tests.test_acceptance::test_criterion_06_cavity_variant_ordering",
    "tests.test_acceptance::test_criterion_09_theorem_fuzz",
}
# the tier-1 pass count recorded in CHANGES.md
MIN_PASSED = 548


def problems(path) -> list[str]:
    """What keeps the junit report at ``path`` from passing the gate."""
    failed, passed = set(), 0
    for case in ET.parse(path).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(f"{case.get('classname')}::{case.get('name')}")
        elif case.find("skipped") is None:
            passed += 1
    found = []
    for name in sorted(failed - DESIGNED_FAILS):
        found.append(f"{path}: unexpected FAIL {name}")
    for name in sorted(DESIGNED_FAILS - failed):
        found.append(f"{path}: designed FAIL {name} did not fail")
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
