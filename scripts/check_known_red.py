"""Pass only if the failing tests of a pytest JUnit report are exactly the
known-red acceptance criteria C1, C4 and C11 (README "Known-red").

    python scripts/check_known_red.py tier1.xml

Any other failure or error (collection errors included) fails, and so does
a known-red criterion that passes, is skipped or is missing: those stay
visibly red rather than skipped or loosened.
"""

import sys
import xml.etree.ElementTree as ET

KNOWN_RED = {
    "tests.test_acceptance::test_c01_table_roundtrip",
    "tests.test_acceptance::test_c04_closed_gate_fidelity",
    "tests.test_acceptance::test_c11_delta_zero_failure",
}


def failing(report_path: str) -> tuple[set[str], int]:
    """The ids of the failed or errored test cases, and the case count."""
    cases = list(ET.parse(report_path).getroot().iter("testcase"))
    bad = {f"{case.get('classname')}::{case.get('name')}" for case in cases
           if case.find("failure") is not None or case.find("error") is not None}
    return bad, len(cases)


def main(report_path: str) -> int:
    bad, n_cases = failing(report_path)
    unexpected, now_green = sorted(bad - KNOWN_RED), sorted(KNOWN_RED - bad)
    for name in unexpected:
        print(f"unexpected failure: {name}")
    for name in now_green:
        print(f"known-red criterion not failing: {name}")
    if unexpected or now_green:
        return 1
    print(f"{n_cases} test cases; exactly the known-red C1, C4 and C11 fail")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
