"""Pass only if the failing tests of a pytest JUnit report are exactly the
known-red acceptance criteria C1, C4 and C11 (README "Known-red"), each
failing with the values it prints today.

    python scripts/check_known_red.py tier1.xml

Any other failure or error (collection errors included) fails, and so does
a known-red criterion that passes, is skipped or is missing, or whose
failure message no longer carries its printed values: those stay visibly
red, with unchanged digits, rather than skipped or loosened.
"""

import sys
import xml.etree.ElementTree as ET

# each known-red criterion and the values its failure message must contain
KNOWN_RED = {
    "tests.test_acceptance::test_c01_table_roundtrip": ("0/176 cells",),
    "tests.test_acceptance::test_c04_closed_gate_fidelity": (
        "0.98820", "0.98797", "0.99692", "0.99666"),
    "tests.test_acceptance::test_c11_delta_zero_failure": ("0.685",),
}


def failing(report_path: str) -> tuple[dict[str, str], int, float]:
    """The failure (or error) message of each failed or errored test case by
    id, the case count and the suite's wall time in seconds."""
    root = ET.parse(report_path).getroot()
    cases = list(root.iter("testcase"))
    bad = {}
    for case in cases:
        verdict = case.find("failure")
        if verdict is None:
            verdict = case.find("error")
        if verdict is not None:
            name = f"{case.get('classname')}::{case.get('name')}"
            bad[name] = verdict.get("message", "")
    seconds = sum(float(suite.get("time", 0.0)) for suite in root.iter("testsuite"))
    return bad, len(cases), seconds


def main(report_path: str) -> int:
    bad, n_cases, seconds = failing(report_path)
    unexpected, now_green = sorted(bad.keys() - KNOWN_RED), sorted(KNOWN_RED.keys() - bad)
    moved = [(name, value) for name, values in KNOWN_RED.items() if name in bad
             for value in values if value not in bad[name]]
    for name in unexpected:
        print(f"unexpected failure: {name}")
    for name in now_green:
        print(f"known-red criterion not failing: {name}")
    for name, value in moved:
        print(f"known-red criterion no longer prints {value}: {name}")
    if unexpected or now_green or moved:
        return 1
    print(f"{n_cases} test cases in {seconds:.1f} s; "
          "exactly the known-red C1, C4 and C11 fail, with their printed values")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
