"""Tests for scripts/check_known_red.py on small synthetic JUnit reports."""

import importlib.util
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_known_red.py"
_spec = importlib.util.spec_from_file_location("check_known_red", SCRIPT)
check_known_red = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_known_red)

CASES = {
    "c01": "test_c01_table_roundtrip",
    "c04": "test_c04_closed_gate_fidelity",
    "c11": "test_c11_delta_zero_failure",
    "other": "test_c02_gate_time",
}

# the failure messages the criteria print, shortened
MESSAGES = {
    "c01": "AssertionError: 0/176 cells within max(1%, last digit); worst column "
           "delta (row 10, 133.7x off).",
    "c04": "AssertionError: row6: min Fbar gamma=0 0.98820 (need 0.999), "
           "gamma=0.01 0.98797 (need 0.995); row11: min Fbar gamma=0 0.99692 "
           "(need 0.999), gamma=0.01 0.99666 (need 0.995)",
    "c11": "AssertionError: peak at zero detuning 0.685 (criterion < 0.6)",
    "other": "AssertionError: gate time off",
}


def report(tmp_path, failing, missing=(), messages=MESSAGES):
    """A pytest-style report with a case per entry of CASES that is not
    ``missing``, those in ``failing`` failed with their ``messages``."""
    lines = []
    for key, name in CASES.items():
        if key in missing:
            continue
        verdict = (f"<failure message={quoteattr(messages[key])}/>"
                   if key in failing else "")
        lines.append(f'<testcase classname="tests.test_acceptance" name="{name}" '
                     f'time="0.5">{verdict}</testcase>')
    path = tmp_path / "tier1.xml"
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites>'
        f'<testsuite name="pytest" tests="{len(lines)}" time="12.34">'
        + "".join(lines) + "</testsuite></testsuites>")
    return str(path)


def test_exactly_the_known_red_failing_passes(tmp_path, capsys):
    assert check_known_red.main(report(tmp_path, {"c01", "c04", "c11"})) == 0
    assert "4 test cases in 12.3 s" in capsys.readouterr().out


@pytest.mark.parametrize("failing, missing", [
    ({"c01", "c04", "c11", "other"}, ()),  # one extra failure
    ({"c01", "c11"}, ()),                  # C4 passes
    ({"c01", "c04"}, ("c11",)),            # C11 missing
], ids=["extra_failure", "c04_passes", "c11_missing"])
def test_any_other_outcome_fails(tmp_path, failing, missing):
    assert check_known_red.main(report(tmp_path, failing, missing)) == 1


def test_a_known_red_value_that_moved_fails(tmp_path, capsys):
    """C4 still fails, but its row-6 floor reads 0.98821, not 0.98820."""
    moved = dict(MESSAGES, c04=MESSAGES["c04"].replace("0.98820", "0.98821"))
    assert check_known_red.main(report(tmp_path, {"c01", "c04", "c11"},
                                       messages=moved)) == 1
    assert ("no longer prints 0.98820: tests.test_acceptance::"
            "test_c04_closed_gate_fidelity") in capsys.readouterr().out
