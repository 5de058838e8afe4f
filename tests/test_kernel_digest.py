"""The digest tool's comparison and usage, without running a digest."""

from __future__ import annotations

import pytest

from kernel_digest import differences, main

EXPECTED_TEXT = (
    "suite kernel seeds=1,2,3 instances=744 sha256=aa\n"
    "cover seeds=1,2,3 queries=900 sha256=bb\n"
    "demos scripts=4 sha256=cc\n"
)


def test_differences_name_moved_new_and_missing_lines():
    lines = [
        "suite kernel seeds=1,2,3 instances=744 sha256=aa",
        "cover seeds=1,2,3 queries=900 sha256=b0",
        "steiner seeds=1,2,3 queries=600 sha256=dd",
    ]
    assert list(differences(EXPECTED_TEXT, lines)) == [
        "moved: cover\n"
        "  expected cover seeds=1,2,3 queries=900 sha256=bb\n"
        "  got      cover seeds=1,2,3 queries=900 sha256=b0",
        "new: steiner seeds=1,2,3 queries=600 sha256=dd",
        "missing: demos scripts=4 sha256=cc",
    ]
    assert list(differences(EXPECTED_TEXT, EXPECTED_TEXT.splitlines())) == []


@pytest.mark.parametrize("argv", [["x"], ["--check", "1"], ["."], ["--help"]])
def test_main_refuses_any_other_argument(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage: python3 tools/kernel_digest.py [--check]\n"
