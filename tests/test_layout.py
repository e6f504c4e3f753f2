"""Source-layout checks: shared constants, the target branch and the CSV
writer each live in one module of the package."""

import re
from pathlib import Path

import zetalab

SOURCES = {p.stem: p.read_text() for p in Path(zetalab.__file__).parent.glob("*.py")}


def _modules_matching(pattern: str) -> list[str]:
    return sorted(name for name, text in SOURCES.items() if re.search(pattern, text, re.M))


def test_shared_constants_assigned_once():
    assert _modules_matching(r"^TWO_PI\s*=") == ["critline"]
    assert _modules_matching(r"^TARGETS\s*=") == ["critline"]


def test_one_csv_writer():
    assert len(_modules_matching(r"csv\.writer\(")) == 1


def test_target_branch_only_in_critline():
    assert _modules_matching(r"""target\s*==\s*["']zeta["']""") in ([], ["critline"])
