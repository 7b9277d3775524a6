"""lowrisk accepts a Java source exactly when javac's parser does.

The verdicts come from tests/data/javac_verdicts.json, which
tests/tools/javac_verdicts.py writes from javac, so this test needs no JDK.
"""

import json
from pathlib import Path

import pytest

from lowrisk.errors import JavaParseError
from lowrisk.java.analyzer import analyze_source

FIXTURE = json.loads((Path(__file__).parent / "data" / "javac_verdicts.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", FIXTURE["cases"], ids=lambda case: case["name"])
def test_lowrisk_agrees_with_javac(case):
    try:
        analyze_source(case["source"], "Case.java")
    except JavaParseError as exc:
        assert case["verdict"] == "reject", f"javac accepts what lowrisk rejects: {exc}"
    else:
        assert case["verdict"] == "accept", "javac rejects what lowrisk accepts"


def test_the_fixture_holds_both_verdicts():
    assert {case["verdict"] for case in FIXTURE["cases"]} == {"accept", "reject"}
