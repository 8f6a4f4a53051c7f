"""CLI contract: exit codes, formats, and the golden fixture output.

The golden test runs ``python -m repro lint bad`` as a subprocess from
the fixtures directory and compares byte-for-byte against
``expected_bad.txt`` -- regenerate that file (same command, redirected)
when a rule message or fixture intentionally changes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import main
from repro.lint.rules import RULES

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"


def run_cli(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_exit_zero_on_clean_tree(capsys):
    assert main([str(FIXTURES / "clean")]) == 0
    assert capsys.readouterr().out == ""


def test_exit_one_on_bad_tree(capsys):
    assert main([str(FIXTURES / "bad")]) == 1
    out = capsys.readouterr().out
    assert "found 11 problem(s)" in out


def test_exit_two_on_missing_path(capsys):
    assert main([str(FIXTURES / "does-not-exist")]) == 2
    assert capsys.readouterr().out == ""


def test_list_rules_names_all_nine(capsys):
    """Nine rules were written; RL003 is retired, so eight remain."""
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RL001", "RL002", "RL004", "RL005", "RL006",
                 "RL007", "RL008", "RL009"):
        assert code in out
    assert "RL003" not in out
    assert len(RULES) == 8


def test_lint_help_names_every_registered_rule():
    """The ``repro lint`` help line is built from the rule registry."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    text = " ".join(result.stdout.split())
    assert f"linter ({', '.join(sorted(RULES))})" in text
    assert "RL003" not in text


def test_json_format_is_machine_readable(capsys):
    assert main(["--format", "json", str(FIXTURES / "bad")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 11
    assert {d["code"] for d in payload} == {
        "RL001", "RL002", "RL004", "RL005", "RL006", "RL007", "RL008",
        "RL009",
    }
    sample = payload[0]
    assert set(sample) == {"path", "line", "col", "code", "message"}


def test_golden_output_matches_expected(tmp_path):
    expected = (FIXTURES / "expected_bad.txt").read_text(encoding="utf-8")
    result = run_cli("bad", cwd=FIXTURES)
    assert result.returncode == 1
    assert result.stdout == expected


@pytest.mark.parametrize(
    ("code", "target"),
    [
        ("RL001", "bad/anywhere/rand.py"),
        ("RL002", "bad/sim/clock.py"),
        ("RL004", "bad/device/raiser.py"),
        ("RL005", "bad/analysis/avail.py"),
        ("RL006", "bad/core/retry.py"),
        ("RL007", "bad/util/defaults.py"),
        ("RL009", "bad/core/probe.py"),
    ],
)
def test_each_fixture_fails_alone_naming_its_code(code, target):
    result = run_cli(target, cwd=FIXTURES)
    assert result.returncode == 1
    assert code in result.stdout
    # Diagnostics carry file:line positions.
    first = result.stdout.splitlines()[0]
    path_part, line_part, _rest = first.split(":", 2)
    assert path_part.endswith(".py")
    assert line_part.isdigit()
