"""``benchmarks/codelines.py``: code lines per file at two revisions."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_codelines", ROOT / "benchmarks" / "codelines.py",
)
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os


def f(x):
    """One-line docstring."""
    text = """not a docstring,
    two lines of code"""
    return (x +
            len(text))  # trailing comment
'''


def test_counts_code_not_comments_blanks_or_docstrings():
    # import, def, two lines of ``text``, two of ``return``
    assert codelines.code_lines(SOURCE) == 6


def test_a_revision_against_itself_changes_nothing(monkeypatch):
    monkeypatch.chdir(ROOT)
    try:
        subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                       capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    counts = codelines.count_at("HEAD", ["src/repro/net"])
    assert "src/repro/net/sizes.py" in counts
    assert all(n > 0 for n in counts.values())
    rows = codelines.table(counts, counts)
    assert rows[-1].split() == [
        "total", str(sum(counts.values())), str(sum(counts.values())), "+0",
    ]
