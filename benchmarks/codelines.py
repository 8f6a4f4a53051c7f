#!/usr/bin/env python3
"""Code lines per Python file at two git revisions.

    python3 benchmarks/codelines.py --a cdd3df4 [--b HEAD] src/repro/net

A code line is a physical line that carries a token other than a
comment and is not part of a docstring (the string that opens a module,
class or function body): blank lines, comments and docstrings do not
count, every line of a multi-line statement does.  For every ``.py``
file under the given paths at either revision it prints the count at
``A``, at ``B`` and the difference (``-`` where the file does not
exist), then the totals.  ``B`` defaults to the working tree (tracked
and new, not ignored, files).  Reads the files with ``git``; writes
nothing.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional

#: Tokens that make no line a code line on their own.
_LAYOUT = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
})


def code_lines(source: str) -> int:
    """Number of code lines in one file's ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def count_at(rev: Optional[str], paths: Iterable[str]) -> Dict[str, int]:
    """``{file: code lines}`` for every ``.py`` file under ``paths`` at
    ``rev``, or in the working tree when ``rev`` is None."""
    if rev is None:
        files = _git("ls-files", "--cached", "--others",
                     "--exclude-standard", "--", *paths)
        return {
            name: code_lines(Path(name).read_text(encoding="utf-8"))
            for name in files.splitlines() if name.endswith(".py")
        }
    files = _git("ls-tree", "-r", "--name-only", rev, "--", *paths)
    return {
        name: code_lines(_git("show", f"{rev}:{name}"))
        for name in files.splitlines() if name.endswith(".py")
    }


def table(a: Dict[str, int], b: Dict[str, int]) -> List[str]:
    """The per-file rows and the totals, as printed."""
    rows = [f"{'file':<50} {'A':>6} {'B':>6} {'B-A':>6}"]
    for name in sorted(set(a) | set(b)):
        before, after = a.get(name), b.get(name)
        cells = ["-" if n is None else str(n) for n in (before, after)]
        delta = (after or 0) - (before or 0)
        rows.append(f"{name:<50} {cells[0]:>6} {cells[1]:>6} {delta:>+6}")
    total_a, total_b = sum(a.values()), sum(b.values())
    rows.append(
        f"{'total':<50} {total_a:>6} {total_b:>6} {total_b - total_a:>+6}"
    )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", required=True, help="the base revision")
    parser.add_argument("--b", help="the revision to compare "
                        "(default: the working tree)")
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    rows = table(count_at(args.a, args.paths), count_at(args.b, args.paths))
    print(f"code lines, A = {args.a}, B = {args.b or 'working tree'}")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
