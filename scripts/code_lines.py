"""Count the code lines of the package, one rule for every change.

    python scripts/code_lines.py [--root TREE]

A code line of `src/wgcl/*.py` is a line that holds a token of code,
read with `tokenize`: blank lines, comment lines and the lines of a
docstring (a string that is a statement on its own) do not count, and a
token that spans lines, such as a multi-line string argument, counts
every line it spans.  The script prints one line per module and a
`total` line.  With `--root`, it counts the same files under the tree
TREE too, and adds each module's difference from it (a module that only
one tree has counts 0 in the other).
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "wgcl"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token of code."""
    lines: set[int] = set()
    statement: list = []  # the code tokens of the logical line being read
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:  # a lone string is a docstring
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in NOT_CODE:
            statement.append(tok)
    return len(lines)


def counts(root: Path) -> dict[str, int]:
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((root / PACKAGE).glob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, help="another tree to compare against")
    args = parser.parse_args(argv)
    ours = counts(ROOT)
    theirs = counts(args.root) if args.root else {}
    rows = [(name, ours.get(name, 0), theirs.get(name, 0))
            for name in sorted(set(ours) | set(theirs))]
    rows.append(("total", sum(ours.values()), sum(theirs.values())))
    for name, count, other in rows:
        print(f"{name:16} {count:5}" + (f" {count - other:+5}" if args.root else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
