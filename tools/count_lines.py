"""Count the lines of each module of src/mvne: `wc -l`, code, prose and blank lines.

A code line holds a token that is not a comment, and lies outside every
docstring (the leading string of a module, class or function). A prose line
is not code and holds a comment or a docstring's text; a blank line holds
only whitespace. Every line is one of the three, so `wc -l` is their sum.

    python3 tools/count_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the checkout's src/mvne.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
COLUMNS = ("wc -l", "code", "prose", "blank")


def docstring_lines(tree) -> set:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict:
    """{column: count} of one Python file, for each of COLUMNS."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code, comments = set(), set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.COMMENT:
                comments.add(tok.start[0])
            elif tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    blank = {no for no, line in enumerate(text.splitlines(), 1) if not line.strip()}
    prose = (docs | comments) - code - blank
    return dict(zip(COLUMNS, (text.count("\n"), len(code), len(prose), len(blank))))


def main(argv) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "mvne"
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<16}" + "".join(f"{c:>8}" for c in COLUMNS))
    for path in sorted(package.glob("*.py")):
        counts = count(path)
        total = {c: total[c] + counts[c] for c in COLUMNS}
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>8}" for c in COLUMNS))
    print(f"{'total':<16}" + "".join(f"{total[c]:>8}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
