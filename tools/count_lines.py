"""Count the lines of each module of src/mvne: `wc -l` and code lines.

A code line holds a token that is not a comment, and lies outside every
docstring (the leading string of a module, class or function). Blank
lines, comment lines and docstring lines are not code lines.

    python3 tools/count_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the checkout's src/mvne.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


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


def count(path: Path):
    """(`wc -l`, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def main(argv) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "mvne"
    total_wc = total_code = 0
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        wc, code = count(path)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<16}{wc:>8}{code:>8}")
    print(f"{'total':<16}{total_wc:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
