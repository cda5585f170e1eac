"""tools/count_lines.py puts every line of a module in exactly one of its
code, prose and blank columns, so `wc -l` is their sum."""

import importlib.util
from pathlib import Path

import pytest

import mvne

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
PACKAGE = Path(mvne.__file__).resolve().parent

_spec = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_wc_is_code_plus_prose_plus_blank(path):
    counts = count_lines.count(path)
    assert counts["wc -l"] == path.read_bytes().count(b"\n")
    assert counts["wc -l"] == counts["code"] + counts["prose"] + counts["blank"]


def test_each_kind_of_line_lands_in_its_column(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Doc.\n'        # prose
                    "\n"                 # blank, inside the docstring
                    'More."""\n'         # prose
                    "x = 1  # note\n"    # code, with a comment
                    "   \n"              # blank
                    "# alone\n"          # prose
                    "def f():\n"         # code
                    '    """One."""\n'   # prose
                    '    return """a\n'  # code
                    'b"""\n')            # code: a string that is no docstring
    assert count_lines.count(path) == {"wc -l": 10, "code": 4, "prose": 4, "blank": 2}
