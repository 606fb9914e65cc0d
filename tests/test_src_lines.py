import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# 17 lines; code: 6, 9, 11, 13, the two lines of the string at 15-16, 17
MODULE = '''"""Module docstring
on two lines."""

# a comment

import os  # a trailing comment keeps its line


class Box:
    """One-line class docstring."""
    size = 3

    def area(self):
        """Method docstring."""
        text = """a string, not a docstring,
        on two lines"""
        return len(text) * self.size
'''


def test_count_drops_docstrings_comments_and_blank_lines():
    assert src_lines.count(MODULE) == (17, 7)


def test_docstring_lines_cover_each_docstring_and_nothing_else():
    assert src_lines.docstring_lines(MODULE) == {1, 2, 10, 14}


def test_a_module_of_comments_has_no_code():
    assert src_lines.count("# only\n\n# comments\n") == (3, 0)
