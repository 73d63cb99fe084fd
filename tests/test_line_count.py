"""tools/line_count.py on a small synthetic source."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "line_count", ROOT / "tools" / "line_count.py")
line_count = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_count)

# each line of the source beside its kind
_LINES = [
    ('"""A module docstring,', "docstring"),
    ('on two lines."""', "docstring"),
    ("", "blank"),
    ("import math  # a code line with a trailing comment", "code"),
    ("    ", "blank"),
    ("", "blank"),
    ("class Plate:", "code"),
    ('    """A class docstring."""', "docstring"),
    ("", "blank"),
    ("    # a comment-only line", "comment"),
    ("    def area(self):", "code"),
    ('        """A function', "docstring"),
    ('        docstring."""', "docstring"),
    ('        text = """a multi-line', "code"),
    ("string token", "code"),
    ('"""', "code"),
    ("        return math.pi, text", "code"),
]


def test_line_kinds_of_each_kind_of_line():
    source = "\n".join(line for line, _ in _LINES) + "\n"
    assert line_count.line_kinds(source) == [kind for _, kind in _LINES]
    assert set(line_count.KINDS) == {kind for _, kind in _LINES}
