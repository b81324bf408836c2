"""``benchmarks/compare_certs.py``'s code-line count, which ``lines``
prints for each module."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "compare_certs.py"
_spec = importlib.util.spec_from_file_location("compare_certs", _PATH)
compare_certs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_certs)

# 23 lines: six of three docstrings, two of comments alone and five
# blank ones hold no code; the two multi-line statements and the
# multi-line string, which is no docstring, count each of their lines
_SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code


# a comment alone
class Box:
    """Class docstring."""

    size = 1
    label = """a string,
    not a docstring"""

    def area(self, other):
        """Function docstring,

        over three lines."""
        # a comment in a body
        total = (self.size
                 + other.size)
        return math.prod(
            [total, 2])
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    assert len(_SOURCE.splitlines()) == 23
    # import, class, size, label (2), def, total (2), return (2)
    assert compare_certs._code_lines(_SOURCE) == 10
