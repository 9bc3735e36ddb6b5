"""The code-line counter (tests/code_lines.py) on a hand-counted sample."""

from __future__ import annotations

from code_lines import code_lines, main

SAMPLE = '''"""Module docstring,
two lines."""

import sys  # a trailing comment leaves the line code

# a comment line


class Box:
    """Class docstring."""

    def size(self, items):
        """Function docstring,
        over two lines.
        """
        text = """a string that is
not a docstring"""
        return len(
            items
        ) + len(text)


x = 1; y = 2
'''


def test_counts_code_lines_per_file_and_in_total(tmp_path, capsys):
    # import; class; def; the two lines of `text`; the three of `return`;
    # x and y on one line.
    assert code_lines(SAMPLE) == 9
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("pass\n\n# done\n")
    assert main([str(tmp_path)]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["9", "1", "10"]
