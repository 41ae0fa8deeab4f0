"""No line of the package is wider than 99 columns, so a cut in its line
count is not made by packing more onto each line."""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "countfact"
MAX_WIDTH = 99


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_line_is_wider_than_99_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    wide = [(number, len(line)) for number, line in enumerate(lines, 1) if len(line) > MAX_WIDTH]
    assert wide == [], f"{path.name}: (line, width) over {MAX_WIDTH} columns"
