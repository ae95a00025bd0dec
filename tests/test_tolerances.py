"""Every numerical threshold in msta is named once, in `msta.tolerances`."""

import ast
import io
import re
import tokenize
from pathlib import Path

import msta

# the table itself, and the oracle, which keeps its own thresholds so that
# it stays independent of the code it checks
_EXEMPT = {"tolerances.py", "oracle.py"}
_EXPONENT_FORM = re.compile(r"^[0-9.]+[eE]-[0-9]+$")


def test_no_bare_threshold_literals():
    found = []
    for path in sorted(Path(msta.__file__).parent.glob("*.py")):
        if path.name in _EXEMPT:
            continue
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
        found += [
            f"{path.name}:{tok.start[0]}: {tok.string}"
            for tok in tokens
            if tok.type == tokenize.NUMBER and _EXPONENT_FORM.match(tok.string)
        ]
    assert not found, "use a name from msta.tolerances for: " + ", ".join(found)


def test_no_assert_statements():
    # python -O strips asserts, so a check written as one passes any input
    found = []
    for path in sorted(Path(msta.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "raise an exception instead of asserting at: " + ", ".join(found)
