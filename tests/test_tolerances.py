"""Every numerical threshold in msta is named once, in `msta.tolerances`,
and the oracle shares no code with the library it checks."""

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


def test_no_import_inside_a_function():
    # an import at call time hides a module cycle; the modules import each
    # other at the top, in one order
    found = []
    for path in sorted(Path(msta.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
    assert not found, "import at the top of the module instead of at: " + ", ".join(found)


def test_existence_is_decided_in_invariants_only():
    # the CLI reads `invariants.feasibility`'s report; a second copy of the
    # rule there would drift from the library's
    banned = {"expansion_probabilities", "B_function", "FEASIBILITY_SLACK"}
    # names read (Name), attributes (invariants.B_function) and imports (alias)
    found = [
        f"cli.py:{node.lineno}: {name}"
        for node in ast.walk(_tree("cli.py"))
        for name in banned & {getattr(node, field, None) for field in ("id", "attr", "name")}
    ]
    assert not found, "read invariants.feasibility instead of: " + ", ".join(found)


def _tree(name):
    return ast.parse((Path(msta.__file__).parent / name).read_text(encoding="utf-8"))


def _imports_oracle(node):
    if isinstance(node, ast.Import):
        return any(alias.name == "msta.oracle" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").removeprefix("msta").lstrip(".")
        return module == "oracle" or (not module and any(alias.name == "oracle" for alias in node.names))
    return False


def test_oracle_shares_no_code_with_the_library():
    # the oracle checks the library, so a bug in shared code would show on
    # both sides of every check
    tree = _tree("oracle.py")
    imported = {
        ((node.module or "").removeprefix("msta."), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("msta"))
        for alias in node.names
    }
    assert imported == {("algebra", "MAX_QUBITS"), ("algebra", "Multivector")}
    private = [
        f"oracle.py:{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
    ]
    assert not private, "the oracle reads private names: " + ", ".join(private)
    importers = [
        path.name
        for path in sorted(Path(msta.__file__).parent.glob("*.py"))
        if path.name != "cli.py" and any(_imports_oracle(node) for node in ast.walk(_tree(path.name)))
    ]
    assert not importers, "only the CLI may import the oracle: " + ", ".join(importers)


def test_one_contraction_serves_both_oracle_conversions():
    functions = {node.name: node for node in _tree("oracle.py").body if isinstance(node, ast.FunctionDef)}

    def calls(fn):
        return {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
        }

    for name in ("to_matrix", "from_matrix"):
        fn = functions[name]
        assert "_each_qubit" in calls(fn) and "kron" not in calls(fn)
        loops = [node.lineno for node in ast.walk(fn) if isinstance(node, (ast.For, ast.While))]
        assert not loops, f"{name} loops outside the shared contraction at lines {loops}"
