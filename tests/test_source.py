"""Source-level rules for the package."""

import ast
from pathlib import Path

import gaborinv


def imported_names(tree) -> set:
    """The names a module's import statements bring in, and the modules they name."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}


def test_no_assert_statements():
    """`python -O` strips assert, so no runtime check may rely on one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(gaborinv.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def test_cli_writes_files_only_through_serialize():
    """The file formats are decided in one module: cli imports no csv and opens no file."""
    tree = ast.parse((Path(gaborinv.__file__).parent / "cli.py").read_text())
    opened = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "open" or getattr(node.func, "attr", None) == "open")
    ]
    assert "csv" not in imported_names(tree) and not opened


def test_exact_layer_has_no_float():
    """No exact computation goes through a float: lattice imports no numpy, calls
    no float and holds no float literal, so the exact commands load no numpy."""
    tree = ast.parse((Path(gaborinv.__file__).parent / "lattice.py").read_text())
    floats = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float")
        or (isinstance(node, ast.Constant) and isinstance(node.value, float))
    ]
    assert not any((name or "").split(".")[0] == "numpy" for name in imported_names(tree))
    assert not floats


def test_each_parameter_rule_has_one_message():
    """nu and the refinement are read where they are first used, once in the package."""
    text = "".join(path.read_text() for path in Path(gaborinv.__file__).parent.glob("*.py"))
    for message in ("nu must divide the time step", "refinement must divide gcd(a, b)"):
        assert text.count(message) == 1, message


def test_no_module_uses_a_private_name_of_another():
    """A private name is read only in its own module: no `from .x import _y` and
    no `x._y` on another gaborinv module (shared helpers are public)."""
    package = Path(gaborinv.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("gaborinv")
            ):
                names = [alias.name for alias in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                names = [node.attr]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.startswith("_") and not name.endswith("__")
            ]
    assert not found
