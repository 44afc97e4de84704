"""Source-level rules for the package."""

import ast
import importlib
import re
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


def test_every_exported_name_resolves():
    """Each name in the `__all__` of the package and of each submodule resolves, so a
    deletion cannot leave a stale export behind."""
    stale = []
    for path in sorted(Path(gaborinv.__file__).parent.glob("*.py")):
        name = "gaborinv" if path.stem == "__init__" else f"gaborinv.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{x}" for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert not stale


def test_no_assert_statements():
    """`python -O` strips assert, so no runtime check may rely on one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(gaborinv.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def test_every_module_parses_at_the_python_floor():
    """The package keeps to the grammar of the oldest Python that `requires-python`
    in pyproject.toml admits, so newer syntax fails here and not on that Python."""
    package = Path(gaborinv.__file__).parent
    pyproject = (package.parents[1] / "pyproject.toml").read_text()
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    for path in sorted(package.glob("*.py")):
        ast.parse(path.read_text(), filename=path.name, feature_version=floor)


def test_no_module_imports_scipy():
    """numpy is the package's one numerical dependency."""
    found = [
        path.name
        for path in sorted(Path(gaborinv.__file__).parent.glob("*.py"))
        if any(
            (name or "").split(".")[0] == "scipy"
            for name in imported_names(ast.parse(path.read_text()))
        )
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


def test_rank_tol_is_multiplied_only_in_rank_cut():
    """Every rank is cut by `gabor.rank_cut`: no other function multiplies a
    rank_tol (or DEFAULT_RANK_TOL), so a new cut cannot write its own rule."""

    def is_rank_tol(node) -> bool:
        name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
        return name.lower().endswith("rank_tol")

    def products(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            operands = node.left, node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
            operands = node.target, node.value
        else:
            operands = ()
        if any(map(is_rank_tol, operands)):
            yield where
        for child in ast.iter_child_nodes(node):
            yield from products(child, where)

    found = [
        where
        for path in sorted(Path(gaborinv.__file__).parent.glob("*.py"))
        for where in products(ast.parse(path.read_text()), path.stem)
    ]
    assert found == ["gabor.rank_cut"]


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


def test_preconditions_raise_their_class_not_a_bare_value_error():
    """A violated precondition is a toolkit class (InvalidParameter is also a
    ValueError); only the file readers raise a bare ValueError for a bad file."""
    readers = {("serialize", "load_signal_csv"), ("serialize", "load_operator_binary"),
               ("density", "pointset_from_json")}
    found = []
    for path in sorted(Path(gaborinv.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    named = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
                elif isinstance(node, ast.Call) and getattr(node.func, "id", "") in (
                    "exact_int", "exact_ints"
                ):
                    named = node.args[1:] + [k.value for k in node.keywords if k.arg == "error"]
                else:
                    continue
                if any(getattr(n, "id", None) == "ValueError" for n in named) and (
                    path.stem, getattr(top, "name", None)
                ) not in readers:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_every_error_class_is_used():
    """Each class in `errors` is named by some other module of the package."""
    package = Path(gaborinv.__file__).parent
    classes = {
        node.name
        for node in ast.parse((package / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    used = {
        node.id
        for path in package.glob("*.py")
        if path.stem != "errors"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name)
    }
    assert classes <= used, sorted(classes - used)


def test_invariant_set_is_read_only_to_write_json():
    """The scan's answers are read from its class table: the one read of the
    stored `invariant_set` pairs is the JSON writer's."""
    reads = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr == "invariant_set":
            if isinstance(node.ctx, ast.Load):
                reads.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(Path(gaborinv.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert reads == ["invariance.InvarianceReport.to_json_dict"]


def test_no_module_builds_a_view_with_as_strided():
    """Strided views come from slices of `sliding_window_view`, which numpy checks
    against the bounds of its array; `as_strided` checks nothing."""
    found = [
        path.name
        for path in sorted(Path(gaborinv.__file__).parent.glob("*.py"))
        if "as_strided" in path.read_text()
    ]
    assert not found
