"""Structure checks on the package source: no module reaches into another
module's private names, no module carries an unused import, and every
dataclass field is read somewhere."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "thetacong"
MODULES = sorted(SRC.glob("*.py"))
# Imports kept only so that other code finds the name in that module.
REEXPORTS = {"pipeline.py": {"factorize"}, "descent.py": {"factorize"}}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    private = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("thetacong")):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports private names {private}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = _tree(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name in imported if name not in used | REEXPORTS.get(path.name, set()))
    assert not unused, f"{path.name} has unused imports {unused}"


def _private_definitions(tree):
    """Module-level private functions, classes and constants, with the
    top-level statement that defines each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_no_unreferenced_private_names():
    # a private name counts as used only when some other top-level statement
    # of the package reads it, so a self-recursive leftover is still caught
    trees = {path.name: _tree(path) for path in MODULES}
    readers: dict[str, list] = {}
    for tree in trees.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    readers.setdefault(node.id, []).append(stmt)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, []).append(stmt)
    dead = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, definition in _private_definitions(tree)
        if all(stmt is definition for stmt in readers.get(name, []))
    )
    assert not dead, f"private names nothing in the package uses: {dead}"


def test_nagao_counts_no_points():
    # the Mestre-Nagao sums read a_p from the newform table; point counting
    # is the tests' oracle and stays off the hunt's hot path
    imported = set()
    for node in ast.walk(_tree(SRC / "nagao.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert "pointcount" not in imported


def test_one_point_sieve():
    # every point search goes through one sieve-and-confirm routine, the
    # only caller of the residue filter
    callers = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_maybe_square"
    ]
    assert len(callers) == 1, callers


def _callers(tree, name):
    """The innermost enclosing function of each call of name, None at module
    level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == name:
                found.append(function)
            visit(child, child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(tree, None)
    return found


def test_one_local_verdict_fill():
    # outside its own recursion the p-adic engine _zp runs only where
    # _qp_solvable fills its verdict table, so no route bypasses the table
    callers = {
        (path.name, function.name if function else None): function
        for path in MODULES
        for function in _callers(_tree(path), "_zp")
        if function is None or function.name != "_zp"
    }
    assert list(callers) == [("descent.py", "_qp_solvable")], sorted(callers, key=str)
    fill = callers["descent.py", "_qp_solvable"]
    assert any(isinstance(node, ast.Name) and node.id == "_QP_VERDICTS" for node in ast.walk(fill))


def test_descent_never_factors():
    # the descent reads every prime and square class off CurveQ.bad_primes;
    # it holds factorize only as a re-export
    calls = [
        node.lineno
        for node in ast.walk(_tree(SRC / "descent.py"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "factorize"
    ]
    assert not calls, f"descent.py calls factorize on lines {calls}"


def _is_dataclass_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def test_every_dataclass_field_is_read():
    # a field that no code in the package or its tests reads as an attribute
    # is state that nothing uses
    fields = [
        f"{path.name}:{node.name}.{stmt.target.id}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef) and any(_is_dataclass_decorator(d) for d in node.decorator_list)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    assert fields
    read = {
        node.attr
        for path in MODULES + sorted(TESTS.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [f for f in fields if f.rpartition(".")[2] not in read]
    assert not unread, f"dataclass fields nothing reads: {unread}"
