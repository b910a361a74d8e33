"""Every public name of the library is used by the library itself, and so is
every private top-level name, a library module imports from another only
names that it exports, and only ``solvers`` reaches numpy's BLAS threads or
makes a pool."""

import ast
from pathlib import Path

import isingmimo

SRC = Path(isingmimo.__file__).parent

# The only public names that library code may leave unused, each with why.
UNREFERENCED_ALLOWED = {
    "ml_exhaustive": "the brute-force oracle that the sphere decoder is tested against",
    "symbols_to_spins": "the binary model's image of a transmitted vector, kept for "
    "the planned per-cell search-error check of the run telemetry (ROADMAP.md)",
}


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _bound(node: ast.stmt) -> set:
    """Names a top-level statement defines, or sets an attribute or an item
    of, as ``_X.flags.writeable = False`` does: such a statement does not
    read its name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    names = set()
    for t in targets:
        while isinstance(t, (ast.Attribute, ast.Subscript)):
            t = t.value
        if isinstance(t, ast.Name):
            names.add(t.id)
    return names


def _references(trees: dict) -> set:
    """Names read anywhere in the library outside the package ``__init__``,
    each statement's reads of the names it defines left out."""
    seen = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in tree.body:
            bound = _bound(node)
            if "__all__" in bound:
                continue
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            seen |= read - bound
    return seen


def _unreferenced(src: Path) -> list:
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    seen = _references(trees)
    return [
        (module, name)
        for module, tree in trees.items()
        for name in _exports(tree)
        if name not in seen
    ]


def _unread_private(src: Path) -> list:
    """(module, name) for each private top-level name, dunders aside, that
    no library module reads outside the statement that defines it."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    seen = _references(trees)
    return [
        (module, name)
        for module, tree in trees.items()
        # Each name once, at the first statement that binds it.
        for name in dict.fromkeys(n for node in tree.body for n in sorted(_bound(node)))
        if name.startswith("_") and not name.endswith("__") and name not in seen
    ]


def _private_imports(src: Path) -> list:
    """(module, name) for each underscore name, dunders aside, that a
    library module imports from another library module."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != src.name:
                continue
            found += [
                (path.name, alias.name)
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.endswith("__")
            ]
    return found


# Modules that only the owner of the thread budget may import: ``ctypes``
# reaches numpy's OpenBLAS thread count, and ``concurrent.futures`` makes the
# thread and process pools that count must match.
THREAD_BUDGET_MODULES = ("ctypes", "concurrent")
THREAD_BUDGET_OWNER = "solvers.py"


def _thread_budget_imports(src: Path) -> list:
    """(module, imported module) for each import of a thread-budget module
    by a library module other than its owner."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == THREAD_BUDGET_OWNER:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                (path.name, name)
                for name in names
                if name.split(".")[0] in THREAD_BUDGET_MODULES
            ]
    return found


def _unexported_imports(src: Path) -> list:
    """(module, source, name) for each name, dunders aside, that a library
    module imports from a library module whose ``__all__`` lacks it."""
    exports = {p.stem: _exports(ast.parse(p.read_text())) for p in src.glob("*.py")}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != src.name:
                    continue
                parts = parts[1:]
            source = parts[0] if parts and parts[0] else "__init__"
            found += [
                (path.name, source, alias.name)
                for alias in node.names
                if not (alias.name.startswith("__") and alias.name.endswith("__"))
                and alias.name not in exports.get(source, [])
            ]
    return found


def test_every_exported_name_is_used_in_the_library():
    unused = [(m, n) for m, n in _unreferenced(SRC) if n not in UNREFERENCED_ALLOWED]
    assert unused == []


def test_allowlist_names_only_unused_exports():
    # An entry whose name gained a caller, or left the exports, is stale.
    assert sorted(n for _, n in _unreferenced(SRC)) == sorted(UNREFERENCED_ALLOWED)


def test_a_name_used_only_by_itself_is_unused(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f, g\n")
    (tmp_path / "a.py").write_text(
        '__all__ = ["f", "g"]\n\n\ndef f(n):\n    return f(n - 1) if n else g()\n\n\n'
        "def g():\n    return 0\n"
    )
    assert _unreferenced(tmp_path) == [("a.py", "f")]


def test_every_private_name_is_read_in_the_library():
    assert _unread_private(SRC) == []


def test_an_unread_private_name_is_found(tmp_path):
    # A private helper read only by itself, or by nothing, is left behind.
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    (tmp_path / "a.py").write_text(
        '__all__ = ["f"]\n_LIMIT = 3\n_STALE = 4\n_FROZEN = _LIMIT * [0.0]\n_FROZEN[0] = 1.0\n\n\n'
        "def _helper(n):\n    return _helper(n - 1) if n else _LIMIT\n\n\n"
        "def _alone(n):\n    return _alone(n - 1) if n else 0\n\n\n"
        "class _Old:\n    pass\n\n\n"
        "def f():\n    return _helper(2)\n"
    )
    assert _unread_private(tmp_path) == [
        ("a.py", "_STALE"),
        ("a.py", "_FROZEN"),
        ("a.py", "_alone"),
        ("a.py", "_Old"),
    ]


def test_no_private_name_imported_between_modules():
    assert _private_imports(SRC) == []


def test_a_private_import_is_found(tmp_path):
    (tmp_path / "__init__.py").write_text("from . import __version__\n")
    (tmp_path / "a.py").write_text(
        "from .b import _hidden, shown\nfrom . import __version__\nimport numpy as _np\n\n\n"
        "def f():\n    from .b import _late\n\n    return _late\n"
    )
    (tmp_path / "b.py").write_text(f"from {tmp_path.name}.a import _f\nfrom os import _exit\n")
    assert _private_imports(tmp_path) == [("a.py", "_hidden"), ("a.py", "_late"), ("b.py", "_f")]


def test_every_imported_name_is_exported_by_its_module():
    assert _unexported_imports(SRC) == []


def test_an_unexported_import_is_found(tmp_path):
    (tmp_path / "__init__.py").write_text('__version__ = "0"\nfrom .a import f\n')
    (tmp_path / "a.py").write_text(
        '__all__ = ["f"]\nfrom .b import shown, kept\nfrom . import __version__\n\n\n'
        "def f():\n    from .b import late\n\n    return late\n"
    )
    (tmp_path / "b.py").write_text(
        f'__all__ = ["shown"]\nfrom {tmp_path.name}.a import f, g\nfrom os import path\n'
    )
    assert _unexported_imports(tmp_path) == [
        ("a.py", "b", "kept"),
        ("a.py", "b", "late"),
        ("b.py", "a", "g"),
    ]


def test_only_solvers_imports_the_thread_budget_modules():
    assert _thread_budget_imports(SRC) == []


def test_a_thread_budget_import_is_found(tmp_path):
    (tmp_path / "__init__.py").write_text("import concurrent\n")
    (tmp_path / "a.py").write_text(
        "import os, ctypes.util\nfrom .concurrent import x\n\n\n"
        "def f():\n    from concurrent.futures import ProcessPoolExecutor\n\n"
        "    return ProcessPoolExecutor\n"
    )
    (tmp_path / THREAD_BUDGET_OWNER).write_text("import ctypes\nfrom concurrent import futures\n")
    assert _thread_budget_imports(tmp_path) == [
        ("__init__.py", "concurrent"),
        ("a.py", "ctypes.util"),
        ("a.py", "concurrent.futures"),
    ]
