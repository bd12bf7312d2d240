"""Static checks on the source tree.  pyproject.toml admits Python 3.10:
every source, test, benchmark and tool file must parse with the 3.10 grammar,
whichever interpreter runs the suite.  No package module may import a name
it never uses, the package exports exactly the names it imports, and every
function, class and method of the package is read somewhere or exported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_python_3_10():
    paths = sorted(path for top in ("src", "tests", "benchmarks", "tools")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: "
                            f"{exc.msg}")
    assert not failures, failures


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement of ``tree`` that no expression
    of it reads (an attribute chain counts as a read of its root)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_package_module_imports_a_name_it_never_uses():
    # ``__init__.py`` imports names to re-export them.
    paths = sorted(path for path in (ROOT / "src").rglob("*.py")
                   if path.name != "__init__.py")
    assert len(paths) > 5
    failures = [f"{path.relative_to(ROOT)}:{unused}" for path in paths
                for unused in unused_imports(ast.parse(path.read_text(
                    encoding="utf-8")))]
    assert not failures, failures


def test_the_package_exports_exactly_the_names_it_imports():
    # The guard above exempts ``__init__.py``; its imports are checked here
    # against ``__all__``, so that a removed name leaves no stale export.
    import descoord

    tree = ast.parse((ROOT / "src" / "descoord" / "__init__.py").read_text(
        encoding="utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(descoord.__all__) == sorted(imported)
    assert [name for name in descoord.__all__
            if not hasattr(descoord, name)] == []


def test_the_import_guard_sees_an_unused_name():
    tree = ast.parse("import os.path\nfrom a import b, c as d\n"
                     "from __future__ import annotations\n"
                     "print(os.sep, d)\n")
    assert unused_imports(tree) == ["2: b"]


def dead_definitions(trees: dict[str, ast.Module],
                     exported: set[str]) -> list[str]:
    """Module-level functions and classes of ``trees``, and their classes'
    non-dunder methods, that no tree reads and that are not ``exported``.
    A function or class is read by name (as a name, an attribute or an
    imported name); a method only as an attribute (``x.name``), so that a
    local variable of the same name does not hide it."""
    defined = []
    names, attributes = set(exported), set()
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (path, item.lineno, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return [f"{path}:{line}: {name}" for path, line, name in defined
            if name.rpartition(".")[2] not in attributes
            and ("." in name or name not in names)]


def test_every_package_definition_is_read_or_exported():
    import descoord

    trees = {str(path.relative_to(ROOT)): ast.parse(path.read_text(
        encoding="utf-8")) for path in sorted((ROOT / "src").rglob("*.py"))}
    assert len(trees) > 5
    assert dead_definitions(trees, set(descoord.__all__)) == []


def test_the_definition_guard_sees_a_dead_function_and_method():
    trees = {
        "a.py": ast.parse("def used(): pass\n"
                          "def dead(): pass\n"
                          "def exported(): pass\n"
                          "class Box:\n"
                          "    def __init__(self): pass\n"
                          "    def opened(self): pass\n"
                          "    def unread(self): pass\n"
                          "    def hidden(self): pass\n"),
        # A parameter named like a method is a name, not a read of it.
        "b.py": ast.parse("from a import Box, used\n"
                          "used()\n"
                          "Box().opened()\n"
                          "def walk(hidden): return list(hidden)\n"
                          "walk([])\n"),
    }
    assert dead_definitions(trees, {"exported"}) == [
        "a.py:2: dead", "a.py:7: Box.unread", "a.py:8: Box.hidden"]


def stray_printers(tree: ast.Module) -> list[str]:
    """The ``print`` calls without a ``file=`` argument, and the
    ``sort_keys=True`` keywords, of ``tree`` outside its function
    ``_emit``: stdout records printed or encoded anywhere but the one
    printer."""
    inside = {id(node) for top in ast.walk(tree)
              if isinstance(top, ast.FunctionDef) and top.name == "_emit"
              for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and not any(k.arg == "file" for k in node.keywords)):
            found.append((node.lineno, "print"))
        if (isinstance(node, ast.keyword) and node.arg == "sort_keys"
                and isinstance(node.value, ast.Constant)
                and node.value.value is True):
            found.append((node.lineno, "sort_keys=True"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_the_cli_prints_every_stdout_record_through_one_function():
    source = (ROOT / "src" / "descoord" / "cli.py").read_text(
        encoding="utf-8")
    assert "def _emit(" in source
    assert stray_printers(ast.parse(source)) == []


def test_the_printer_guard_sees_a_second_printer():
    tree = ast.parse("def _emit(json_mode, text, record):\n"
                     "    print(dumps(record, sort_keys=True) if json_mode\n"
                     "          else text)\n"
                     "def cmd(args):\n"
                     "    print('warning', file=sys.stderr)\n"
                     "    if args.json:\n"
                     "        print(dumps({}, sort_keys=True))\n"
                     "    print('done')\n")
    assert stray_printers(tree) == ["7: print", "7: sort_keys=True",
                                    "8: print"]
