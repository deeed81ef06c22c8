"""The public API: skewpairs.__all__ against the README's list, and no
unused import in a package module, and no private function that only the
tests call."""

import ast
import re
from collections import Counter
from pathlib import Path

import skewpairs

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(skewpairs.__file__).resolve().parent


def _readme_api() -> list[str]:
    """The names listed in the README's "Public API" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)`", section, flags=re.M)


def test_all_is_the_readme_public_api():
    listed = _readme_api()
    assert len(listed) == len(set(listed)), listed
    assert set(listed) == set(skewpairs.__all__)
    assert len(skewpairs.__all__) == len(set(skewpairs.__all__))
    for name in skewpairs.__all__:
        assert getattr(skewpairs, name).__module__.startswith("skewpairs."), name


def test_package_modules_use_every_name_they_import():
    # __init__.py imports to re-export; every other module imports to use.
    checked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))
        checked += 1
    assert checked == 6


def _references(tree: ast.AST) -> Counter:
    """Each name a tree reads, as a name or an attribute, with its count."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_package_code_calls_every_private_function_it_defines():
    # README's Public API rule: a helper that only the tests call lives in
    # tests/.  So each private top-level function and private method of a
    # package module is read somewhere in package code outside its own body.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    read = sum(map(_references, trees.values()), Counter())
    checked, unread = 0, []
    for name, tree in trees.items():
        defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [node for cls in defs if isinstance(cls, ast.ClassDef) for node in cls.body]
        for node in defs:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.endswith("__"):
                checked += 1
                if read[node.name] <= _references(node)[node.name]:
                    unread.append(f"{name}:{node.name}")
    assert unread == [] and checked > 50, (unread, checked)
