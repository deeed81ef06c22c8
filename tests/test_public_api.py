"""The public API: skewpairs.__all__ against the README's list, and no
unused import in a package module."""

import ast
import re
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
