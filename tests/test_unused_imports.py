"""Every imported name is read: a module that imports a name it never uses
fails with ``file:line name``.  Package ``__init__`` files re-export their
imports, so they are left out."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src/popref", "tests", "demos")


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    files = sorted(path for folder in CHECKED for path in (ROOT / folder).rglob("*.py")
                   if path.name != "__init__.py")
    assert files
    unused = [line for path in files for line in _unused_imports(path)]
    assert not unused, "\n".join(unused)
