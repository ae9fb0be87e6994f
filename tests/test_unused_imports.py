"""No module-level import may go unused.

The project runs no linter, so this scan stands in for one: every name a
module binds by a top-level ``import`` must be read somewhere in that
module.  Package ``__init__`` files are skipped, since their imports are
the public API they re-export.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/gordankit", "scripts", "tests")


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.relative_to(ROOT)}:{stmt.lineno} {bound}")
    return unused


def test_no_unused_module_level_imports():
    files = [f for d in SCANNED for f in sorted((ROOT / d).glob("*.py")) if f.name != "__init__.py"]
    assert files
    unused = [entry for f in files for entry in _unused_imports(f)]
    assert not unused, unused
