"""Import hygiene.

Every name a module imports is referenced in it: a plain AST scan, so it
needs no linter.  Package ``__init__.py`` files re-export by importing,
and a line marked ``# noqa: F401`` is an intended re-export; both are
exempt.  And ``import gramsynth`` loads no scipy beyond ``scipy.linalg``'s
own needs.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = [p for d in ("src/gramsynth", "tests", "demos")
             for p in sorted((ROOT / d).glob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 10
    unused = [hit for p in files for hit in _unused_imports(p)]
    assert unused == []


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    heavy = ["scipy.interpolate", "scipy.special", "scipy.optimize",
             "scipy.sparse"]
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import gramsynth; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert res.stdout.strip() == "[]"
