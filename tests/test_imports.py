"""Import hygiene.

Every name a module imports is referenced in it: a plain AST scan, so it
needs no linter.  Package ``__init__.py`` files re-export by importing,
and a line marked ``# noqa: F401`` is an intended re-export; both are
exempt.  Every module-level private name (``_x``) defined in
``src/gramsynth`` is referenced somewhere in ``src/gramsynth``, so a
deletion leaves no orphaned helper or constant behind.  Every
`GramsynthError` subclass is raised somewhere in ``src/gramsynth``, so a
retired error type does not linger.  And ``import gramsynth`` loads no
scipy beyond ``scipy.linalg``'s own needs.
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


def _private_definitions(tree):
    """Module-level ``_x`` names bound by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.update(t.id for target in targets
                         for t in ast.walk(target) if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree):
    """Names read, attributes accessed and names imported in ``tree``."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_no_unreferenced_private_names():
    trees = {p: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "gramsynth").glob("*.py"))}
    referenced = set().union(*(_references(t) for t in trees.values()))
    orphans = sorted(f"{p.relative_to(ROOT)}: {name}"
                     for p, tree in trees.items()
                     for name in _private_definitions(tree)
                     if name not in referenced)
    assert len(trees) > 10
    assert orphans == []


def test_every_error_type_is_raised():
    src = ROOT / "src" / "gramsynth"
    errors = {"GramsynthError"}
    for node in ast.parse((src / "errors.py").read_text()).body:
        bases = {b.id for b in getattr(node, "bases", ())
                 if isinstance(b, ast.Name)}
        if isinstance(node, ast.ClassDef) and bases & errors:
            errors.add(node.name)
    errors.discard("GramsynthError")
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert len(errors) >= 8
    assert sorted(errors - raised) == []


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    heavy = ["scipy.interpolate", "scipy.special", "scipy.optimize",
             "scipy.sparse"]
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import gramsynth; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert res.stdout.strip() == "[]"
