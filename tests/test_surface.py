"""Every function, class, method and module-level constant in src/quadhecke
has a caller or reader in the package or in perfbench; anything else is
dead code.  Test-only references
live in tests/oracles.py, and each of its definitions has a caller in a
test file."""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quadhecke"


def _definitions(paths) -> set[str]:
    """Module-level functions and classes, and their non-dunder methods."""
    out = set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.add(node.name)
            if isinstance(node, ast.ClassDef):
                out.update(item.name for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("__"))
    return out


def _constants(paths) -> set[str]:
    """Non-dunder names bound by module-level assignments."""
    out = set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            out.update(n.id for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name) and not n.id.startswith("__"))
    return out


def _uses(paths) -> set[str]:
    """Names read as a Name or an Attribute, or spelled as a string (perfbench
    patches functions by attribute-name strings)."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_every_name_has_a_caller():
    used = _uses([*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
    dead = sorted((_definitions(SRC.glob("*.py")) | _constants(SRC.glob("*.py"))) - used)
    assert dead == [], f"no caller or reader in src/ or perfbench/: {dead}"


def test_every_oracle_has_a_caller():
    oracles = ROOT / "tests" / "oracles.py"
    used = _uses((ROOT / "tests").glob("test_*.py"))
    dead = sorted(_definitions([oracles]) - used)
    assert dead == [], f"no caller in a test file: {dead}"


def test_perfbench_trace_targets_resolve():
    # the span recorder patches each (owner, attribute) that trace_targets
    # names: a class attribute through vars(owner), so it must be defined on
    # that class itself, and a module attribute through getattr
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spans = importlib.import_module("spans")
        worker = importlib.import_module("worker")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    import quadhecke.cli  # noqa: F401  (imports every module)
    q = sys.modules["quadhecke"]
    targets = worker.trace_targets(q, spans.Tracer(), [])
    assert len(targets) >= 20
    for name, owner, attr, _ in targets:
        found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(found), f"{name}: {owner.__name__}.{attr} is gone"


def test_numerics_imports_no_package_module():
    # _numerics holds the helpers that know nothing about number fields: it
    # imports no quadhecke module, relatively or by name
    tree = ast.parse((SRC / "_numerics.py").read_text())
    inside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "quadhecke":
                inside.append(f"from {'.' * node.level}{node.module or ''}")
        elif isinstance(node, ast.Import):
            inside += [a.name for a in node.names if a.name.split(".")[0] == "quadhecke"]
    assert inside == [], f"_numerics imports from the package: {inside}"
