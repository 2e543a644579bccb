"""Every function, class and method in src/quadhecke has a caller in the
package or in perfbench, or is a reference that a named test compares
production code against.  Anything else is dead code."""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quadhecke"

# name -> the test that compares production code against it
TEST_REFERENCES = {
    "s_total_family_outer": "test_prime_split_inert_decomposition",
    "A_alpha_diag": "test_A_alpha_diag_it_matches_scalar",
    "moebius": "test_mobius_by_norm_brute",
    "primary_associate": "test_primes_above_matches_one_prime_form",
    "ratios_integrand": "test_integrand_is_the_profile_bracket",
}


def _definitions() -> set[str]:
    """Module-level functions and classes, and their non-dunder methods."""
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.add(node.name)
            if isinstance(node, ast.ClassDef):
                out.update(item.name for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("__"))
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


def _test_functions() -> set[str]:
    return {node.name
            for path in (ROOT / "tests").glob("test_*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_every_name_has_a_caller_or_a_reference():
    used = _uses([*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
    dead = sorted(_definitions() - used - set(TEST_REFERENCES))
    assert dead == [], f"no caller in src/ or perfbench/ and no reference test: {dead}"


def test_references_are_live():
    # each entry names a defined reference without a production caller and a
    # test that exists, so the mapping cannot go stale
    used = _uses([*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
    assert set(TEST_REFERENCES) <= _definitions()
    assert not set(TEST_REFERENCES) & used
    assert set(TEST_REFERENCES.values()) <= _test_functions()


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
