"""Every function, class, method and module-level constant in src/quadhecke
has a caller or reader in the package or in perfbench, every attribute
assigned on self is read in the package, every parameter is read in its
function, and every default is overridden by some call; anything else is
dead code.  A test function's kind is read in transforms alone.
Test-only references
live in tests/oracles.py, and each of its definitions has a caller in a
test file."""

import ast
import importlib
import math
import os
import subprocess
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


def _self_attributes(paths) -> set[str]:
    """Attributes assigned on self."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            out.update(n.attr for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                       and n.value.id == "self")
    return out


def test_every_attribute_is_read():
    # src only: an attribute of the same name that perfbench reads on its
    # own objects must not count as a reader
    src = list(SRC.glob("*.py"))
    read = {n.attr for path in src for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = sorted(_self_attributes(src) - read)
    assert unread == [], f"assigned on self and never read in src/: {unread}"


# perfbench/worker.py passes ctx positionally to these six entry points, so
# each keeps an unread ctx slot until the benchmark calls them without it
# (ROADMAP item 7)
PERFBENCH_CTX_SLOTS = [
    "expansion.J_X(ctx)",
    "expansion.J_first_order(ctx)",
    "expansion.expansion_coefficients(ctx)",
    "expansion.kernel_tables(ctx)",
    "ratios.ratios_density(ctx)",
    "ratios.ratios_first_order(ctx)",
]


def _unread_parameters(paths) -> list[str]:
    """module.function(parameter) for each parameter, lambdas' included,
    that its function's body never reads; a method's self is fixed by the
    calling convention and not counted."""
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *(p for p in (a.vararg, a.kwarg) if p)]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            out += [f"{path.stem}.{name}({p.arg})" for p in params
                    if p.arg not in read | {"self"}]
    return sorted(out)


def test_every_parameter_is_read():
    assert _unread_parameters(SRC.glob("*.py")) == PERFBENCH_CTX_SLOTS


def _defaulted_parameters(paths) -> list[tuple[str, str, int | None, str]]:
    """(module, function, position or None, parameter) for each parameter
    with a default; the position counts from the first argument a call
    spells out, so a method's self is not counted."""
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = [*a.posonlyargs, *a.args]
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(a.defaults)
            out += [(path.stem, node.name, i - skip, p.arg)
                    for i, p in enumerate(positional) if i >= first]
            out += [(path.stem, node.name, None, p.arg)
                    for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _passes(paths) -> dict[str, list[tuple[int, set[str], bool]]]:
    """callee name -> (positional count, keywords, spreads) per call; a call
    through functools.partial counts as a call of its first argument, and
    *args or **kwargs in a call as passing everything."""
    out = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), node.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            spreads = (any(isinstance(x, ast.Starred) for x in args)
                       or any(k.arg is None for k in node.keywords))
            out.setdefault(name, []).append(
                (len(args), {k.arg for k in node.keywords}, spreads))
    return out


def test_every_default_is_passed():
    # a default that no call in src/, perfbench/ or tests/ overrides is a
    # constant dressed as a parameter.  checks.py is exempt by design: the
    # battery calls each entry with no argument, and the entry's defaults
    # are the case it checks
    calls = _passes([*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                     *(ROOT / "tests").glob("*.py")])
    never = []
    src = [path for path in SRC.glob("*.py") if path.stem != "checks"]
    for module, func, pos, param in _defaulted_parameters(src):
        if not any(spreads or param in kws or (pos is not None and n > pos)
                   for n, kws, spreads in calls.get(func, [])):
            never.append(f"{module}.{func}({param})")
    assert never == [], f"defaults that no call passes: {never}"


def test_kind_is_read_in_transforms_only():
    # which kind a test function is decides how transforms computes phi_hat,
    # its derivatives and its integrals; every other module asks
    # TestFunction for those.  checks.py is exempt: digamma_pair's Fejer
    # tail envelope is the check's own physics
    readers = sorted(f"{path.stem}.py:{node.lineno}" for path in SRC.glob("*.py")
                     if path.stem not in ("transforms", "checks")
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and node.attr == "kind"
                     and isinstance(node.ctx, ast.Load))
    assert readers == [], f"reads .kind outside transforms: {readers}"


def test_every_oracle_has_a_caller():
    oracles = ROOT / "tests" / "oracles.py"
    used = _uses((ROOT / "tests").glob("test_*.py"))
    dead = sorted(_definitions([oracles]) - used)
    assert dead == [], f"no caller in a test file: {dead}"


def _perfbench(*names):
    """The named perfbench modules, imported as the worker script sees them,
    and the package with every module loaded."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        mods = [importlib.import_module(name) for name in names]
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    import quadhecke.cli  # noqa: F401  (imports every module)
    return (*mods, sys.modules["quadhecke"])


def test_perfbench_trace_targets_resolve():
    # the span recorder patches each (owner, attribute) that trace_targets
    # names: a class attribute through vars(owner), so it must be defined on
    # that class itself, and a module attribute through getattr
    spans, worker, q = _perfbench("spans", "worker")
    targets = worker.trace_targets(q, spans.Tracer(), [])
    assert len(targets) >= 20
    for name, owner, attr, _ in targets:
        found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(found), f"{name}: {owner.__name__}.{attr} is gone"


def test_perfbench_in_process_workloads_run():
    # the benchmark's own calls, in its own order, at seed 0: a package
    # change that breaks one of them fails here, not only in the benchmark
    worker, q = _perfbench("worker")
    counts = {}
    for workload in (worker.RoutesWarm(q, 0), worker.DensityNarrow(q, 0)):
        workload.fill()
        ops, c = workload.check(workload.round())
        counts.update(c)
        for op in ops:
            assert math.isfinite(op["value"]), op
            if "agree" in op:
                assert abs(op["value"] - op["agree"]) <= 0.1, op
    assert counts == {
        "X=2000 n_points": 28800, "X=8000 n_points": 28800,
        "X=2000 n_norms": 1024, "X=8000 n_norms": 3793,
        "X=2000 family_size": 11116, "X=8000 family_size": 44468,
        **{f"{phi} {key}": n for phi in ("fejer:0.8", "bump:0.8")
           for key, n in (("family_size", 711696), ("primes_odd", 362),
                          ("primes_even", 28))},
    }


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


_ROUTE_ONE_RUN = """
import contextlib, io, sys
from quadhecke import cli, empirical, ratios, specfun, transforms
LAZY = ("scipy", "scipy.special", "scipy.sparse", "concurrent.futures")
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["--version"], ["density", "--X", "2000", "--phi", "fejer:0.8"],
                 ["predict", "--X", "2000", "--phi", "fejer:1.5", "--first-order"],
                 ["constants"]):
        try:
            assert cli.run(argv) == 0, argv
        except SystemExit as e:
            assert e.code == 0, argv
w = transforms.make_gaussian_weight()
for phi in ("fejer:0.8", "bump:0.8"):
    cfg = empirical.DensityConfig(128000.0, transforms.parse_test_function(phi), w,
                                  R=4.0, threads=1)
    empirical.one_level_density(cfg)
    ratios.ratios_first_order(cfg, specfun.default_context())
print(*[m for m in LAZY if m in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["predict", "--X", "500"]) == 0
print("scipy.special" in sys.modules)
"""


def test_cli_import_leaves_scipy_sparse_out():
    # route 1 needs no scipy and one thread needs no pool: start-up
    # (--version, constants), density, predict --first-order and the
    # density-narrow workload (one_level_density and ratios_first_order at
    # X = 128000) load neither; routes 2 and 3 load scipy.special at their
    # first call into it, as a cold predict shows
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", _ROUTE_ONE_RUN],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "True"]


def test_no_module_level_scipy_or_thread_pool_import():
    # scipy.special (about 0.2 s and 24 MB of start-up under scipy 1.17),
    # scipy.sparse and concurrent.futures are imported inside the functions
    # that call them, never at module level
    def at_import_time(node):
        # every statement that runs on import: function bodies do not
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield child
                yield from at_import_time(child)

    for path in sorted(SRC.glob("*.py")):
        for node in at_import_time(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in {"scipy", "concurrent"}, (
                    f"{path.name} imports {name} at module level")


def _imported_modules(path) -> set[str]:
    """The last dotted component of every module a file imports, and each
    name a bare relative import (`from . import x`) takes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[-1])
            if node.level and not node.module:
                names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[-1] for a in node.names)
    return names


def test_expansion_imports_no_route_module():
    # ratios imports expansion, so expansion importing ratios would be a
    # cycle; route 3 builds its d_m, J and c_wm from specfun, not from
    # route 2 or route 1
    names = _imported_modules(SRC / "expansion.py")
    assert not names & {"ratios", "empirical"}, f"expansion imports {names}"


def test_specfun_imports_no_route_module():
    # the axis profile that routes 2 and 3 both read lives in specfun, below
    # every route: specfun importing a route module would be a cycle
    names = _imported_modules(SRC / "specfun.py")
    assert not names & {"ratios", "expansion", "empirical"}, f"specfun imports {names}"
