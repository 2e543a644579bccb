"""Command-line front end: configuration, orchestration, reproducible output.

Seven commands: sieve, constants, selftest, density, predict, expand,
compare.  Every run emits a provenance block (tool version, resolved
config, sieve bound, tolerances) ahead of its payload; JSON payloads carry
a pinned schema_version.  Outputs are deterministic by construction: floats
are printed at 15 significant digits, dictionary keys are sorted, reduction
orders are fixed upstream, and no wall-clock value is recorded.  Files are
written atomically (temp file + rename) so a crashed run never leaves a
truncated artifact.

Each option is declared once, in `_OPTIONS`; each command lists the options
it takes with their defaults.  Precedence is flag > config file > default.
The config file is flat key=value, keyed like the provenance `config` (x,
r_mult, t_cap, panel_h, m_order, x_grid, ...), not by flag name, with dashes
accepted for underscores; a key the command does not take is a
configuration error.  Exit codes: 0 success, 1 configuration error,
2 numerical tolerance failure, 3 unexpected internal error.  Errors go to
stderr with the prefix `quadhecke: error[config]:`, `[tolerance]:`, or
`[internal]:`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, ratios, zint
from .empirical import DensityConfig, one_level_density
from .expansion import (expansion_coefficients, J_X, J_first_order,
                        phi_sf_limit, phi_sf_partial, thm_prediction)
from .specfun import EULER_GAMMA, default_context, constants_dict, gamma_K
from .transforms import parse_test_function, parse_weight

SCHEMA_VERSION = 1


class _ConfigError(Exception):
    pass


class _ToleranceError(Exception):
    pass


# --- deterministic serialization ---------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise _ToleranceError(f"non-finite value {x!r} in output")
    if x == 0.0:
        return "0"
    return "%.15g" % x


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(f'{inner}"{k}": {_to_json(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if obj is None:
        return "null"
    raise _ToleranceError(f"unserializable value {obj!r}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".quadhecke-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config(opts: dict) -> dict:
    """The provenance record: every resolved option but `out`, none unset."""
    return {k: v for k, v in opts.items() if k != "out" and v is not None}


def _json_doc(command: str, opts: dict, extras: dict, result) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            "tool": "quadhecke",
            "version": __version__,
            "command": command,
            "config": _config(opts),
            **extras,
        },
        "result": result,
    }
    return _to_json(doc) + "\n"


def _csv_doc(command: str, opts: dict, extras: dict,
             columns, rows: list[dict]) -> str:
    lines = [f"# quadhecke {__version__} {command}"]
    meta = {**_config(opts), **{k: v for k, v in extras.items()
                                if not isinstance(v, dict)}}
    for k in sorted(meta):
        lines.append(f"# {k}={meta[k]}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_float(float(row[c])) for c in columns))
    return "\n".join(lines) + "\n"


# --- options ----------------------------------------------------------------------

# key: (flag, type or allowed strings, help); the key is the option's config file
# and provenance key.  Flags carry no defaults: an unset flag reads None.
_OPTIONS = {
    "x": ("--X", float, "family norm scale X"),
    "phi": ("--phi", str, "test function, fejer:SIGMA or bump:SIGMA"),
    "weight": ("--weight", str, "family weight: gaussian"),
    "r_mult": ("--R-mult", float, "family norm bound as multiple of X"),
    "threads": ("--threads", int, "threads of the prime and member loops"),
    "bound": ("--bound", int, "norm bound of the census"),
    "quick": ("--quick", bool, "run the quick tier alone"),
    "tol_scale": ("--tol-scale", float, "factor on every check's tolerance"),
    "first_order": ("--first-order", bool, "skip the axis integral"),
    "no_dual": ("--no-dual", bool, "drop the dual term (ablation)"),
    "t_cap": ("--T-cap", float, "truncation T of the axis integral"),
    "panel_h": ("--panel-h", float, "GL-12 panel width of the axis integral"),
    "m_order": ("--M", int, "number of 1/log X coefficients"),
    "x_grid": ("--X-grid", str, "comma-separated X values"),
    "route": ("--route", ("analytic", "sieve"), "route of the d_m coefficients"),
    "cutoff": ("--cutoff", int, "prime-norm cutoff of the d_m sums"),
    "format": ("--format", ("csv", "json"), "output format"),
    "out": ("--out", str, "write the document here, atomically"),
}

_PHI_WEIGHT = {"phi": "fejer:1.5", "weight": "gaussian"}
_FAMILY = {"x": None, **_PHI_WEIGHT, "r_mult": 4.0, "threads": 1}
_GRID = {"t_cap": ratios._T_CAP, "panel_h": ratios._PANEL_H}

# command: the option keys it takes, with their defaults
_TAKES = {
    "sieve": {"bound": 10 ** 4, "out": None},
    "constants": {"out": None},
    "selftest": {"quick": False, "tol_scale": 1.0, "out": None},
    "density": {**_FAMILY, "out": None},
    "predict": {**_FAMILY, "first_order": False, "no_dual": False, **_GRID, "out": None},
    "expand": {"m_order": 2, **_PHI_WEIGHT, "x_grid": None, "route": "analytic",
               "cutoff": 10 ** 6, "out": None},
    "compare": {"x_grid": "500,2000,8000", **_PHI_WEIGHT, "r_mult": 4.0, "threads": 1,
                "m_order": 2, **_GRID, "format": "csv", "out": None},
}


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise _ConfigError(f"{path}:{lineno}: expected key=value")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _resolve(ns, cfg: dict[str, str]) -> dict:
    """Each option the command takes: its flag, else its config key (cast by
    its type in `_OPTIONS`), else the command's default."""
    takes = _TAKES[ns.command]
    for key in cfg:
        if key not in takes:
            raise _ConfigError(f"config key {key}: not an option of {ns.command}")
    opts = {}
    for key, default in takes.items():
        value, raw, kind = getattr(ns, key), cfg.get(key), _OPTIONS[key][1]
        if value is None and raw is not None:
            allowed = ("true", "false") if kind is bool else kind
            text = raw.lower() if kind is bool else raw
            if isinstance(allowed, tuple) and text not in allowed:
                raise _ConfigError(f"config key {key}: expected {'/'.join(allowed)}")
            value = (text == "true" if kind is bool
                     else text if isinstance(kind, tuple) else kind(raw))
        opts[key] = default if value is None else value
    return opts


def _parse_grid(spec: str) -> list[float]:
    try:
        xs = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError as exc:
        raise _ConfigError(f"bad X grid {spec!r}") from exc
    if not xs or not all(1.0 < x < math.inf for x in xs):
        raise _ConfigError(f"X grid needs finite values > 1: {spec!r}")
    return xs


# --- commands: resolved options in, document out; the docstring is the help line ---

def _cmd_selftest(opts) -> str:
    """invariant suite; exit 2 on failure"""
    scale = opts["tol_scale"]
    if not 0.0 < scale < math.inf:
        raise _ConfigError(f"tol-scale needs a finite value > 0: {scale!r}")
    from . import checks  # loaded here so that other commands start without it
    tiers = ("quick",) if opts["quick"] else ("quick", "full")
    failures = 0
    report = []
    for name, tier, fn in checks.CHECKS:
        if tier not in tiers:
            continue
        try:
            residual, tol = fn()
        except ArithmeticError as exc:
            # a check that raises has failed; the rest still run
            failures += 1
            report.append({"check": name, "error": str(exc), "ok": False})
            sys.stdout.write(f"FAIL {name:28s} raised: {exc}\n")
            continue
        residual, tol = float(abs(residual)), float(tol)
        ok = residual <= tol * scale
        failures += 0 if ok else 1
        report.append({"check": name, "residual": residual,
                       "tolerance": tol * scale, "ok": ok})
        sys.stdout.write(
            f"{'ok  ' if ok else 'FAIL'} {name:28s} "
            f"residual {_fmt_float(residual):>12s}  tol {_fmt_float(tol * scale)}\n")
    extras = {"sieve_bound": 2 * 10 ** 5,
              "tolerances": {r["check"]: r["tolerance"] for r in report
                             if "tolerance" in r}}
    # the report goes to the out file only; stdout carries the table above
    doc = "" if opts["out"] is None else _json_doc(
        "selftest", opts, extras, {"checks": report, "failures": failures})
    sys.stdout.write(f"{len(report) - failures}/{len(report)} checks passed\n")
    if failures:
        _emit(doc, opts["out"])  # a failing run still leaves its report
        raise _ToleranceError(f"{failures} selftest check(s) out of tolerance")
    return doc


def _cmd_sieve(opts) -> str:
    """family and prime-norm sieve counts"""
    bound = opts["bound"]
    if bound < 2:
        raise _ConfigError("sieve bound must be >= 2")
    re_, im_, nm = zint.primary_squarefree_arrays(bound)
    n_primary = int(re_.size)
    result = {
        "bound": bound,
        "n_primary_squarefree": n_primary,
        "n_family_with_units": 4 * n_primary,
        "n_prime_norms": int(zint.prime_norms_up_to(bound).size),
        "largest_norm": int(nm[-1]) if n_primary else 0,
        "squarefree_density": phi_sf_partial(bound),
        "squarefree_density_limit": phi_sf_limit(),
    }
    extras = {"sieve_bound": bound, "tolerances": {}}
    return _json_doc("sieve", opts, extras, result)


def _cmd_constants(opts) -> str:
    """field constants"""
    ctx = default_context()
    result = dict(constants_dict(ctx))
    result["gamma_K_series"] = gamma_K()
    result["zetaK_prime_0_from_gamma_K"] = (
        ctx.gamma_K / math.pi - (math.log(math.pi) + EULER_GAMMA) / 2.0)
    extras = {"sieve_bound": 10 ** 6, "tolerances": {}}
    return _json_doc("constants", opts, extras, result)


def _check_grid(opts) -> dict:
    """The ratios integral's grid as tolerances, checked before any compute."""
    t_cap, h = opts["t_cap"], opts["panel_h"]
    if not (0.0 < t_cap < math.inf and 0.0 < h < math.inf):
        raise _ConfigError(
            f"t-cap and panel-h need finite values > 0: {t_cap!r}, {h!r}")
    return {"panel_h": h, "t_cap": t_cap}


def _density_config(opts) -> DensityConfig:
    if opts["x"] is None:
        raise _ConfigError(f"{_OPTIONS['x'][0]} is required")
    test, wf = parse_test_function(opts["phi"]), parse_weight(opts["weight"])
    return DensityConfig(opts["x"], test, wf, R=opts["r_mult"], threads=opts["threads"])


def _cmd_density(opts) -> str:
    """explicit-formula one-level density"""
    dc = _density_config(opts)
    rep = one_level_density(dc)
    extras = {"sieve_bound": int(dc.R * dc.X),
              "tolerances": {"prime_cutoff": float(dc.prime_cutoff)}}
    return _json_doc("density", opts, extras, rep.as_dict())


def _cmd_predict(opts) -> str:
    """ratios-conjecture prediction"""
    if opts["first_order"]:  # the closed form reads no quadrature grid, no dual term
        opts.update(no_dual=None, panel_h=None, t_cap=None)
        tolerances, dc = {}, _density_config(opts)
        rep = ratios.ratios_first_order(dc)
    else:
        tolerances, dc = _check_grid(opts), _density_config(opts)
        rep = ratios.ratios_density(dc, T=opts["t_cap"], h=opts["panel_h"],
                                    with_dual=not opts["no_dual"])
    extras = {"sieve_bound": int(dc.R * dc.X), "tolerances": tolerances}
    return _json_doc("predict", opts, extras, rep.as_dict())


def _cmd_expand(opts) -> str:
    """descending-log expansion coefficients"""
    grid = opts["x_grid"]
    xs = [] if grid is None else _parse_grid(grid)
    if xs and min(xs) <= math.e:
        raise _ConfigError(f"expand needs X > e for J(X): {grid!r}")
    test, wf = parse_test_function(opts["phi"]), parse_weight(opts["weight"])
    coeffs = expansion_coefficients(opts["m_order"], test, wf,
                                    cutoff=opts["cutoff"], route=opts["route"])
    result = {"M": opts["m_order"], "coefficients": coeffs.as_rows()}
    for x in xs:
        jv, je = J_X(x, test, wf)
        result.setdefault("grid", []).append(
            {"X": x, "J": jv, "J_err_bound": je,
             "J_first_order": J_first_order(x, test, wf),
             "thm_prediction": thm_prediction(x, coeffs, test)})
    extras = {"sieve_bound": opts["cutoff"], "tolerances": {}}
    return _json_doc("expand", opts, extras, result)


def _cmd_compare(opts) -> str:
    """empirical vs predictions table"""
    tolerances = _check_grid(opts)
    xs = _parse_grid(opts["x_grid"])
    rows = ratios.compare(xs, parse_test_function(opts["phi"]),
                          parse_weight(opts["weight"]), R=opts["r_mult"],
                          threads=opts["threads"], M=opts["m_order"],
                          T=opts["t_cap"], h=opts["panel_h"])
    extras = {"sieve_bound": int(opts["r_mult"] * max(xs)),
              "tolerances": tolerances}
    if opts["format"] == "csv":
        return _csv_doc("compare", opts, extras, ratios.COMPARE_COLUMNS, rows)
    return _json_doc("compare", opts, extras, {"rows": rows})


# --- argument parsing ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="quadhecke", description=__doc__.splitlines()[0])
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--version", action="version",
                   version=f"quadhecke {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for command, takes in _TAKES.items():
        sp = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        for key in takes:
            flag, kind, text = _OPTIONS[key]
            how = ({"action": "store_const", "const": True} if kind is bool
                   else {"choices": kind} if isinstance(kind, tuple)
                   else {"type": kind})
            sp.add_argument(flag, dest=key, help=text, **how)
    return p


_COMMANDS = {"sieve": _cmd_sieve, "constants": _cmd_constants,
             "selftest": _cmd_selftest, "density": _cmd_density,
             "predict": _cmd_predict, "expand": _cmd_expand,
             "compare": _cmd_compare}


def run(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        opts = _resolve(ns, _load_config(ns.config))
        _emit(_COMMANDS[ns.command](opts), opts["out"])
        return 0
    except (_ToleranceError, ArithmeticError) as exc:
        sys.stderr.write(f"quadhecke: error[tolerance]: {exc}\n")
        return 2
    except (_ConfigError, ValueError, OSError) as exc:
        sys.stderr.write(f"quadhecke: error[config]: {exc}\n")
        return 1
    except Exception as exc:
        sys.stderr.write(f"quadhecke: error[internal]: {exc}\n")
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
