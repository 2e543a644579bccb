"""Command-line front end: configuration, orchestration, reproducible output.

Seven commands: sieve, constants, selftest, density, predict, expand,
compare.  Every run emits a provenance block (tool version, resolved
config, sieve bound, tolerances) ahead of its payload; JSON payloads carry
a pinned schema_version.  Outputs are deterministic by construction: floats
are printed at 15 significant digits, dictionary keys are sorted, reduction
orders are fixed upstream, and no wall-clock value is recorded.  Files are
written atomically (temp file + rename) so a crashed run never leaves a
truncated artifact.

Option precedence is flags > config file > built-in defaults.  The config
file is flat key=value, keys matching the long option names with dashes
turned into underscores.  Exit codes: 0 success, 1 configuration error,
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

_CONFIG_ERRORS = (ValueError, OSError, KeyError)


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


def _json_doc(command: str, config: dict, extras: dict, result) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            "tool": "quadhecke",
            "version": __version__,
            "command": command,
            "config": config,
            **extras,
        },
        "result": result,
    }
    return _to_json(doc) + "\n"


def _csv_doc(command: str, config: dict, extras: dict,
             columns, rows: list[dict]) -> str:
    lines = [f"# quadhecke {__version__} {command}"]
    meta = {**config, **{k: v for k, v in extras.items()
                         if not isinstance(v, dict)}}
    for k in sorted(meta):
        lines.append(f"# {k}={meta[k]}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_float(float(row[c])) for c in columns))
    return "\n".join(lines) + "\n"


# --- config file / precedence ------------------------------------------------------

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


def _resolve(ns, cfg: dict[str, str], key: str, default, cast):
    flag = getattr(ns, key, None)
    if flag is not None:
        return flag
    if key in cfg:
        raw = cfg[key]
        if cast is bool:
            if raw.lower() not in ("true", "false"):
                raise _ConfigError(f"config key {key}: expected true/false")
            return raw.lower() == "true"
        return cast(raw)
    return default


def _parse_grid(spec: str) -> list[float]:
    try:
        xs = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError as exc:
        raise _ConfigError(f"bad X grid {spec!r}") from exc
    if not xs or not all(1.0 < x < math.inf for x in xs):
        raise _ConfigError(f"X grid needs finite values > 1: {spec!r}")
    return xs


# --- selftest ----------------------------------------------------------------------

def _cmd_selftest(ns, cfg) -> int:
    quick = bool(_resolve(ns, cfg, "quick", False, bool))
    scale = float(_resolve(ns, cfg, "tol_scale", 1.0, float))
    if scale <= 0.0:
        raise _ConfigError("tol-scale must be positive")
    out_path = _resolve(ns, cfg, "out", None, str)
    from . import checks  # loaded here so that other commands start without it
    tiers = ("quick",) if quick else ("quick", "full")
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
    config = {"quick": quick, "tol_scale": scale}
    extras = {"sieve_bound": 2 * 10 ** 5,
              "tolerances": {r["check"]: r["tolerance"] for r in report
                             if "tolerance" in r}}
    if out_path is not None:
        _emit(_json_doc("selftest", config, extras,
                        {"checks": report, "failures": failures}), out_path)
    sys.stdout.write(f"{len(report) - failures}/{len(report)} checks passed\n")
    if failures:
        raise _ToleranceError(f"{failures} selftest check(s) out of tolerance")
    return 0


# --- plain commands ----------------------------------------------------------------

def _cmd_sieve(ns, cfg) -> int:
    bound = int(_resolve(ns, cfg, "bound", 10 ** 4, int))
    if bound < 2:
        raise _ConfigError("sieve bound must be >= 2")
    out_path = _resolve(ns, cfg, "out", None, str)
    ctx = default_context()
    re_, im_, nm = zint.primary_squarefree_arrays(bound)
    n_primary = int(re_.size)
    norms = zint.prime_norms_up_to(bound)
    result = {
        "bound": bound,
        "n_primary_squarefree": n_primary,
        "n_family_with_units": 4 * n_primary,
        "n_prime_norms": int(norms.size),
        "largest_norm": int(nm[-1]) if n_primary else 0,
        "squarefree_density": phi_sf_partial(bound),
        "squarefree_density_limit": phi_sf_limit(ctx),
    }
    config = {"bound": bound}
    extras = {"sieve_bound": bound, "tolerances": {}}
    _emit(_json_doc("sieve", config, extras, result), out_path)
    return 0


def _cmd_constants(ns, cfg) -> int:
    out_path = _resolve(ns, cfg, "out", None, str)
    ctx = default_context()
    result = dict(constants_dict(ctx))
    result["gamma_K_series"] = gamma_K()
    result["zetaK_prime_0_from_gamma_K"] = (
        ctx.gamma_K / math.pi - (math.log(math.pi) + EULER_GAMMA) / 2.0)
    extras = {"sieve_bound": 10 ** 6, "tolerances": {}}
    _emit(_json_doc("constants", {}, extras, result), out_path)
    return 0


def _quadrature_grid(ns, cfg) -> tuple[float, float]:
    """(t_cap, panel_h) of the ratios integral, checked before any compute."""
    t_cap = float(_resolve(ns, cfg, "t_cap", ratios._T_CAP, float))
    h = float(_resolve(ns, cfg, "panel_h", ratios._PANEL_H, float))
    if not (0.0 < t_cap < math.inf and 0.0 < h < math.inf):
        raise _ConfigError(
            f"t-cap and panel-h need finite values > 0: {t_cap!r}, {h!r}")
    return t_cap, h


def _density_config(ns, cfg) -> tuple[DensityConfig, dict]:
    x = _resolve(ns, cfg, "x", None, float)
    if x is None:
        raise _ConfigError("--X is required")
    phi = _resolve(ns, cfg, "phi", "fejer:1.5", str)
    weight = _resolve(ns, cfg, "weight", "gaussian", str)
    r_mult = float(_resolve(ns, cfg, "r_mult", 4.0, float))
    threads = int(_resolve(ns, cfg, "threads", 1, int))
    test = parse_test_function(phi)
    wf = parse_weight(weight)
    dc = DensityConfig(float(x), test, wf, R=r_mult, threads=threads)
    config = {"phi": phi, "r_mult": r_mult, "threads": threads,
              "weight": weight, "x": float(x)}
    return dc, config


def _cmd_density(ns, cfg) -> int:
    out_path = _resolve(ns, cfg, "out", None, str)
    dc, config = _density_config(ns, cfg)
    rep = one_level_density(dc)
    extras = {"sieve_bound": int(dc.R * dc.X),
              "tolerances": {"prime_cutoff": float(dc.prime_cutoff)}}
    _emit(_json_doc("density", config, extras, rep.as_dict()), out_path)
    return 0


def _cmd_predict(ns, cfg) -> int:
    out_path = _resolve(ns, cfg, "out", None, str)
    first_only = bool(_resolve(ns, cfg, "first_order", False, bool))
    no_dual = bool(_resolve(ns, cfg, "no_dual", False, bool))
    t_cap, h = _quadrature_grid(ns, cfg)
    dc, config = _density_config(ns, cfg)
    config.update({"first_order": first_only, "no_dual": no_dual,
                   "panel_h": h, "t_cap": t_cap})
    ctx = default_context()
    if first_only:
        rep = ratios.ratios_first_order(dc, ctx)
    else:
        rep = ratios.ratios_density(dc, ctx, T=t_cap, h=h,
                                    with_dual=not no_dual)
    extras = {"sieve_bound": int(dc.R * dc.X),
              "tolerances": {"panel_h": h, "t_cap": t_cap}}
    _emit(_json_doc("predict", config, extras, rep.as_dict()), out_path)
    return 0


def _cmd_expand(ns, cfg) -> int:
    out_path = _resolve(ns, cfg, "out", None, str)
    m_order = int(_resolve(ns, cfg, "m_order", 2, int))
    phi = _resolve(ns, cfg, "phi", "fejer:1.5", str)
    weight = _resolve(ns, cfg, "weight", "gaussian", str)
    grid = _resolve(ns, cfg, "x_grid", None, str)
    route = _resolve(ns, cfg, "route", "analytic", str)
    cutoff = int(_resolve(ns, cfg, "cutoff", 10 ** 6, int))
    if route not in ("analytic", "sieve"):
        raise _ConfigError(f"bad route {route!r}")
    xs = None if grid is None else _parse_grid(grid)
    if xs is not None and min(xs) <= math.e:
        raise _ConfigError(f"expand needs X > e for J(X): {grid!r}")
    test = parse_test_function(phi)
    wf = parse_weight(weight)
    ctx = default_context()
    coeffs = expansion_coefficients(m_order, test, wf, ctx, cutoff, route)
    result = {"M": m_order, "coefficients": coeffs.as_rows()}
    if xs is not None:
        vals = []
        for x in xs:
            jv, je = J_X(x, test, wf, ctx)
            vals.append({"X": x, "J": jv, "J_err_bound": je,
                         "J_first_order": J_first_order(x, test, wf, ctx),
                         "thm_prediction": thm_prediction(x, coeffs, test)})
        result["grid"] = vals
    config = {"cutoff": cutoff, "m_order": m_order, "phi": phi,
              "route": route, "weight": weight}
    if grid is not None:
        config["x_grid"] = grid
    extras = {"sieve_bound": cutoff, "tolerances": {}}
    _emit(_json_doc("expand", config, extras, result), out_path)
    return 0


def _cmd_compare(ns, cfg) -> int:
    out_path = _resolve(ns, cfg, "out", None, str)
    fmt = _resolve(ns, cfg, "format", "csv", str)
    if fmt not in ("csv", "json"):
        raise _ConfigError(f"bad format {fmt!r}")
    grid_spec = _resolve(ns, cfg, "x_grid", "500,2000,8000", str)
    phi = _resolve(ns, cfg, "phi", "fejer:1.5", str)
    weight = _resolve(ns, cfg, "weight", "gaussian", str)
    r_mult = float(_resolve(ns, cfg, "r_mult", 4.0, float))
    threads = int(_resolve(ns, cfg, "threads", 1, int))
    m_order = int(_resolve(ns, cfg, "m_order", 2, int))
    t_cap, h = _quadrature_grid(ns, cfg)
    xs = _parse_grid(grid_spec)
    test = parse_test_function(phi)
    wf = parse_weight(weight)
    rows = ratios.compare(xs, test, wf, R=r_mult, threads=threads,
                          M=m_order, T=t_cap, h=h)
    config = {"format": fmt, "m_order": m_order, "panel_h": h, "phi": phi,
              "r_mult": r_mult, "t_cap": t_cap, "threads": threads,
              "weight": weight, "x_grid": grid_spec}
    extras = {"sieve_bound": int(r_mult * max(xs)),
              "tolerances": {"panel_h": h, "t_cap": t_cap}}
    if fmt == "csv":
        text = _csv_doc("compare", config, extras,
                        ratios.COMPARE_COLUMNS, rows)
    else:
        text = _json_doc("compare", config, extras, {"rows": rows})
    _emit(text, out_path)
    return 0


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

    def dens_flags(sp):
        sp.add_argument("--X", dest="x", type=float)
        sp.add_argument("--phi", help="fejer:SIGMA or bump:SIGMA")
        sp.add_argument("--weight", help="gaussian")
        sp.add_argument("--R-mult", dest="r_mult", type=float,
                        help="family norm bound as multiple of X")
        sp.add_argument("--threads", type=int)
        sp.add_argument("--out")

    sp = sub.add_parser("sieve", help="family and prime-norm sieve counts")
    sp.add_argument("--bound", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("constants", help="field constants")
    sp.add_argument("--out")

    sp = sub.add_parser("selftest", help="invariant suite; exit 2 on failure")
    sp.add_argument("--quick", action="store_const", const=True)
    sp.add_argument("--tol-scale", dest="tol_scale", type=float)
    sp.add_argument("--out")

    sp = sub.add_parser("density", help="explicit-formula one-level density")
    dens_flags(sp)

    sp = sub.add_parser("predict", help="ratios-conjecture prediction")
    dens_flags(sp)
    sp.add_argument("--first-order", dest="first_order",
                    action="store_const", const=True,
                    help="skip the axis integral")
    sp.add_argument("--no-dual", dest="no_dual",
                    action="store_const", const=True,
                    help="drop the dual term (ablation)")
    sp.add_argument("--T-cap", dest="t_cap", type=float)
    sp.add_argument("--panel-h", dest="panel_h", type=float)

    sp = sub.add_parser("expand", help="descending-log expansion coefficients")
    sp.add_argument("--M", dest="m_order", type=int)
    sp.add_argument("--phi")
    sp.add_argument("--weight")
    sp.add_argument("--X-grid", dest="x_grid")
    sp.add_argument("--route", choices=("analytic", "sieve"))
    sp.add_argument("--cutoff", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("compare", help="empirical vs predictions table")
    sp.add_argument("--X-grid", dest="x_grid")
    sp.add_argument("--phi")
    sp.add_argument("--weight")
    sp.add_argument("--R-mult", dest="r_mult", type=float)
    sp.add_argument("--threads", type=int)
    sp.add_argument("--M", dest="m_order", type=int)
    sp.add_argument("--T-cap", dest="t_cap", type=float)
    sp.add_argument("--panel-h", dest="panel_h", type=float)
    sp.add_argument("--format", choices=("csv", "json"))
    sp.add_argument("--out")
    return p


_COMMANDS = {
    "sieve": _cmd_sieve,
    "constants": _cmd_constants,
    "selftest": _cmd_selftest,
    "density": _cmd_density,
    "predict": _cmd_predict,
    "expand": _cmd_expand,
    "compare": _cmd_compare,
}


def run(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        cfg = _load_config(ns.config)
        return _COMMANDS[ns.command](ns, cfg)
    except _ConfigError as exc:
        sys.stderr.write(f"quadhecke: error[config]: {exc}\n")
        return 1
    except _ToleranceError as exc:
        sys.stderr.write(f"quadhecke: error[tolerance]: {exc}\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(f"quadhecke: error[tolerance]: {exc}\n")
        return 2
    except _CONFIG_ERRORS as exc:
        sys.stderr.write(f"quadhecke: error[config]: {exc}\n")
        return 1
    except Exception as exc:
        sys.stderr.write(f"quadhecke: error[internal]: {exc}\n")
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
