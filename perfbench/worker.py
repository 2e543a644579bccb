"""Benchmark worker: one workload of quadhecke in this process.

Started by run.py with PYTHONPATH pointing at the checkout's src and the
BLAS thread count fixed; it writes one JSON document to --out.  Modes:

  --host-only        report numpy, scipy and BLAS versions
  --setup-only       time import, default_context() and input construction
  --trace 0          set-up, then measured rounds until --seconds have passed
  --trace 1          traced set-up, one untraced measured pass, one traced
                     measured pass (compare-cli: one traced cli.run)

Every measured call runs with threads=1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

from spans import Tracer  # noqa: E402  (the script's directory is on sys.path)
from workloads import PHIS, compare_argv, x_values  # noqa: E402


def _key(x: float, what: str) -> str:
    return f"X={x:.15g} {what}"


def _import_package(root: Path):
    import quadhecke.cli  # noqa: F401  (imports every module)
    import quadhecke
    src = (root / "src").resolve()
    if src not in Path(quadhecke.__file__).resolve().parents:
        raise SystemExit(f"quadhecke imported from {quadhecke.__file__}, not {src}")
    return sys.modules["quadhecke"]


# --- workloads ----------------------------------------------------------------------

class DensityNarrow:
    """one_level_density at large X in the restricted-support regime."""

    def __init__(self, q, seed: int):
        self.q = q
        self.ctx = q.specfun.default_context()
        w = q.transforms.make_gaussian_weight()
        (x,) = x_values("density-narrow", seed)
        self.cfgs = [(phi, q.empirical.DensityConfig(
            x, q.transforms.parse_test_function(phi), w, R=4.0, threads=1))
            for phi in PHIS["density-narrow"]]

    def fill(self):
        pass

    def round(self):
        return [(phi, self.q.empirical.one_level_density(cfg))
                for phi, cfg in self.cfgs]

    def check(self, out):
        ops, counts = [], {}
        for phi, rep in out:
            cfg = dict(self.cfgs)[phi]
            fo = self.q.ratios.ratios_first_order(cfg, self.ctx).D_ratios_first_order
            ops += [{"key": f"{phi} D_total", "value": rep.D_total, "agree": fo},
                    {"key": f"{phi} S_odd", "value": rep.S_odd},
                    {"key": f"{phi} S_even", "value": rep.S_even}]
            counts[f"{phi} family_size"] = rep.family_size
            counts[f"{phi} primes_odd"] = rep.primes_odd
            counts[f"{phi} primes_even"] = rep.primes_even
        return ops, counts


class RoutesWarm:
    """Warm per-X ratios and expansion routes after the cold builds."""

    def __init__(self, q, seed: int):
        self.q = q
        self.ctx = q.specfun.default_context()
        self.w = q.transforms.make_gaussian_weight()
        self.tf = q.transforms.parse_test_function("fejer:1.5")
        self.cfgs = [q.empirical.DensityConfig(x, self.tf, self.w, R=4.0, threads=1)
                     for x in x_values("routes-warm", seed)]
        self.cold = None
        self.coeffs = None

    def fill(self):
        q, ctx = self.q, self.ctx
        self.cold = q.ratios.ratios_density(self.cfgs[0], ctx)
        q.expansion.kernel_tables(self.w, ctx)
        self.coeffs = q.expansion.expansion_coefficients(2, self.tf, self.w, ctx)

    def round(self):
        q, ctx, tf, w = self.q, self.ctx, self.tf, self.w
        out = []
        for cfg in self.cfgs:
            rep = q.ratios.ratios_density(cfg, ctx)
            jv, je = q.expansion.J_X(cfg.X, tf, w, ctx)
            jfo = q.expansion.J_first_order(cfg.X, tf, w, ctx)
            thm = q.expansion.thm_prediction(cfg.X, self.coeffs, tf)
            out.append((cfg.X, rep, jv, je, jfo, thm))
        return out

    def check(self, out):
        c = self.cold
        ops = [{"key": _key(c.X, "D_ratios_integral cold"),
                "value": c.D_ratios_integral, "tol": c.max_error,
                "agree": c.D_ratios_first_order}]
        counts = {}
        for x, rep, jv, je, jfo, thm in out:
            ops += [{"key": _key(x, "D_ratios_integral"), "value": rep.D_ratios_integral,
                     "tol": rep.max_error, "agree": rep.D_ratios_first_order},
                    {"key": _key(x, "J"), "value": jv, "tol": je, "agree": jfo}]
            counts[_key(x, "n_points")] = rep.n_points
            counts[_key(x, "n_norms")] = rep.n_norms
            counts[_key(x, "family_size")] = rep.family_size
        return ops, counts


IN_PROCESS = {"density-narrow": DensityNarrow, "routes-warm": RoutesWarm}


# --- tracing ------------------------------------------------------------------------

def _add(key, n_of):
    def count(counts, args, kwargs, out):
        counts[key] += n_of(args, kwargs, out)
    return count


def _s_odd_count(counts, args, kwargs, out):
    fam = args[1] if len(args) > 1 else kwargs.get("fam")
    counts["empirical.s_odd.primes"] += out[1]
    if fam is not None:
        counts["empirical.s_odd.symbol_evals"] += out[1] * int(fam.re.size)


def _family_count(counts, args, kwargs, out):
    with_mu = args[1] if len(args) > 1 else kwargs.get("with_mu", False)
    if not with_mu:
        counts["zint.family_members"] += 4 * int(out[0].size)


def trace_targets(q, tracer: Tracer, seen: list):
    """(span name, owner, attribute, count) for every traced function.

    `seen` collects (request, span name, call result) for the calls whose
    results carry work counts or error bounds.
    """
    import numpy as np

    def keep(name, extra=None):
        def count(counts, args, kwargs, out):
            seen.append((tracer.request, name, args, out))
            if extra is not None:
                extra(counts, args, kwargs, out)
        return count

    def ratios_count(counts, args, kwargs, out):
        counts["ratios.n_norms"] += out.n_norms
        counts["ratios.dual_phase_evals"] += out.n_points * out.n_norms

    points = lambda i: lambda args, kwargs, out: int(np.size(args[i]))  # noqa: E731
    emp, spec, exp = q.empirical, q.specfun, q.expansion
    return [
        ("zint.family_sieve", q.zint, "primary_squarefree_arrays", _family_count),
        ("empirical.one_level_density", emp, "one_level_density",
         keep("empirical.one_level_density")),
        ("empirical.s_odd", emp, "s_odd", _s_odd_count),
        ("empirical.s_even", emp, "s_even",
         _add("empirical.s_even.primes", lambda a, k, out: out[1])),
        ("empirical.digamma_integral", emp, "digamma_integral_term", None),
        ("specfun.hurwitz", spec, "hurwitz", _add("specfun.hurwitz.points", points(0))),
        ("specfun.zeta_K", spec, "zeta_K", None),
        ("specfun.zeta_K_log_deriv", spec, "zeta_K_log_deriv", None),
        ("specfun.A_alpha_diag_it", spec, "A_alpha_diag_it", None),
        ("specfun.A_closed_mr", spec, "A_closed_mr", None),
        ("specfun.digamma", spec, "digamma", None),
        ("ratios.ratios_density", q.ratios, "ratios_density",
         keep("ratios.ratios_density", ratios_count)),
        ("transforms.bessel_j0", q.transforms, "bessel_j0",
         _add("transforms.bessel_j0.points", points(0))),
        ("transforms.w_tilde", q.transforms.WeightFunction, "w_tilde", None),
        ("expansion.kernel_tables", exp, "kernel_tables", None),
        ("expansion.J_X", exp, "J_X", None),
        ("expansion.H1", exp._KernelTables, "H1", None),
        ("expansion.H2", exp._KernelTables, "H2",
         _add("expansion.H2.calls", lambda a, k, out: 1)),
        ("expansion.c_w_coefficients", exp, "c_w_coefficients", None),
        ("expansion.d_coefficients", exp, "d_coefficients", None),
        ("expansion.expansion_coefficients", exp, "expansion_coefficients",
         keep("expansion.expansion_coefficients")),
        ("numerics.cubic_table", q._numerics.CubicTable, "__call__",
         _add("numerics.cubic_table.points", points(1))),
    ]


LAYERS = ("cli", "zint", "empirical", "specfun", "transforms", "numerics",
          "ratios", "expansion", "bench")

TIMED = ("zint.family_sieve", "empirical.s_odd", "empirical.s_even",
         "empirical.digamma_integral", "specfun.hurwitz", "specfun.zeta_K",
         "specfun.zeta_K_log_deriv", "specfun.A_alpha_diag_it",
         "specfun.A_closed_mr", "specfun.digamma", "transforms.bessel_j0",
         "transforms.w_tilde", "expansion.kernel_tables", "expansion.J_X",
         "expansion.H1", "expansion.H2", "expansion.c_w_coefficients",
         "expansion.d_coefficients", "numerics.cubic_table")

COUNTED = ("zint.family_members", "empirical.s_odd.primes",
           "empirical.s_odd.symbol_evals", "empirical.s_even.primes",
           "specfun.hurwitz.points", "ratios.n_norms", "ratios.dual_phase_evals",
           "transforms.bessel_j0.points", "expansion.H2.calls",
           "numerics.cubic_table.points")


def layer_metrics(tracer: Tracer, seen: list, wall: float, measured: tuple) -> dict:
    """Per-layer metrics over the set-up and measured requests.

    `wall` is the traced wall time that the self times of the spans in the
    `measured` requests should add up to.
    """
    reqs = ("startup", "setup", "measure")
    inc = tracer.inclusive(reqs)
    own = tracer.self_times(reqs)
    m = {f"{name}_s": inc.get(name, 0.0) for name in TIMED}
    m.update({name: tracer.counts.get(name, 0) for name in COUNTED})
    m["cli.startup_s"] = inc.get("cli.startup", 0.0)
    m["empirical.one_level_density.self_s"] = own.get("empirical.one_level_density", 0.0)
    m["empirical.s_odd.symbols_per_s"] = (
        m["empirical.s_odd.symbol_evals"] / m["empirical.s_odd_s"]
        if m["empirical.s_odd_s"] > 0 else 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items()
                                   if k.split(".")[0] == layer)

    # the first ratios_density call in the process builds the axis profile;
    # its excess over a warm call at the same X is the profile's cost
    calls = [(req, args[0].X, out.n_points) for req, name, args, out in seen
             if name == "ratios.ratios_density"]
    durs = tracer.durations("ratios.ratios_density", reqs + ("probe",))
    cold = durs[0] if durs else 0.0
    warm_same_x = [d for (req, x, _), d in zip(calls[1:], durs[1:])
                   if calls and x == calls[0][1]]
    m["ratios.ratios_density.cold_s"] = cold
    m["ratios.ratios_density.warm_s"] = sum(
        d for (req, _, _), d in zip(calls[1:], durs[1:]) if req != "probe")
    m["ratios.axis_profile_s"] = cold - warm_same_x[0] if warm_same_x else 0.0
    m["ratios.n_points"] = calls[0][2] if calls else 0

    m["trace.wall_s"] = wall
    m["trace.accounted_frac"] = sum(tracer.self_times(measured).values()) / wall
    m["trace.spans"] = sum(1 for s in tracer.spans if s is not None)
    return m


# --- modes --------------------------------------------------------------------------

def setup_only(args, root):
    q = _import_package(root)
    IN_PROCESS[args.workload](q, args.seed)
    return {"setup_s": time.perf_counter() - T_START}


def untraced(args, root):
    q = _import_package(root)
    wl = IN_PROCESS[args.workload](q, args.seed)
    setup = time.perf_counter() - T_START
    t0 = time.perf_counter()
    wl.fill()
    fill = time.perf_counter() - t0
    walls, ops, counts = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = wl.round()
        walls.append(time.perf_counter() - t0)
        o, c = wl.check(out)
        ops.append(o)
        counts.append(c)
        spent = time.perf_counter() - start
        if spent >= args.seconds or spent + walls[-1] > args.budget:
            break
    return {"setup_s": setup, "fill_s": fill, "walls": walls, "ops": ops,
            "counts": counts}


def traced(args, root):
    tracer, seen = Tracer(), []
    tracer.request = "startup"
    with tracer.span("cli.startup"):
        q = _import_package(root)
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "quadhecke" or k.startswith("quadhecke.")]
    targets = trace_targets(q, tracer, seen)
    tracer.install(targets, modules)

    if args.workload == "compare-cli":
        tracer.request = "measure"
        with tracer.span("bench.measure"):
            rc = q.cli.run(compare_argv(args.seed, args.csv))
        wall = time.perf_counter() - T_START
        tracer.request = "probe"      # warm repeat of the first X, for axis_profile_s
        first = next(a[0] for _, n, a, _ in seen if n == "ratios.ratios_density")
        q.ratios.ratios_density(first, q.specfun.default_context())
        tracer.uninstall()
        metrics = layer_metrics(tracer, seen, wall, ("startup", "measure"))
        result = {"rc": rc, "metrics": metrics, "tols": _compare_tols(q, seen),
                  "counts": [_compare_counts(seen)]}
    else:
        tracer.request = "setup"
        with tracer.span("bench.setup"):
            wl = IN_PROCESS[args.workload](q, args.seed)
            wl.fill()
        tracer.uninstall()
        t0 = time.perf_counter()
        wl.round()
        base = time.perf_counter() - t0
        tracer.install(targets, modules)
        tracer.request = "measure"
        with tracer.span("bench.measure"):
            out = wl.round()
        tracer.uninstall()
        (wall,) = tracer.durations("bench.measure", ("measure",))
        metrics = layer_metrics(tracer, seen, wall, ("measure",))
        metrics["trace.untraced_wall_s"] = base
        ops, counts = wl.check(out)
        result = {"metrics": metrics, "ops": [ops], "counts": [counts]}
    tracer.dump(args.spans)
    return result


def _compare_tols(q, seen) -> dict:
    """Error bounds the program reports for the compare-cli routes."""
    tols = {}
    coeffs = [out for _, n, _, out in seen if n == "expansion.expansion_coefficients"]
    for req, name, args, out in seen:
        if name == "ratios.ratios_density" and req == "measure":
            tols[_key(out.X, "D_int")] = out.max_error
            L = out.L
            tols[_key(out.X, "D_thm11")] = sum(
                row["error_m"] / L ** row["m"] for row in coeffs[0].as_rows())
    return tols


def _compare_counts(seen) -> dict:
    counts = {}
    for req, name, args, out in seen:
        if req != "measure":
            continue
        if name == "empirical.one_level_density":
            counts[_key(out.X, "family_size")] = out.family_size
            counts[_key(out.X, "primes_odd")] = out.primes_odd
            counts[_key(out.X, "primes_even")] = out.primes_even
        elif name == "ratios.ratios_density":
            counts[_key(out.X, "n_points")] = out.n_points
            counts[_key(out.X, "n_norms")] = out.n_norms
    return counts


def _host() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--budget", type=float, default=150.0,
                    help="start no round that would end past this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--host-only", action="store_true")
    ap.add_argument("--out", required=True)
    ap.add_argument("--csv", help="compare-cli output file (traced run)")
    ap.add_argument("--spans", help="span dump file (traced run)")
    args = ap.parse_args()
    root = Path(args.root)
    if args.host_only:
        result = {}
    elif args.setup_only:
        result = setup_only(args, root)
    elif args.trace:
        result = traced(args, root)
    else:
        result = untraced(args, root)
    result["host"] = _host()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
