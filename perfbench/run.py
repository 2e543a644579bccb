#!/usr/bin/env python3
"""Benchmark of quadhecke: three workloads, end to end and per layer.

Run from the repository root, with the installed python3 (numpy, scipy):

    python3 perfbench/run.py --workload compare-cli --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --all          # every workload, untraced, one table

The last line of output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones from a traced run.  The exit code is non-zero when an
output check fails or the checkout holds no quadhecke sources.  README.md
beside this file has the design.  This runner uses the standard library
only; the package runs in child processes started from the checkout's src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import AGREEMENT, NAMES, compare_argv, x_values

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
REFERENCE = BENCH / "reference.json"

RUN_LIMIT = 170.0       # every run must end within 180 s
SETUP_SAMPLES = 3       # fresh processes timed per run for setup_s
EXACT_REL = 1e-10       # tolerance of the exact empirical sums
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_THREADS = "1"      # see README.md: a second BLAS thread spins on a 2-core host


class RunError(Exception):
    pass


# --- child processes ----------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    return env


def spawn(cmd: list[str], deadline: float, log: Path) -> tuple[int, float, float]:
    """Run cmd to completion: (exit code, wall seconds, peak RSS in MB).

    The child is killed at the deadline (time.monotonic) and always reaped.
    """
    with open(log, "w", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def worker(args, deadline: float, extra: list[str], tag: str) -> tuple[dict, float, float]:
    out = STATE / "tmp" / f"{tag}.json"
    log = STATE / "tmp" / f"{tag}.log"
    out.unlink(missing_ok=True)
    budget = max(1.0, deadline - time.monotonic() - 5.0)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--budget", f"{budget:.1f}",
           "--out", str(out)] + extra
    rc, wall, rss = spawn(cmd, deadline, log)
    if rc != 0 or not out.is_file():
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RunError(f"worker {tag} exited {rc}:\n{tail}")
    return json.loads(out.read_text(encoding="utf-8")), wall, rss


# --- state kept in the checkout between runs ----------------------------------------

def source_hash() -> str:
    """Digest of the program and the benchmark code: runs that share it
    must repeat each other's counts and CSV bytes."""
    h = hashlib.sha256()
    files = list((ROOT / "src").rglob("*.py")) + list(BENCH.glob("*.py"))
    for p in sorted(files):
        if "__pycache__" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


class State:
    """Per-source-tree memory of earlier runs: CSV digests, counts, walls."""

    def __init__(self):
        self.path = STATE / f"state-{source_hash()}.json"
        self.data = (json.loads(self.path.read_text(encoding="utf-8"))
                     if self.path.is_file() else {})

    def same(self, key: str, value) -> bool:
        """True if value equals what earlier runs stored under key (or is new)."""
        old = self.data.setdefault(key, value)
        return old == value

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


# --- output checks ------------------------------------------------------------------

def parse_compare_csv(text: str) -> list[dict]:
    """Operations of one compare-cli CSV: each route value at each X."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    ops = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        x = row["X"]
        vals = {k: float(row[k]) for k in ("D_emp", "D_int", "D_fo", "D_thm11")}
        ops.append({"key": f"X={x} D_emp", "value": vals["D_emp"],
                    "agree": vals["D_int"]})
        for k in ("D_int", "D_fo", "D_thm11"):
            ops.append({"key": f"X={x} {k}", "value": vals[k],
                        "agree": vals["D_emp"]})
    return ops


def check_ops(ops: list[dict], reference: dict | None) -> dict[str, str]:
    """Operation key -> message, for the failed operations of one round."""
    bad = {}
    for op in ops:
        v, key = op["value"], op["key"]
        if v is None or not math.isfinite(v):
            bad[key] = f"{key}: non-finite {v!r}"
        elif op.get("agree") is not None and abs(v - op["agree"]) > AGREEMENT:
            bad[key] = f"{key}: {v!r} disagrees with its partner route {op['agree']!r}"
        elif reference is not None:
            ref = reference["ops"].get(key)
            if ref is None:
                bad[key] = f"{key}: no stored reference"
            elif abs(v - ref["value"]) > ref["tol"]:
                bad[key] = (f"{key}: {v!r} vs reference {ref['value']!r} "
                            f"(tol {ref['tol']:.3g})")
    return bad


def reference_for(args) -> dict | None:
    if args.seed != 0 or args.record:
        return None
    refs = (json.loads(REFERENCE.read_text(encoding="utf-8"))
            if REFERENCE.is_file() else {})
    if args.workload not in refs:
        raise RunError(f"no seed-0 reference for {args.workload} in {REFERENCE.name}")
    return refs[args.workload]


def record_reference(workload: str, ops: list[dict], counts: dict) -> None:
    refs = (json.loads(REFERENCE.read_text(encoding="utf-8"))
            if REFERENCE.is_file() else {})
    refs[workload] = {
        "ops": {op["key"]: {"value": op["value"],
                            "tol": op.get("tol") or EXACT_REL * abs(op["value"])}
                for op in ops},
        "counts": counts,
    }
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


class Gate:
    """Operation tally plus the benchmark's own consistency errors."""

    def __init__(self, args, state: State):
        self.args, self.state = args, state
        self.reference = reference_for(args)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ops(self, rounds: list[list[dict]]) -> None:
        """Check each round; a value that differs from round one also fails."""
        first = {o["key"]: o["value"] for o in rounds[0]}
        for ops in rounds:
            bad = check_ops(ops, self.reference)
            bad.update({o["key"]: f"{o['key']}: differs from the first round"
                        for o in ops if first.get(o["key"]) != o["value"]
                        and o["key"] not in bad})
            self.attempted += len(ops)
            self.failed += len(bad)
            self.errors += bad.values()

    def lost(self, n: int, why: str) -> None:
        self.attempted += n
        self.failed += n
        self.errors.append(why)

    def counts(self, rounds: list[dict], label: str) -> None:
        if any(c != rounds[0] for c in rounds):
            self.errors.append(f"{label} counts differ between rounds")
        counts = rounds[0]
        key = f"{self.args.workload}/seed{self.args.seed}/{label}"
        if not self.state.same(key, counts):
            self.errors.append(f"{label} counts differ from an earlier run: "
                               f"{counts} vs {self.state.data[key]}")
        if self.reference is not None:
            for k, v in counts.items():
                want = self.reference["counts"].get(k)
                if want is not None and v != want:
                    self.errors.append(f"count {k} = {v}, reference {want}")

    def same_bytes(self, text: str) -> None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        key = f"{self.args.workload}/seed{self.args.seed}/csv_sha256"
        if not self.state.same(key, digest):
            self.errors.append("compare CSV differs from an earlier run of this code")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


# --- workloads ----------------------------------------------------------------------

def _cli(*argv: str) -> list[str]:
    return [sys.executable, "-m", "quadhecke.cli", *argv]


def setup_samples(args, deadline: float) -> list[float]:
    """Set-up times of fresh processes (compare-cli: `--version`)."""
    out = []
    for k in range(SETUP_SAMPLES - (args.workload != "compare-cli")):
        if args.workload == "compare-cli":
            rc, wall, _ = spawn(_cli("--version"), deadline,
                                STATE / "tmp" / "version.log")
            if rc != 0:
                raise RunError(f"quadhecke --version exited {rc}")
            out.append(wall)
        else:
            res, _, _ = worker(args, deadline, ["--setup-only"], f"setup{k}")
            out.append(res["setup_s"])
    return out


def run_compare_cli(args, gate: Gate, deadline: float):
    setups = setup_samples(args, deadline)
    host, _, _ = worker(args, deadline, ["--host-only"], "host")
    walls, rss = [], []
    rounds, texts = [], []
    start = time.monotonic()
    while True:
        csv_path = STATE / "tmp" / f"compare-{len(walls)}.csv"
        csv_path.unlink(missing_ok=True)
        rc, wall, mb = spawn(_cli(*compare_argv(args.seed, str(csv_path))),
                             deadline, STATE / "tmp" / "compare.log")
        walls.append(wall)
        rss.append(mb)
        if rc != 0 or not csv_path.is_file():
            gate.lost(4 * len(x_values("compare-cli", args.seed)),
                      f"quadhecke compare exited {rc}")
        else:
            texts.append(csv_path.read_text(encoding="utf-8"))
            rounds.append(parse_compare_csv(texts[-1]))
        spent = time.monotonic() - start
        if spent >= args.seconds or time.monotonic() + wall > deadline - 10.0:
            break
    if rounds:
        gate.ops(rounds)
        for text in texts:
            gate.same_bytes(text)
    gate.state.data.setdefault("compare-cli/untraced_wall_s", []).extend(walls)
    return {"wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rss)}, len(walls), host["host"]


def run_in_process(args, gate: Gate, deadline: float):
    setups = setup_samples(args, deadline)
    res, _, rss = worker(args, deadline, [], "main")
    gate.ops(res["ops"])
    gate.counts(res["counts"], "report")
    setup = statistics.median(setups + [res["setup_s"]]) + res["fill_s"]
    return {"wall_s": statistics.median(res["walls"]),
            "setup_s": setup, "peak_rss_mb": rss}, len(res["walls"]), res["host"]


def run_traced(args, gate: Gate, deadline: float):
    extra = ["--trace", "1", "--spans",
             str(STATE / "trace" / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.workload != "compare-cli":
        res, _, _ = worker(args, deadline, extra, "traced")
        gate.ops(res["ops"])
        gate.counts(res["counts"], "report")
        metrics = res["metrics"]
    else:
        csv_path = STATE / "tmp" / "compare-traced.csv"
        csv_path.unlink(missing_ok=True)
        res, _, _ = worker(args, deadline, extra + ["--csv", str(csv_path)], "traced")
        if res["rc"] != 0 or not csv_path.is_file():
            gate.lost(4 * len(x_values("compare-cli", args.seed)),
                      f"traced cli.run returned {res['rc']}")
        else:
            text = csv_path.read_text(encoding="utf-8")
            ops = parse_compare_csv(text)
            for op in ops:
                op["tol"] = res["tols"].get(op["key"])
            res["ops"] = [ops]
            gate.ops(res["ops"])
            gate.same_bytes(text)
        gate.counts(res["counts"], "report")
        metrics = res["metrics"]
        base = gate.state.data.get("compare-cli/untraced_wall_s")
        if not base:
            rc, wall, _ = spawn(_cli(*compare_argv(args.seed, str(csv_path))),
                                deadline, STATE / "tmp" / "compare.log")
            base = gate.state.data["compare-cli/untraced_wall_s"] = [wall]
        metrics["trace.untraced_wall_s"] = statistics.median(base)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    if not 0.99 <= metrics["trace.accounted_frac"] <= 1.0 + 1e-9:
        gate.errors.append(f"span self times cover {metrics['trace.accounted_frac']:.4f} "
                           f"of the traced wall")
    counted = {k: v for k, v in metrics.items() if not k.endswith(("_s", "_frac"))}
    gate.counts([counted], "trace")
    if args.record:
        record_reference(args.workload, res["ops"][0], res["counts"][0])
    return metrics, 1, res["host"]


def declared_units(trace: int) -> dict[str, str]:
    """Metric -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def host_record(worker_host: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            **worker_host}


def run_one(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT
    for sub in ("tmp", "trace", "runs"):
        (STATE / sub).mkdir(parents=True, exist_ok=True)
    state = State()
    gate = Gate(args, state)
    if args.trace:
        metrics, rounds, worker_host = run_traced(args, gate, deadline)
    elif args.workload == "compare-cli":
        metrics, rounds, worker_host = run_compare_cli(args, gate, deadline)
    else:
        metrics, rounds, worker_host = run_in_process(args, gate, deadline)
    state.save()
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RunError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                       f"both measured and declared in BENCHMARK.json")
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "x": x_values(args.workload, args.seed),
              "host": host_record(worker_host), "errors": gate.errors, **result}
    (STATE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for msg in gate.errors:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"host: {json.dumps(record['host'], sort_keys=True)}")
    frac = gate.failed / gate.attempted if gate.attempted else 1.0
    summary = " ".join(f"{k}={v['value']:.6g} {v['unit']}"
                       for k, v in result["metrics"].items() if not args.trace)
    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"{summary} fail_frac={frac:.6g} ({gate.failed}/{gate.attempted})")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's outputs as the reference (seed 0, --trace 1)")
    args = ap.parse_args()
    if not (ROOT / "src" / "quadhecke" / "__init__.py").is_file():
        print(f"no quadhecke sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.record and (args.seed != 0 or not args.trace):
        ap.error("--record needs --seed 0 --trace 1")
    try:
        if args.workload:
            result = run_one(args)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        results = {}
        for name in NAMES:
            args.workload = name
            results[name] = run_one(args)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    except RunError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
