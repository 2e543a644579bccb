"""Workload inputs shared by the runner (run.py) and the worker (worker.py).

Stdlib only.  Seed 0 gives the canonical inputs; any other seed scales each
X by its own seeded factor in [1 - X_JITTER, 1 + X_JITTER].  The jitter is
kept small on purpose: S_odd costs about X^2.5 on compare-cli and about
X^1.8 on density-narrow, so a wider factor would turn seed choice into
run-to-run spread larger than any bound in BENCHMARK.json.
"""

from __future__ import annotations

import random

NAMES = ("density-narrow", "compare-cli", "routes-warm")

X_JITTER = 0.005

CANONICAL_X = {
    "compare-cli": (500.0, 2000.0, 8000.0),
    "density-narrow": (128000.0,),
    "routes-warm": (2000.0, 8000.0),
}

PHIS = {
    "compare-cli": ("fejer:1.5",),
    "density-narrow": ("fejer:0.8", "bump:0.8"),
    "routes-warm": ("fejer:1.5",),
}

# Routes are agreed within this at seeds that have no stored reference; it
# is the acceptance suite's empirical-vs-first-order tolerance.
AGREEMENT = 0.1


def x_values(workload: str, seed: int) -> list[float]:
    xs = CANONICAL_X[workload]
    if seed == 0:
        return list(xs)
    rng = random.Random(f"{workload}/{seed}")
    return [round(x * (1.0 + X_JITTER * rng.uniform(-1.0, 1.0)), 3) for x in xs]


def grid_spec(xs: list[float]) -> str:
    return ",".join(f"{x:g}" if x == int(x) else repr(x) for x in xs)


def compare_argv(seed: int, out_path: str) -> list[str]:
    """Arguments of the headline command, without the program name."""
    xs = x_values("compare-cli", seed)
    return ["compare", "--X-grid", grid_spec(xs), "--phi", "fejer:1.5",
            "--weight", "gaussian", "--threads", "1", "--format", "csv",
            "--out", out_path]
