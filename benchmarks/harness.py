"""Shared machinery for the figure-reproduction benches.

Pipeline (DESIGN.md §5, substitution 1):

1. **Counting run** — :func:`repro.analysis.planner.counting_run`
   executes the real framework protocol end-to-end over a
   :class:`repro.analysis.counting.CountingGroup` that mimics the
   target family's wire sizes.  This yields the exact per-participant
   operation counts and the exact message transcript for the given
   ``(n, m, d1, d2, h)``.  Counting runs match fully-real runs
   operation-for-operation (asserted in ``test_validation.py``).
2. **Calibration** — measure seconds-per-exponentiation /
   seconds-per-multiplication on this machine at the true group sizes
   (1024/2048/3072-bit DL, 160/224/256-bit curves) and
   seconds-per-field-multiplication for the SS baseline.
3. **Estimate** — participant time = counted ops × calibrated costs.
   The SS baseline uses the paper's own operation accounting
   (Section VI-B: Batcher comparisons × (279l+5) multiplications ×
   O(n·t·log n) per-party work per multiplication).

Results are cached per process and appended to
``benchmarks/results/*.txt`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

from repro.analysis.complexity import ss_framework_participant_cost
# The counting run, its pricing and the tier table live in repro.analysis
# (the deployment planner uses the same pipeline); the benches import
# them from here.
from repro.analysis.costmodel import TIERS, calibrate_field
from repro.analysis.planner import (
    counting_run,
    counting_run_for_family,
    framework_participant_seconds,
)
from repro.groups.base import OperationCounter

RESULTS_DIR = Path(__file__).parent / "results"

#: Paper defaults (Section VII): n=25, m=10, d1=15, h=15.  d2 is not
#: stated; we use d2=15 to match the symmetric sweep ranges.
PAPER_DEFAULTS = dict(n=25, m=10, t=4, d1=15, d2=15, h=15)


def full_sweeps() -> bool:
    """Opt into the paper's largest parameter points (slower)."""
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


# ---------------------------------------------------------------------------
# Time estimation
# ---------------------------------------------------------------------------

def ss_participant_seconds(n: int, beta_bits: int) -> float:
    """SS baseline time under the paper's Section VI-B accounting."""
    field_bits = beta_bits + 9  # statistical headroom over the β range
    unit = calibrate_field(field_bits)
    field_mults = ss_framework_participant_cost(n, beta_bits)
    return field_mults * unit.seconds_per_multiplication


# ---------------------------------------------------------------------------
# Quadratic extrapolation for the n=70 point (Fig. 3a)
# ---------------------------------------------------------------------------

def extrapolate_counts(samples: Dict[int, float], target_n: int) -> float:
    """Exact-polynomial extrapolation of per-participant counts in n.

    Every per-participant count in the framework is a degree-2
    polynomial in n for fixed (m, l): the shuffle chain contributes
    (n-1)² terms, everything else ≤ linear.  Fitting the quadratic
    through three measured points therefore *reconstructs* the count
    exactly (validated in test_validation.py), making large-n points
    affordable.
    """
    if len(samples) != 3:
        raise ValueError("need exactly three sample points")
    (x1, y1), (x2, y2), (x3, y3) = sorted(samples.items())
    # Lagrange interpolation at target_n.
    def basis(xa, xb, xc):
        return ((target_n - xb) * (target_n - xc)) / ((xa - xb) * (xa - xc))

    return y1 * basis(x1, x2, x3) + y2 * basis(x2, x1, x3) + y3 * basis(x3, x1, x2)


def extrapolated_ops(target_n: int, sample_ns=(6, 10, 14), **params) -> OperationCounter:
    """Per-participant OperationCounter at ``target_n`` via exact fitting."""
    runs = {n: counting_run(n=n, **params) for n in sample_ns}
    counter = OperationCounter()
    counter.exponentiations = round(
        extrapolate_counts(
            {n: run.max_participant_ops.exponentiations for n, run in runs.items()},
            target_n,
        )
    )
    counter.multiplications = round(
        extrapolate_counts(
            {n: run.max_participant_ops.multiplications for n, run in runs.items()},
            target_n,
        )
    )
    counter.inversions = round(
        extrapolate_counts(
            {n: run.max_participant_ops.inversions for n, run in runs.items()},
            target_n,
        )
    )
    any_run = next(iter(runs.values()))
    per_exp_bits = (
        any_run.max_participant_ops.exponent_bits
        // max(1, any_run.max_participant_ops.exponentiations)
    )
    counter.exponent_bits = counter.exponentiations * per_exp_bits
    return counter


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def format_series_table(
    title: str, x_label: str, xs: List, columns: Dict[str, List[float]]
) -> str:
    """Fixed-width table matching the figure's series."""
    header = f"{x_label:>8} | " + " | ".join(f"{name:>14}" for name in columns)
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for index, x in enumerate(xs):
        cells = " | ".join(f"{columns[name][index]:14.4f}" for name in columns)
        lines.append(f"{x:>8} | {cells}")
    lines.append(rule)
    return "\n".join(lines)


def write_result(name: str, content: str, suffix: str = "txt") -> Path:
    """Write one result artifact (``suffix="json"`` for machine-readable
    outputs like BENCH_parallel.json); returns the written path."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.{suffix}"
    path.write_text(content + "\n")
    return path


def growth_exponent(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of log y against log x — the empirical order."""
    import math

    logs = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    n = len(logs)
    mean_x = sum(lx for lx, _ in logs) / n
    mean_y = sum(ly for _, ly in logs) / n
    num = sum((lx - mean_x) * (ly - mean_y) for lx, ly in logs)
    den = sum((lx - mean_x) ** 2 for lx, _ in logs)
    return num / den
