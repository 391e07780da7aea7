"""Calibrated per-operation costs → estimated execution time.

The paper reports wall-clock seconds of Crypto++ on a 2002 Pentium 4.
We reproduce the *shape* of those curves by (1) executing the real
protocols and counting operations exactly, then (2) multiplying the
counts by per-operation costs measured **on this machine at the true
group sizes** (1024/2048/3072-bit DL groups, 160-256-bit curves).
DESIGN.md §5 documents why this substitution preserves every trend the
evaluation checks.

Calibration results are cached per process; a full calibration sweep
takes well under a second per group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from repro.groups.base import Group, OperationCounter
from repro.groups.curves import get_curve
from repro.groups.dl import DLGroup
from repro.math.rng import SeededRNG


@dataclass(frozen=True)
class CostModel:
    """Seconds per operation for one group (or field)."""

    name: str
    seconds_per_exponentiation: float
    seconds_per_multiplication: float

    def seconds_for(self, counter: OperationCounter) -> float:
        """Estimated seconds for a counted workload."""
        return (
            counter.exponentiations * self.seconds_per_exponentiation
            + counter.multiplications * self.seconds_per_multiplication
            + counter.inversions * self.seconds_per_multiplication * 8
        )

    def seconds_for_counts(self, exponentiations: float, multiplications: float = 0.0) -> float:
        return (
            exponentiations * self.seconds_per_exponentiation
            + multiplications * self.seconds_per_multiplication
        )


def _time_operation(operation, repetitions: int, batches: int = 5) -> float:
    """Best-of-batches per-operation time.

    The minimum over batches is robust to scheduler noise and concurrent
    load, which a mean is not — and for a deterministic arithmetic
    operation the minimum is the honest estimate of its cost.
    """
    per_batch = max(1, repetitions // batches)
    best = float("inf")
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(per_batch):
            operation()
        elapsed = (time.perf_counter() - start) / per_batch
        best = min(best, elapsed)
    return best


def _calibrate_group(group: Group, name: str, repetitions: int) -> CostModel:
    rng = SeededRNG(0xCA11B)
    base = group.random_element(rng)
    other = group.random_element(rng)
    exponent = group.random_exponent(rng)
    exp_cost = _time_operation(lambda: group.exp(base, exponent), repetitions)
    mul_cost = _time_operation(lambda: group.mul(base, other), repetitions * 20)
    return CostModel(
        name=name,
        seconds_per_exponentiation=exp_cost,
        seconds_per_multiplication=mul_cost,
    )


@lru_cache(maxsize=None)
def calibrate_dl(modulus_bits: int, repetitions: int = 30) -> CostModel:
    """Measured cost of the standardized DL group of the given size."""
    group = DLGroup.standard(modulus_bits)
    return _calibrate_group(group, f"DL-{modulus_bits}", repetitions)


@lru_cache(maxsize=None)
def calibrate_ecc(curve_name: str, repetitions: int = 30) -> CostModel:
    """Measured cost of a standard curve (exp = scalar mult, mul = add)."""
    group = get_curve(curve_name)
    return _calibrate_group(group, curve_name, repetitions)


@lru_cache(maxsize=None)
def calibrate_field(field_bits: int, repetitions: int = 50_000) -> CostModel:
    """Measured cost of one modular multiplication in a ``field_bits`` field.

    Used for the SS baseline, whose unit of work is the field
    multiplication.  The "exponentiation" entry is the same unit so that
    :meth:`CostModel.seconds_for_counts` reads naturally either way.

    Uses :mod:`timeit` (compiled statement loop, best of 5) because a
    single small-int ``a*b%p`` costs tens of nanoseconds — per-call
    lambda overhead would otherwise dominate the measurement.
    """
    import timeit

    from repro.math.primes import next_prime

    p = next_prime(1 << (field_bits - 1))
    a = (1 << (field_bits - 1)) - 12345
    b = (1 << (field_bits - 1)) - 67891
    timer = timeit.Timer("a * b % p", globals={"a": a, "b": b, "p": p})
    cost = min(timer.repeat(repeat=5, number=repetitions)) / repetitions
    return CostModel(
        name=f"field-{field_bits}",
        seconds_per_exponentiation=cost,
        seconds_per_multiplication=cost,
    )


class Tier(NamedTuple):
    """One security tier: DL modulus bits, standard curve, curve bits."""

    dl_bits: int
    curve: str
    curve_bits: int


#: The paper's Fig. 3(a) tiers, keyed by symmetric security level.
TIERS = {
    80: Tier(1024, "secp160r1", 160),
    112: Tier(2048, "secp224r1", 224),
    128: Tier(3072, "secp256r1", 256),
}


def check_tier(family: str, level: int) -> str:
    """Reject an unknown family or level; returns the family upper-cased."""
    if level not in TIERS:
        raise ValueError(f"level must be one of {sorted(TIERS)}")
    family = family.upper()
    if family not in ("DL", "ECC"):
        raise ValueError("family must be 'DL' or 'ECC'")
    return family


def cost_model_for(family: str, security_level: int) -> CostModel:
    """Calibrated costs of one Fig. 3(a) tier: family in {"DL", "ECC"}."""
    family = check_tier(family, security_level)
    tier = TIERS[security_level]
    return calibrate_dl(tier.dl_bits) if family == "DL" else calibrate_ecc(tier.curve)
