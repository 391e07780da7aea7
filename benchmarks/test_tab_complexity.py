"""TAB-VIB: regenerate the Section VI-B complexity comparison.

The paper's efficiency section compares, per participant:

* computation — ours ``O(l²n + ln²λ)`` group multiplications vs the
  comparison-based SS sort's ``O(l·t·n²(log n)²)`` (→ ``O(l·n³(log n)²)``
  at ``t = n/2``) integer multiplications;
* rounds — ours ``O(n)`` vs Jónsson's ``O((279l+5)·n(log n)²)``;
* communication — ours ``O(l·S_c·n²)`` bits.

This bench prints the concrete numbers at the paper's operating point
and checks the claimed asymptotic relationships numerically.
"""

import pytest

from benchmarks.harness import PAPER_DEFAULTS, counting_run, growth_exponent, write_result
from repro.analysis.complexity import (
    CrossoverModel,
    aggregation_candidates,
    framework_participant_bits,
    framework_participant_cost,
    framework_round_count,
    sharded_aggregation_bits,
    sharded_participant_bits,
    sharded_participant_cost,
    ss_framework_participant_bits,
    ss_framework_participant_cost,
    ss_framework_round_count,
)
from repro.core.gain import beta_bit_length

L = beta_bit_length(PAPER_DEFAULTS["m"], PAPER_DEFAULTS["d1"],
                    PAPER_DEFAULTS["d2"], PAPER_DEFAULTS["h"])
LAMBDA = 160  # ECC-160 exponent size, the paper's headline instantiation


def build_table():
    rows = []
    header = (
        f"{'n':>4} | {'ours mults':>14} | {'SS mults':>16} | "
        f"{'ours rounds':>11} | {'SS rounds':>12} | {'ours Mbit':>10}"
    )
    rows.append("TAB-VIB: Section VI-B complexity comparison "
                f"(l={L}, λ={LAMBDA}, S_c=2·161 bits)")
    rows.append("-" * len(header))
    rows.append(header)
    rows.append("-" * len(header))
    ns = [10, 25, 50, 100]
    data = {}
    for n in ns:
        ours = framework_participant_cost(n, L, LAMBDA).total
        ss = ss_framework_participant_cost(n, L)
        ours_rounds = framework_round_count(n)
        ss_rounds = ss_framework_round_count(n, L)
        bits = framework_participant_bits(n, L, 2 * 161)
        data[n] = (ours, ss, ours_rounds, ss_rounds, bits)
        rows.append(
            f"{n:>4} | {ours:14.3e} | {ss:16.3e} | "
            f"{ours_rounds:>11} | {ss_rounds:12.3e} | {bits/1e6:10.2f}"
        )
    rows.append("-" * len(header))
    return "\n".join(rows), data


def test_tab_vib(benchmark):
    table, data = build_table()
    print("\n" + table)
    write_result("tab_complexity", table)
    benchmark(lambda: framework_participant_cost(25, L, LAMBDA).total)

    ns = sorted(data)
    # Our computation: ~quadratic; SS: ~cubic (plus polylog).
    ours_order = growth_exponent(ns, [data[n][0] for n in ns])
    ss_order = growth_exponent(ns, [data[n][1] for n in ns])
    assert 1.7 < ours_order < 2.3, ours_order
    assert 2.7 < ss_order < 4.0, ss_order
    # Rounds: ours linear; SS explodes by orders of magnitude.
    assert all(data[n][3] / data[n][2] > 1e4 for n in ns)
    # Communication: ~quadratic in n.
    bits_order = growth_exponent(ns, [data[n][4] for n in ns])
    assert 1.7 < bits_order < 2.3, bits_order


def build_sharded_table(shard_size=16, k=2):
    ciphertext = 2 * 161
    rows = []
    header = (
        f"{'n':>4} | {'flat mults':>14} | {'sharded mults':>14} | "
        f"{'speedup':>8} | {'flat Mbit':>10} | {'shard Mbit':>10} | "
        f"{'agg Mbit':>9}"
    )
    rows.append("TAB-VIB (sharded): hierarchical totals vs flat "
                f"(s={shard_size}, k={k}, l={L}, λ={LAMBDA}, S_c=2·161 bits)")
    rows.append("-" * len(header))
    rows.append(header)
    rows.append("-" * len(header))
    ns = [32, 64, 128, 256]
    data = {}
    for n in ns:
        flat = n * framework_participant_cost(n, L, LAMBDA).total
        sharded = n * sharded_participant_cost(n, shard_size, L, LAMBDA).total
        flat_bits = n * framework_participant_bits(n, L, ciphertext)
        shard_bits = n * sharded_participant_bits(n, shard_size, L, ciphertext)
        agg_bits = sharded_aggregation_bits(n, shard_size, k, L)
        data[n] = (flat, sharded, flat_bits, shard_bits + agg_bits)
        rows.append(
            f"{n:>4} | {flat:14.3e} | {sharded:14.3e} | "
            f"{flat / sharded:8.2f} | {flat_bits / 1e6:10.2f} | "
            f"{shard_bits / 1e6:10.2f} | {agg_bits / 1e6:9.4f}"
        )
    rows.append("-" * len(header))
    return "\n".join(rows), data


def test_tab_vib_sharded(benchmark):
    """Cross-validate the sharded closed forms: sub-quadratic totals,
    crossover-model agreement, and a crossover below the bench point."""
    table, data = build_sharded_table()
    print("\n" + table)
    write_result("tab_complexity_sharded", table)
    benchmark(lambda: sharded_participant_cost(64, 16, L, LAMBDA).total)

    ns = sorted(data)
    # Flat totals are ~cubic (n participants × quadratic each); sharded
    # totals are ~linear — the per-participant cost is frozen at the
    # shard size, so only the shard count grows with n.
    flat_order = growth_exponent(ns, [data[n][0] for n in ns])
    sharded_order = growth_exponent(ns, [data[n][1] for n in ns])
    assert 2.7 < flat_order < 3.3, flat_order
    assert 0.9 < sharded_order < 1.3, sharded_order
    # Communication splits into a linear shard level and a ~quadratic
    # aggregation term (~c² in the candidate count).  At the paper's
    # small ciphertexts the aggregation matters by n=256, so the total
    # sits strictly between linear and quadratic — still well below the
    # flat protocol's ~cubic total.
    shard_bits_order = growth_exponent(
        ns, [n * sharded_participant_bits(n, 16, L, 2 * 161) for n in ns]
    )
    assert 0.9 < shard_bits_order < 1.3, shard_bits_order
    bits_order = growth_exponent(ns, [data[n][3] for n in ns])
    assert 1.0 < bits_order < 2.0, bits_order
    flat_bits_order = growth_exponent(ns, [data[n][2] for n in ns])
    assert bits_order < flat_bits_order, (bits_order, flat_bits_order)

    # The crossover model reproduces the same closed forms exactly when
    # the shard size divides n, and places the crossover below n=64.
    model = CrossoverModel(16, L, LAMBDA, 2, ciphertext_bits=2 * 161)
    for n in ns:
        assert model.evaluate("multiplications", n, sharded=True) == pytest.approx(
            data[n][1], rel=1e-9
        )
        assert model.evaluate("bits", n, sharded=True) == pytest.approx(
            data[n][3], rel=1e-9
        )
    for metric in ("multiplications", "bits"):
        crossover = model.crossover(metric)
        assert crossover is not None and crossover <= 64, (metric, crossover)

    # Candidate accounting matches the balanced partition.
    assert aggregation_candidates(64, 16, 2) == 8


def test_model_matches_measured_counts(benchmark):
    """The closed-form model must track real measured counts within a
    modest constant factor at the paper's operating point."""
    params = {k: v for k, v in PAPER_DEFAULTS.items() if k != "n"}
    run = counting_run(n=10, **params)
    measured = run.max_participant_ops.equivalent_multiplications
    modeled = framework_participant_cost(10, run.beta_bits, 1023).total
    benchmark(lambda: framework_participant_cost(10, run.beta_bits, 1023).total)
    assert 0.3 < measured / modeled < 3.0, (measured, modeled)
