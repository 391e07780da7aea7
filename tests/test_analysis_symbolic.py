"""The crossover model vs the partition-based closed forms.

The model's guarantee: with everything but n fixed at construction, it
evaluates to *exactly* the partition-based formulas in
:mod:`repro.analysis.complexity` whenever the shard size divides n
(the balanced partition is then uniform and the model's candidate
count k·n/s matches Σ min(k, sᵢ)).
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.complexity import (
    CrossoverModel,
    aggregation_candidates,
    aggregation_field_bits,
    aggregation_invocation_count,
    aggregation_probe_estimate,
    framework_participant_bits,
    framework_participant_cost,
    lsb_comparison_invocations,
    lsb_comparison_messages,
    sharded_aggregation_bits,
    sharded_participant_bits,
    sharded_participant_cost,
    suggest_shard_size,
)

L, LAMBDA, K, S, CIPHERTEXT = 29, 1024, 2, 16, 2048


@pytest.fixture(scope="module")
def model():
    return CrossoverModel(S, L, LAMBDA, K, CIPHERTEXT)


class TestExactAgreement:
    @pytest.mark.parametrize("n", [32, 48, 64, 128, 256])
    def test_multiplications_match_closed_form(self, model, n):
        flat = n * framework_participant_cost(n, L, LAMBDA).total
        sharded = n * sharded_participant_cost(n, S, L, LAMBDA).total
        assert model.evaluate("multiplications", n, sharded=False) == pytest.approx(
            flat, rel=1e-12
        )
        assert model.evaluate("multiplications", n, sharded=True) == pytest.approx(
            sharded, rel=1e-12
        )

    @pytest.mark.parametrize("n", [32, 48, 64, 128, 256])
    def test_bits_match_closed_form(self, model, n):
        flat = n * framework_participant_bits(n, L, CIPHERTEXT)
        sharded = (
            n * sharded_participant_bits(n, S, L, CIPHERTEXT)
            + sharded_aggregation_bits(n, S, K, L)
        )
        assert model.evaluate("bits", n, sharded=False) == pytest.approx(
            flat, rel=1e-12
        )
        assert model.evaluate("bits", n, sharded=True) == pytest.approx(
            sharded, rel=1e-12
        )

    def test_aggregation_terms_match(self, model):
        n = 64
        modeled = model.summary(n)["aggregation_multiplications"]
        assert modeled == pytest.approx(
            aggregation_invocation_count(n, S, K, L), rel=1e-12
        )


class TestClosedForms:
    def test_candidate_count(self):
        assert aggregation_candidates(64, 16, 2) == 8
        assert aggregation_candidates(10, 4, 2) == 6   # shards [4, 3, 3]
        assert aggregation_candidates(8, 4, 16) == 8   # k clipped per shard

    def test_field_bits_is_l_plus_two(self):
        from repro.sharding.aggregate import aggregation_prime

        for l in (8, 13, 29):
            assert aggregation_field_bits(l) == aggregation_prime(l).bit_length()

    def test_lsb_constants(self):
        assert lsb_comparison_invocations(31) == 94
        # messages = (invocations + openings)·c(c−1) + dealing
        c, w = 8, 31
        expected = (3 * w + 1 + w + 2) * c * (c - 1) + w * c * (c - 1)
        assert lsb_comparison_messages(w, c) == expected

    def test_probe_estimate_grows_logarithmically(self):
        assert aggregation_probe_estimate(8) == 5
        assert aggregation_probe_estimate(2) == 3
        assert (
            aggregation_probe_estimate(1024)
            - aggregation_probe_estimate(2)
            == math.log2(1024) - 1
        )

    def test_sharded_cost_is_constant_per_participant(self):
        small = sharded_participant_cost(64, 16, L, LAMBDA).total
        large = sharded_participant_cost(256, 16, L, LAMBDA).total
        assert small == large  # n only changes the shard *count*


class TestCrossover:
    def test_sharding_wins_just_past_the_shard_size(self, model):
        assert model.crossover("multiplications") == S + 1
        crossover_bits = model.crossover("bits")
        assert crossover_bits is not None
        assert crossover_bits <= 64

    def test_speedup_exceeds_acceptance_gate_at_bench_point(self, model):
        assert model.speedup("multiplications", 64) >= 3.0
        assert model.speedup("bits", 64) >= 3.0

    def test_speedup_grows_with_n(self, model):
        assert model.speedup("multiplications", 128) > model.speedup(
            "multiplications", 64
        )

    def test_aggregation_eventually_dominates(self, model):
        threshold = model.aggregation_dominates_beyond()
        assert threshold is not None
        assert threshold > 64  # far past the bench point

    def test_validation(self):
        with pytest.raises(ValueError):
            CrossoverModel(1, L, LAMBDA, K, CIPHERTEXT)
        with pytest.raises(ValueError):
            CrossoverModel(4, L, LAMBDA, 8, CIPHERTEXT)
        with pytest.raises(ValueError):
            CrossoverModel(S, L, LAMBDA, K, CIPHERTEXT).evaluate(
                "rounds", 64, sharded=False
            )

    def test_summary_payload(self, model):
        summary = model.summary(64)
        assert summary["multiplication_speedup"] == pytest.approx(
            model.speedup("multiplications", 64)
        )
        assert summary["sharded_bits"] < summary["flat_bits"]
        assert summary["aggregation_bits"] > 0


class TestSuggestShardSize:
    @pytest.mark.parametrize(
        "n, l, metric, expected",
        [
            (3, 13, "multiplications", 2),
            (4, 13, "bits", 3),
            (5, 13, "bits", 3),
            (6, 29, "bits", 4),
            (9, 13, "bits", 4),
            (12, 29, "bits", 5),
        ],
    )
    def test_pinned_answers(self, n, l, metric, expected):
        # Defaults: k=2, λ=160, 322-bit ciphertexts (ECC-160).
        assert suggest_shard_size(n, l, metric=metric) == expected

    def test_flat_when_no_shard_fits(self):
        assert suggest_shard_size(2, 13) == 0
        with pytest.raises(ValueError):
            suggest_shard_size(1, 13)
        with pytest.raises(ValueError):
            suggest_shard_size(8, 13, metric="rounds")
