"""Tests for the deployment planner."""

import pytest

from repro.analysis.planner import DeploymentEstimate, estimate_deployment


class TestEstimates:
    def test_basic_shape(self):
        estimate = estimate_deployment(n=6, m=4, d1=6, d2=4, h=6)
        assert estimate.n == 6
        assert estimate.family == "ECC"
        assert estimate.rounds > 6
        assert estimate.participant_compute_seconds > 0
        assert estimate.total_traffic_bits > 0
        assert estimate.max_participant_sent_bits < estimate.total_traffic_bits
        assert estimate.network_seconds is None

    def test_dl_costs_more_than_ecc_at_same_tier(self):
        dl = estimate_deployment(n=5, m=4, d1=6, d2=4, h=6, family="DL")
        ecc = estimate_deployment(n=5, m=4, d1=6, d2=4, h=6, family="ECC")
        assert dl.participant_compute_seconds > ecc.participant_compute_seconds
        assert dl.total_traffic_bits > ecc.total_traffic_bits
        # Identical protocol structure: same rounds and op counts.
        assert dl.rounds == ecc.rounds
        assert dl.participant_exponentiations == ecc.participant_exponentiations

    def test_higher_level_costs_more(self):
        low = estimate_deployment(n=4, m=4, d1=6, d2=4, h=6, level=80)
        high = estimate_deployment(n=4, m=4, d1=6, d2=4, h=6, level=128)
        assert high.participant_compute_seconds > low.participant_compute_seconds

    def test_compute_grows_quadratically_in_n(self):
        small = estimate_deployment(n=4, m=4, d1=6, d2=4, h=6)
        large = estimate_deployment(n=8, m=4, d1=6, d2=4, h=6)
        ratio = (
            large.participant_compute_seconds / small.participant_compute_seconds
        )
        assert 2.5 < ratio < 6.0

    def test_network_estimate(self):
        estimate = estimate_deployment(
            n=4, m=4, d1=6, d2=4, h=6, include_network=True
        )
        assert estimate.network_seconds is not None
        assert estimate.network_seconds > 0

    def test_summary_renders(self):
        estimate = estimate_deployment(n=4, m=4, d1=6, d2=4, h=6,
                                       include_network=True)
        text = estimate.summary()
        assert "deployment estimate" in text
        assert "network time" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_deployment(n=4, level=96)
        with pytest.raises(ValueError):
            estimate_deployment(n=4, family="RSA")
        with pytest.raises(ValueError):
            estimate_deployment(n=85, m=4, d1=6, d2=4, h=6,
                                include_network=True)

    def test_deterministic(self):
        a = estimate_deployment(n=4, m=4, d1=6, d2=4, h=6, seed=9)
        b = estimate_deployment(n=4, m=4, d1=6, d2=4, h=6, seed=9)
        assert a.participant_exponentiations == b.participant_exponentiations
        assert a.total_traffic_bits == b.total_traffic_bits


class TestSharedCountingRun:
    """The planner and the figure benches price one counting run."""

    @pytest.mark.parametrize(
        "family, total_bits", [("DL", 12_197_338), ("ECC", 1_931_090)]
    )
    def test_planner_matches_bench_harness(self, family, total_bits):
        from benchmarks.harness import counting_run_for_family

        estimate = estimate_deployment(
            n=6, m=4, num_equal=2, d1=5, d2=5, h=5, family=family, level=80
        )
        run = counting_run_for_family(family, 80, n=6, m=4, t=2, d1=5, d2=5, h=5)
        planned = (
            estimate.participant_exponentiations,
            estimate.rounds,
            estimate.total_traffic_bits,
        )
        counted = (
            run.max_participant_ops.exponentiations,
            run.rounds,
            run.transcript.total_bits,
        )
        assert planned == counted == (2667, 14, total_bits)
