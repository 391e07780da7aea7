"""Deployment planning: "what would this cost at my scale?"

The question a downstream adopter actually asks.  Packages the
evaluation machinery — counting runs, calibrated cost models, the
network simulator — into one call:

    estimate = estimate_deployment(n=40, m=12, family="ECC", level=80)

returning per-participant compute time, traffic, rounds, and (optionally)
the communication time on the paper's reference network.  Estimates come
from executing the *real protocol* on an inert counting group, so they
track every implementation detail rather than an asymptotic formula.

The counting run itself (:func:`counting_run`) is also the first stage
of the figure benches (DESIGN.md §5, substitution 1): it yields the
exact per-participant operation counts and the exact message transcript
for the given ``(n, m, d1, d2, h)``, and matches fully-real runs
operation-for-operation (asserted in ``benchmarks/test_validation.py``).
The last 128 runs are cached per process, since the benches price one
run many ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.analysis.costmodel import TIERS, check_tier, cost_model_for
from repro.analysis.counting import CountingGroup
from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput, ParticipantInput
from repro.groups.base import OperationCounter
from repro.math.rng import SeededRNG
from repro.runtime.transcript import Transcript


@dataclass(frozen=True)
class CountedRun:
    """Everything a counting run produces (shared by every cache hit)."""

    n: int
    beta_bits: int
    max_participant_ops: OperationCounter
    initiator_ops: OperationCounter
    transcript: Transcript
    rounds: int
    max_participant_sent_bits: int


@lru_cache(maxsize=128)
def counting_run(
    n: int,
    m: int = 10,
    t: int = 4,
    d1: int = 15,
    d2: int = 15,
    h: int = 15,
    element_bits: int = 1024,
    order_bits: Optional[int] = None,
    wire: str = "declared",
    coalesce: bool = True,
    k: Optional[int] = None,
    seed: int = 1,
) -> CountedRun:
    """Execute the real protocol on an inert group; return exact counts.

    ``t`` is the number of equality attributes; ``k`` defaults to
    ``max(1, n // 8)``; inputs are drawn from ``SeededRNG(seed)`` and the
    protocol's randomness from ``SeededRNG(seed + 1)``.

    ``wire="measured"`` routes every message through the wire transport
    so the transcript carries *measured* encoded bytes (envelopes,
    framing, per-round coalescing per ``coalesce``) instead of the
    analytic declared sizes — the counting group reports the target
    family's element width, so encoded sizes match the real family's.
    """
    schema = AttributeSchema(
        names=tuple(f"q{i}" for i in range(m)),
        num_equal=t, value_bits=d1, weight_bits=d2,
    )
    rng = SeededRNG(seed)
    bound = 1 << d1
    initiator = InitiatorInput.create(
        schema,
        [rng.randrange(bound) for _ in range(m)],
        [rng.randrange(1 << d2) for _ in range(m)],
    )
    participants = [
        ParticipantInput.create(schema, [rng.randrange(bound) for _ in range(m)])
        for _ in range(n)
    ]
    config = FrameworkConfig(
        group=CountingGroup(element_bits=element_bits, order_bits=order_bits),
        schema=schema, num_participants=n,
        k=k if k is not None else max(1, n // 8), rho_bits=h,
        wire=wire, coalesce=coalesce,
    )
    framework = GroupRankingFramework(
        config, initiator, participants, rng=SeededRNG(seed + 1)
    )
    result = framework.run()
    participant_metrics = result.participant_metrics()
    return CountedRun(
        n=n,
        beta_bits=config.beta_bits,
        max_participant_ops=max(
            (metrics.ops for metrics in participant_metrics),
            key=lambda ops: ops.equivalent_multiplications,
        ),
        initiator_ops=result.metrics[0].ops,
        transcript=result.transcript,
        rounds=result.rounds,
        max_participant_sent_bits=max(
            metrics.bits_sent for metrics in participant_metrics
        ),
    )


def counting_run_for_family(family: str, level: int = 80, **params) -> CountedRun:
    """Counting run with the wire sizes of the given family/tier."""
    family = check_tier(family, level)
    tier = TIERS[level]
    if family == "DL":
        group = CountingGroup.like_dl(tier.dl_bits)
    else:
        group = CountingGroup.like_ecc(tier.curve_bits)
    return counting_run(
        element_bits=group.element_bits,
        order_bits=group.order.bit_length(),
        **params,
    )


def framework_participant_seconds(run: CountedRun, family: str, level: int = 80) -> float:
    """Counted participant workload at calibrated per-op costs."""
    return cost_model_for(family, level).seconds_for(run.max_participant_ops)


@dataclass(frozen=True)
class DeploymentEstimate:
    """Everything one framework run would cost at the given scale."""

    n: int
    family: str
    level: int
    beta_bits: int
    rounds: int
    participant_compute_seconds: float
    participant_exponentiations: int
    total_traffic_bits: int
    max_participant_sent_bits: int
    network_seconds: Optional[float] = None   # on the paper topology

    def summary(self) -> str:
        lines = [
            f"deployment estimate: n={self.n}, {self.family}-{self.level}bit tier",
            f"  masked-gain width l: {self.beta_bits} bits",
            f"  communication rounds: {self.rounds}",
            f"  participant compute: {self.participant_compute_seconds:,.1f} s "
            f"({self.participant_exponentiations:,} exponentiations)",
            f"  total traffic: {self.total_traffic_bits / 8e6:,.1f} MB "
            f"(worst participant sends {self.max_participant_sent_bits / 8e6:,.1f} MB)",
        ]
        if self.network_seconds is not None:
            lines.append(
                f"  network time (80-node/2 Mbps/50 ms reference): "
                f"{self.network_seconds:,.1f} s"
            )
        return "\n".join(lines)


def estimate_deployment(
    n: int,
    m: int = 10,
    num_equal: Optional[int] = None,
    d1: int = 15,
    d2: int = 15,
    h: int = 15,
    k: Optional[int] = None,
    family: str = "ECC",
    level: int = 80,
    include_network: bool = False,
    seed: int = 1,
) -> DeploymentEstimate:
    """Execute a counting run at the requested scale and price it.

    ``family`` ∈ {"DL", "ECC"}, ``level`` ∈ {80, 112, 128}.  Both, and
    the reference topology's size when ``include_network`` is set, are
    checked before the run.  Runtime is dominated by the counting run
    itself — roughly quadratic in ``n`` (seconds at n=25, a couple of
    minutes at n=70).
    """
    family = check_tier(family, level)
    if include_network and n + 1 > 80:
        raise ValueError("the reference topology holds at most 79 participants")
    run = counting_run_for_family(
        family, level, n=n, m=m, t=m // 2 if num_equal is None else num_equal,
        d1=d1, d2=d2, h=h, k=k, seed=seed,
    )
    network_seconds = None
    if include_network:
        from repro.netsim.topology import paper_topology
        from repro.netsim.transport import replay_transcript

        topology = paper_topology(SeededRNG(17))
        topology.place_parties(list(range(n + 1)), SeededRNG(18))
        network_seconds = replay_transcript(run.transcript, topology).total_time_s

    return DeploymentEstimate(
        n=n,
        family=family,
        level=level,
        beta_bits=run.beta_bits,
        rounds=run.rounds,
        participant_compute_seconds=framework_participant_seconds(run, family, level),
        participant_exponentiations=run.max_participant_ops.exponentiations,
        total_traffic_bits=run.transcript.total_bits,
        max_participant_sent_bits=run.max_participant_sent_bits,
        network_seconds=network_seconds,
    )
