"""Closed-form cost models from paper Section VI-B.

All computational costs are in *group multiplications* for the framework
and *field (integer) multiplications* for the SS baseline, exactly the
units the paper uses.  Each formula documents which protocol step it
accounts for; constants follow the paper's own accounting (an
exponentiation with a ``λ``-bit exponent is ``1.5·λ`` multiplications).

These formulas serve three purposes:

* the TAB-VIB bench regenerates the paper's asymptotic comparison table;
* the FIG-2/FIG-3 benches cross-validate them against operation counts
  *measured* from real protocol runs (they agree within the constant
  factors documented in EXPERIMENTS.md);
* :class:`CrossoverModel` prices flat vs sharded runs with them and
  backs ``--shard-size auto`` (:func:`suggest_shard_size`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.sharding.partition import shard_sizes
from repro.sharing.comparison import nishide_ohta_cost
from repro.sorting.networks import batcher_odd_even


def _exp_cost(lambda_bits: int) -> float:
    """Group multiplications per exponentiation (square-and-multiply)."""
    return 1.5 * lambda_bits


@dataclass(frozen=True)
class CostBreakdown:
    """Per-phase group-multiplication counts for one participant."""

    keying: float
    encryption: float
    comparison_circuit: float
    shuffle_chain: float
    ranking: float

    @property
    def total(self) -> float:
        return (
            self.keying
            + self.encryption
            + self.comparison_circuit
            + self.shuffle_chain
            + self.ranking
        )


def framework_participant_cost(
    n: int, l: int, lambda_bits: int, naive_suffix: bool = False
) -> CostBreakdown:
    """Group multiplications one participant spends (paper: ``O(l²n + ln²λ)``).

    * step 5 (keying + ZKPs): 1 keygen + 1 commit + 1 response check per
      peer → ``O(λ + λn)``;
    * step 6 (bitwise encryption): ``2l`` exponentiations → ``O(lλ)``;
    * step 7 (comparison circuit): per peer, ``l`` scalar-multiplications
      by ``≤ l+1`` (≈ ``1.5·log l`` mults each) plus suffix-sum additions
      — ``O(l² n)`` with the paper's naive suffix sums, ``O(l n log l)``
      with the running-sum optimization;
    * step 8 (shuffle chain): ``(n-1)`` sets × ``l(n-1)`` ciphertexts ×
      3 exponentiations (peel + two rerandomize) → ``O(l n² λ)``;
    * step 9 (ranking): ``l(n-1)`` peel exponentiations → ``O(l n λ)``.
    """
    exp = _exp_cost(lambda_bits)
    keying = exp + exp + 2 * exp * n          # keygen, own proof, verify n peers
    encryption = 2 * l * exp
    per_peer_scalar = l * 1.5 * max(1.0, math.log2(l + 1))
    if naive_suffix:
        suffix_adds = l * l                    # paper's O(l²) accounting
    else:
        suffix_adds = 2 * l
    comparison = (n - 1) * (per_peer_scalar + 2 * suffix_adds + 4 * l)
    shuffle = (n - 1) * (l * (n - 1)) * 3 * exp
    ranking = l * (n - 1) * exp
    return CostBreakdown(
        keying=keying,
        encryption=encryption,
        comparison_circuit=comparison,
        shuffle_chain=shuffle,
        ranking=ranking,
    )


def initiator_cost(n: int, m: int) -> float:
    """Initiator's integer multiplications: ``O(n·m)`` dot-product work."""
    return float(n * (3 * m + 8))


def framework_round_count(n: int) -> int:
    """Communication rounds of the framework: linear in ``n`` (Section VI-B).

    Phase 1 is 2 rounds (request, response); keying/ZKP is 3 (key share
    with commitment, challenge, response); β publication 1; τ delivery
    1; the chain contributes ``n`` sequential hops, the last delivering
    the final set; submission 1.  Counted for the default interactive
    ZKP mode.
    """
    return n + 8


def framework_participant_bits(n: int, l: int, ciphertext_bits: int) -> int:
    """Per-participant communication: ``O(l·S_c·n²)`` bits (Section VI-B).

    Dominated by forwarding the whole vector ``V`` (``n`` sets of
    ``l(n-1)`` ciphertexts) one hop along the chain, plus publishing
    ``l`` ciphertexts and sending the own set of ``l(n-1)``.
    """
    publish = l * ciphertext_bits * (n - 1)
    own_set = (n - 1) * l * ciphertext_bits
    chain_hop = n * (n - 1) * l * ciphertext_bits
    return publish + own_set + chain_hop


# ---------------------------------------------------------------------------
# The SS baseline (Jónsson et al. sorting over Nishide-Ohta comparisons)
# ---------------------------------------------------------------------------

def ss_multiplication_participant_cost(n: int, t: int) -> float:
    """Integer multiplications one party spends per SS multiplication.

    The paper cites ``O(n·t·log n)`` per participant for the GRR
    multiplication with degree reduction.
    """
    return n * t * max(1.0, math.log2(n))


def ss_comparison_participant_cost(n: int, l: int, t: int = None) -> float:
    """One Nishide-Ohta comparison: ``(279l+5)`` multiplication invocations."""
    if t is None:
        t = (n - 1) // 2
    return nishide_ohta_cost(l) * ss_multiplication_participant_cost(n, t)


def ss_sort_comparison_count(n: int, exact: bool = True) -> float:
    """Comparisons in the sorting network: ``O(n (log n)²)``.

    ``exact=True`` counts the real Batcher network; otherwise the
    asymptotic expression the paper uses.
    """
    if exact:
        return float(batcher_odd_even(n).comparator_count)
    return n * max(1.0, math.log2(n)) ** 2


def ss_framework_participant_cost(n: int, l: int, t: int = None) -> float:
    """Integer multiplications per participant for the whole SS sort.

    With ``t = ⌊(n-1)/2⌋`` (the maximum the degree reduction tolerates)
    this is the paper's ``O(l·n³·(log n)³)`` — the cubic growth visible
    in Fig. 2(a).
    """
    if t is None:
        t = max(1, (n - 1) // 2)
    comparisons = ss_sort_comparison_count(n)
    # +2 conditional-swap multiplications per comparator (value + index lane).
    per_comparison = ss_comparison_participant_cost(n, l, t) + 2 * (
        ss_multiplication_participant_cost(n, t)
    )
    return comparisons * per_comparison


def ss_framework_round_count(n: int, l: int, sequential: bool = True) -> float:
    """Rounds for the SS framework.

    ``sequential=True`` follows the paper's accounting — at least one
    round per multiplication invocation, every comparison serialized:
    ``O((279l+5)·n·(log n)²)``.  ``sequential=False`` gives the charitable
    parallel schedule: network depth × a constant-round comparison.
    """
    if sequential:
        return nishide_ohta_cost(l) * ss_sort_comparison_count(n)
    depth = batcher_odd_even(n).depth
    constant_round_comparison = 13  # Nishide-Ohta's constant round count
    return depth * constant_round_comparison


def ss_framework_participant_bits(n: int, l: int, field_bits: int) -> float:
    """Per-participant bits: each multiplication reshards to n-1 peers."""
    mult_invocations = ss_sort_comparison_count(n) * nishide_ohta_cost(l)
    return mult_invocations * (n - 1) * field_bits


# ---------------------------------------------------------------------------
# The hierarchical (sharded) composition
# ---------------------------------------------------------------------------
#
# Phase 2 runs inside shards of ≤ s members, so every n in the flat
# per-participant formulas collapses to the (largest) shard size — the
# quadratic shuffle-chain terms become constants in n.  The price is one
# champion-aggregation round over the secret-sharing substrate, whose
# cost is quantified here in the substrate's own units (field
# multiplication invocations / field-element messages); it is polynomial
# in the *candidate count* c = Σ min(k, sᵢ) ≈ k·n/s, not in n·l·λ, and
# is negligible next to the shard-level group work at practical sizes.

def sharded_participant_cost(
    n: int, shard_size: int, l: int, lambda_bits: int,
    naive_suffix: bool = False,
) -> CostBreakdown:
    """Group multiplications one participant spends under sharding.

    The flat formula evaluated at the largest shard's size: phase 2 is
    the *unmodified* paper protocol among the shard's members, so a
    member of an s-party shard pays exactly the flat n = s cost.  The
    aggregation round is excluded — candidates pay it in field
    multiplications, not group multiplications
    (:func:`aggregation_invocation_count`).
    """
    largest = max(shard_sizes(n, shard_size))
    return framework_participant_cost(
        largest, l, lambda_bits, naive_suffix=naive_suffix
    )


def sharded_participant_bits(
    n: int, shard_size: int, l: int, ciphertext_bits: int
) -> int:
    """Per-participant phase-2 bits under sharding (largest shard).

    The flat ``O(l·S_c·n²)`` chain-forwarding term at n = shard size:
    constant in the global n.
    """
    largest = max(shard_sizes(n, shard_size))
    return framework_participant_bits(largest, l, ciphertext_bits)


def aggregation_candidates(n: int, shard_size: int, k: int) -> int:
    """Size of the champion set: every shard contributes min(k, sᵢ)."""
    return sum(min(k, s) for s in shard_sizes(n, shard_size))


def aggregation_field_bits(l: int) -> int:
    """Bit length of the aggregation field (prime just below 2^(l+2)).

    Bertrand guarantees a prime in (2^(l+1), 2^(l+2)), so the largest
    prime below 2^(l+2) always has exactly l+2 bits.
    """
    return l + 2


def lsb_comparison_invocations(field_bits: int) -> int:
    """Field-multiplication invocations of one half-range comparison.

    One :func:`~repro.sharing.comparison.less_than` = one LSB gadget
    over a w-bit field: w bit generations (1 mult each), the w-mult
    rejection test on the masked randomness, a ~w-mult public wrap
    test, and one XOR — ``3w + 1`` expected invocations.  The
    aggregation prime sits just below a power of two, so the rejection
    sampling accepts with probability ≈ 1 and the expectation is tight
    (measured counts land within one wrap-test parity mult per
    comparison).
    """
    return 3 * field_bits + 1


def lsb_comparison_messages(field_bits: int, parties: int) -> int:
    """Field-element messages one comparison moves among ``parties``.

    Every multiplication and opening reshards/reveals point to point
    (``c(c−1)`` messages); a comparison performs the ``3w + 1``
    multiplications above plus ``w + 2`` openings — ``(4w + 3)·c(c−1)``
    — and deals ``w`` random sharings of one contribution per party
    (``w·c`` shares of ``c−1`` messages each).
    """
    pairwise = parties * (parties - 1)
    invocations = lsb_comparison_invocations(field_bits) + (field_bits + 2)
    dealing = field_bits * parties * (parties - 1)
    return invocations * pairwise + dealing


def aggregation_probe_estimate(candidates: int) -> int:
    """Expected threshold-search probes: ``⌈log₂ c⌉ + 2``.

    The binary search over ``[0, 2^l)`` stops once θ lands in the gap
    between the k-th and (k+1)-th candidate β.  For c candidates spread
    over the range the gap is ≈ range/(c+1), so ~``log₂ c`` halvings
    plus a small constant isolate it; the worst case (ties straddling
    the k-th place) is ``l`` probes followed by the ranking fallback.
    """
    return max(1, math.ceil(math.log2(max(2, candidates)))) + 2


def _winner_comparators(k_eff: int) -> int:
    """Comparators of the winners-only Batcher network over k_eff lanes."""
    return batcher_odd_even(k_eff).comparator_count if k_eff > 1 else 0


def _aggregation_invocations(c, k_eff, l: int) -> float:
    """Aggregation multiplications among ``c`` candidates (see below).

    ``c`` may be fractional: :class:`CrossoverModel` passes its smooth
    candidate count ``k·n/s``.
    """
    if c <= 1:
        return 0.0
    lsb = lsb_comparison_invocations(aggregation_field_bits(l))
    probe_mults = aggregation_probe_estimate(c) * c * lsb
    network_mults = _winner_comparators(k_eff) * (lsb + 2)
    return float(probe_mults + network_mults)


def _aggregation_bits(c, k_eff, l: int) -> float:
    """Aggregation field-element bits among ``c`` candidates (see below)."""
    if c <= 1:
        return 0.0
    w = aggregation_field_bits(l)
    pairwise = c * (c - 1)
    comparison = lsb_comparison_messages(w, c)
    messages = (
        pairwise                                          # input shares
        + aggregation_probe_estimate(c) * (c * comparison + pairwise)
        + c * pairwise                                    # member reveal
        + 2 * k_eff * (c - 1)                             # lane shares
        + _winner_comparators(k_eff) * (comparison + 2 * pairwise)
        + k_eff * pairwise                                # index-lane opens
    )
    return float(messages * w)


def aggregation_invocation_count(
    n: int, shard_size: int, k: int, l: int
) -> float:
    """Expected field-multiplication invocations of champion aggregation.

    Threshold probes (c comparisons each) plus the winners-only Batcher
    network (one comparison + two conditional-swap multiplications per
    comparator).  Probe count is the expectation of
    :func:`aggregation_probe_estimate`; everything else is exact on the
    success path.
    """
    c = aggregation_candidates(n, shard_size, k)
    return _aggregation_invocations(c, min(k, c), l)


def sharded_aggregation_bits(
    n: int, shard_size: int, k: int, l: int
) -> float:
    """Expected field-element bits the champion aggregation moves.

    Input shares, per-probe comparison + count-opening traffic, the
    member reveal of the successful probe's cached indicator bits, and
    the winners-only index-lane network — all multiplied by the
    ``l + 2``-bit field-element width.
    """
    c = aggregation_candidates(n, shard_size, k)
    return _aggregation_bits(c, min(k, c), l)


# ---------------------------------------------------------------------------
# The flat-vs-sharded crossover model
# ---------------------------------------------------------------------------
#
# The closed forms above with s, l, λ, k and the ciphertext width fixed,
# as functions of n alone: from which n onward does sharding beat the
# flat protocol, and by how much?  Flat totals are cubic in n (the
# Θ(l·n²·λ) shuffle chain per participant); sharded totals are linear
# (the same formula frozen at n = s) plus, for bits, the aggregation's
# Θ̃((k·n/s)³) field-element traffic, which eventually catches up
# (:meth:`CrossoverModel.aggregation_dominates_beyond`).  The
# aggregation's field multiplications are a different unit and are
# reported separately.  Every shard is taken to have exactly s members
# and the candidate count is the smooth c = k·n/s, so the model equals
# the partition-based forms whenever s | n (and k ≤ s).

#: Metrics :meth:`CrossoverModel.crossover` understands.
METRICS = ("multiplications", "bits")


class CrossoverModel:
    """Flat-vs-sharded totals as functions of the participant count n."""

    def __init__(
        self,
        shard_size: int,
        l: int,
        lambda_bits: int,
        k: int,
        ciphertext_bits: int,
        naive_suffix: bool = False,
    ):
        if shard_size < 2:
            raise ValueError("shard_size must be at least 2")
        if not 1 <= k <= shard_size:
            raise ValueError("the candidate count k·n/s needs k <= shard_size")
        self.shard_size = shard_size
        self.l = l
        self.lambda_bits = lambda_bits
        self.k = k
        self.ciphertext_bits = ciphertext_bits
        self.naive_suffix = naive_suffix

    # -- evaluation ------------------------------------------------------

    def _multiplications(self, size: int) -> float:
        return framework_participant_cost(
            size, self.l, self.lambda_bits, naive_suffix=self.naive_suffix
        ).total

    def _shard_level_bits(self, n: int) -> float:
        return n * framework_participant_bits(
            self.shard_size, self.l, self.ciphertext_bits
        )

    def _candidates(self, n: int) -> float:
        return self.k * n / self.shard_size

    def evaluate(self, metric: str, n: int, sharded: bool) -> float:
        """One total cost at n (sharded excludes the aggregation's field
        multiplications, which are a different unit)."""
        if metric == "multiplications":
            return float(n * self._multiplications(
                self.shard_size if sharded else n
            ))
        if metric == "bits":
            if not sharded:
                return float(
                    n * framework_participant_bits(n, self.l, self.ciphertext_bits)
                )
            return self._shard_level_bits(n) + _aggregation_bits(
                self._candidates(n), self.k, self.l
            )
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")

    def speedup(self, metric: str, n: int) -> float:
        """Model-predicted flat/sharded ratio at n (> 1 means sharding wins)."""
        sharded = self.evaluate(metric, n, sharded=True)
        if sharded == 0:
            return math.inf
        return self.evaluate(metric, n, sharded=False) / sharded

    # -- crossovers ------------------------------------------------------

    def crossover(self, metric: str, n_max: int = 4096) -> Optional[int]:
        """Smallest n > shard_size where the sharded cost drops below flat,
        or ``None`` if sharding never wins below ``n_max``."""
        for n in range(self.shard_size + 1, n_max + 1):
            if self.evaluate(metric, n, True) < self.evaluate(metric, n, False):
                return n
        return None

    def aggregation_dominates_beyond(self, n_max: int = 1 << 22) -> Optional[int]:
        """Scale at which the aggregation outweighs the shard-level bits.

        The candidate-count term grows like ``Θ̃(c³)``, so one-level
        sharding stops being bit-cheaper than its own shards somewhere;
        geometric scan for the first n (ceiling'd to a multiple of s)
        where aggregation bits exceed the shard-level bits.  ``None``
        means not within ``n_max`` — recursion is not yet worthwhile.
        """
        n = 2 * self.shard_size
        while n <= n_max:
            aggregation = _aggregation_bits(self._candidates(n), self.k, self.l)
            if aggregation > self._shard_level_bits(n):
                return n
            n = -(-(n * 2) // self.shard_size) * self.shard_size
        return None

    def sharded_total(self, metric: str, n: int) -> float:
        """Total sharded cost at n — what :func:`suggest_shard_size`
        minimises over candidate shard sizes."""
        return self.evaluate(metric, n, sharded=True)

    def summary(self, n: int) -> Dict[str, float]:
        """All model outputs at one n — what the bench writes to JSON."""
        c = self._candidates(n)
        return {
            "n": n,
            "shard_size": self.shard_size,
            "k": self.k,
            "flat_multiplications": self.evaluate("multiplications", n, False),
            "sharded_multiplications": self.evaluate("multiplications", n, True),
            "flat_bits": self.evaluate("bits", n, False),
            "sharded_bits": self.evaluate("bits", n, True),
            "aggregation_bits": _aggregation_bits(c, self.k, self.l),
            "aggregation_multiplications": _aggregation_invocations(
                c, self.k, self.l
            ),
            "multiplication_speedup": self.speedup("multiplications", n),
            "bit_speedup": self.speedup("bits", n),
        }


def suggest_shard_size(
    n: int,
    l: int,
    *,
    k: int = 2,
    lambda_bits: int = 160,
    ciphertext_bits: int = 2 * 161,
    metric: str = "multiplications",
    naive_suffix: bool = False,
    s_max: int = 128,
) -> int:
    """Model-optimal shard size for an (n, l) deployment, or 0 for flat.

    Sweeps candidate shard sizes s ∈ [max(2, k), min(n-1, s_max)],
    evaluates the sharded total cost at n under the crossover model, and
    returns the cheapest s — or **0** (the flat protocol) when no
    candidate beats flat, so the result can be assigned directly to
    ``FrameworkConfig.shard_size``.  This is the ``--shard-size auto``
    backend: per-shard work grows ~s² per participant while the champion
    aggregation grows like (k·n/s)³, so the optimum is interior and the
    bounded sweep finds it exactly within the model's assumptions
    (balanced shards, k ≤ s).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    lo = max(2, k)
    hi = min(n - 1, s_max)
    if lo > hi:
        return 0
    best_s = 0
    best_cost = CrossoverModel(
        lo, l, lambda_bits, k, ciphertext_bits, naive_suffix=naive_suffix
    ).evaluate(metric, n, sharded=False)
    for s in range(lo, hi + 1):
        model = CrossoverModel(
            s, l, lambda_bits, k, ciphertext_bits, naive_suffix=naive_suffix
        )
        cost = model.sharded_total(metric, n)
        if cost < best_cost:
            best_s, best_cost = s, cost
    return best_s
