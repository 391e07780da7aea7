"""End-to-end tests of the full three-phase framework."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput, ParticipantInput
from repro.core.parties import _INT_MINIMUMS, INITIATOR_ID, MAX_BETA_BITS
from repro.groups.dl import DLGroup
from repro.math.rng import SeededRNG
from tests.conftest import make_participants


def run_framework(group, schema, initiator_input, participants, k=2, seed=1, **config_kwargs):
    config = FrameworkConfig(
        group=group,
        schema=schema,
        num_participants=len(participants),
        k=k,
        rho_bits=6,
        **config_kwargs,
    )
    framework = GroupRankingFramework(
        config, initiator_input, participants, rng=SeededRNG(seed)
    )
    return framework, framework.run()


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_ranks_match_reference(self, small_dl_group, small_schema,
                                   small_initiator_input, n):
        participants = make_participants(small_schema, n, seed=n)
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        assert framework.check_result(result) == []

    @pytest.mark.parametrize("seed", [11, 22, 33, 44])
    def test_multiple_seeds(self, small_dl_group, small_schema,
                            small_initiator_input, seed):
        participants = make_participants(small_schema, 4, seed=seed)
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            participants, seed=seed,
        )
        assert framework.check_result(result) == []

    def test_ranks_are_expected_exactly_when_gains_distinct(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        participants = make_participants(small_schema, 5, seed=7)
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        gains = framework.expected_partial_gains()
        if len(set(gains.values())) == len(gains):
            assert result.ranks == framework.expected_ranks()

    def test_tied_gains_get_adjacent_ranks(self, small_dl_group, small_schema,
                                           small_initiator_input):
        """Equal partial gains are tie-broken by the masks ρ_j (the paper:
        "if p_i = p_j, it does not matter if P_i ranks higher or lower");
        the tied pair must land on the two top ranks in some order."""
        clone = ParticipantInput.create(small_schema, [30, 20, 40, 50])
        other = ParticipantInput.create(small_schema, [1, 1, 1, 1])
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            [clone, clone, other], k=2,
        )
        assert {result.ranks[1], result.ranks[2]} == {1, 2}
        assert result.ranks[3] == 3
        assert sorted(result.selected_ids()) == [1, 2]
        assert framework.check_result(result) == []

    def test_k_equals_n_everyone_selected(self, small_dl_group, small_schema,
                                          small_initiator_input):
        participants = make_participants(small_schema, 3, seed=9)
        _, result = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            participants, k=3,
        )
        assert sorted(result.selected_ids()) == [1, 2, 3]

    def test_k_equals_one(self, small_dl_group, small_schema, small_initiator_input):
        participants = make_participants(small_schema, 4, seed=10)
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            participants, k=1,
        )
        (winner,) = result.selected_ids()
        gains = framework.expected_partial_gains()
        assert gains[winner] == max(gains.values())

    def test_initiator_verifies_submissions(self, small_dl_group, small_schema,
                                            small_initiator_input):
        participants = make_participants(small_schema, 4, seed=12)
        _, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        assert result.initiator_output.verified
        assert result.initiator_output.anomalies == []

    def test_betas_preserve_gain_order(self, small_dl_group, small_schema,
                                       small_initiator_input):
        participants = make_participants(small_schema, 5, seed=13)
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        gains = framework.expected_partial_gains()
        ids = sorted(gains)
        for a in ids:
            for b in ids:
                if gains[a] < gains[b]:
                    assert result.betas[a] < result.betas[b]


class TestStructure:
    def test_rounds_grow_linearly(self, small_dl_group, small_schema,
                                  small_initiator_input):
        rounds = {}
        for n in (3, 5, 7):
            participants = make_participants(small_schema, n, seed=n)
            _, result = run_framework(
                small_dl_group, small_schema, small_initiator_input, participants
            )
            rounds[n] = result.rounds
        # The chain adds one round per participant.
        assert rounds[5] - rounds[3] == 2
        assert rounds[7] - rounds[5] == 2

    def test_transcript_has_expected_phases(self, small_dl_group, small_schema,
                                            small_initiator_input):
        participants = make_participants(small_schema, 3, seed=14)
        _, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        tags = set(entry.tag for entry in result.transcript)
        assert {
            "dp-request", "dp-response", "pk-share", "zkp-commit",
            "zkp-challenge", "zkp-response", "beta-bits", "tau-sets",
            "chain", "final-set", "submission",
        } <= tags

    def test_shuffle_chain_dominates_communication(self, small_dl_group,
                                                   small_schema,
                                                   small_initiator_input):
        participants = make_participants(small_schema, 5, seed=15)
        _, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        bits_by_tag = {}
        for entry in result.transcript:
            bits_by_tag[entry.tag] = bits_by_tag.get(entry.tag, 0) + entry.size_bits
        assert bits_by_tag["chain"] == max(bits_by_tag.values())

    def test_metrics_cover_all_parties(self, small_dl_group, small_schema,
                                       small_initiator_input):
        participants = make_participants(small_schema, 3, seed=16)
        _, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        assert set(result.metrics) == {0, 1, 2, 3}
        for pid in (1, 2, 3):
            assert result.metrics[pid].ops.exponentiations > 0
        # The initiator only verifies ZKPs; her group work is a small
        # constant per participant, far below any participant's load.
        initiator_exps = result.metrics[INITIATOR_ID].ops.exponentiations
        assert 0 < initiator_exps < min(
            result.metrics[pid].ops.exponentiations for pid in (1, 2, 3)
        )

    def test_zkp_disabled_still_correct(self, small_dl_group, small_schema,
                                        small_initiator_input):
        participants = make_participants(small_schema, 3, seed=17)
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            participants, verify_zkp=False,
        )
        assert framework.check_result(result) == []

    def test_works_on_elliptic_curve_group(self, tiny_curve, small_schema,
                                           small_initiator_input):
        participants = make_participants(small_schema, 3, seed=18)
        framework, result = run_framework(
            tiny_curve, small_schema, small_initiator_input, participants
        )
        assert framework.check_result(result) == []


def _fields_of_type(kind):
    return sorted(
        spec.name for spec in dataclasses.fields(FrameworkConfig)
        if spec.type in (kind.__name__, kind)
    )


#: The string fields and the values each accepts.
_CHOICES = {
    "zkp_mode": ("interactive", "fiat-shamir"),
    "beta_mode": ("paper", "safe"),
    "wire": ("declared", "measured", "conformance"),
    "wire_codec": ("v1", "v2"),
    "backend": ("auto", "gmpy2", "python"),
    "transport": ("inproc", "tcp"),
}


def _one_field(names, values):
    """``{name: value}`` for one of ``names``, with ``values(name)``."""
    return st.sampled_from(names).flatmap(
        lambda name: values(name).map(lambda value: {name: value})
    )


_NOT_INT = st.one_of(st.booleans(), st.floats(), st.text(max_size=3),
                     st.none(), st.just([1]))
_NOT_BOOL = st.one_of(st.integers(), st.floats(), st.text(max_size=3),
                      st.none())
_NOT_CHOICE = st.one_of(st.text(max_size=12), st.integers(), st.none())

#: One invalid change to an otherwise valid n=3, k=2 config.
INVALID_CONFIGS = st.one_of(
    _one_field(_fields_of_type(int), lambda name: _NOT_INT),
    _one_field(_fields_of_type(bool), lambda name: _NOT_BOOL),
    _one_field(sorted(_INT_MINIMUMS), lambda name: st.integers(
        max_value=_INT_MINIMUMS[name] - 1)),
    _one_field(sorted(_CHOICES), lambda name: _NOT_CHOICE.filter(
        lambda value: value not in _CHOICES[name])),
    st.fixed_dictionaries({"group": st.one_of(st.none(), st.integers())}),
    st.fixed_dictionaries({"schema": st.one_of(st.none(), st.text())}),
    st.fixed_dictionaries({"checkpoint_dir": st.one_of(
        st.integers(), st.lists(st.text(), max_size=2))}),
    st.integers(2, 6).flatmap(lambda n: st.fixed_dictionaries({
        "num_participants": st.just(n), "k": st.integers(n + 1, n + 9)})),
    st.just({"shard_size": 1}),
    st.fixed_dictionaries({"transport": st.just("tcp"),
                           "workers": st.integers(2, 64)}),
    st.fixed_dictionaries({"transport": st.just("tcp"),
                           "shard_size": st.just(2)}),
    st.fixed_dictionaries({"beta_bits": st.integers(MAX_BETA_BITS + 1, 10**9)}),
    st.fixed_dictionaries({"rho_bits": st.integers(MAX_BETA_BITS + 1, 10**9)}),
    st.fixed_dictionaries({"dp_field_prime": st.one_of(
        st.integers(1, 2**20),                       # below 2^(l+8)
        st.integers(2**60, 2**90).map(lambda v: 2 * v),   # composite
        st.integers(2**1040, 2**1100),               # too wide
    )}),
)


class TestConfigValidation:
    @given(overrides=INVALID_CONFIGS)
    @settings(max_examples=300, deadline=None)
    def test_every_invalid_config_raises_before_any_work(
        self, small_dl_group, overrides
    ):
        """Property: one invalid field (type, minimum, choice, or a
        cross-field rule) raises TypeError/ValueError before any group
        operation or prime search — both are patched to fail loudly."""
        def forbidden(*args, **kwargs):
            raise AssertionError("config validation did expensive work")

        schema = AttributeSchema(names=("a", "b", "c", "d"), num_equal=2,
                                 value_bits=6, weight_bits=4)
        kwargs = dict(group=small_dl_group, schema=schema,
                      num_participants=3, k=2)
        kwargs.update(overrides)
        with mock.patch("repro.math.primes.next_prime", forbidden), \
                mock.patch.object(small_dl_group, "exp", forbidden):
            with pytest.raises((TypeError, ValueError)):
                FrameworkConfig(**kwargs)

    def test_too_few_participants(self, small_dl_group, small_schema):
        with pytest.raises(ValueError):
            FrameworkConfig(group=small_dl_group, schema=small_schema,
                            num_participants=1, k=1)

    def test_k_out_of_range(self, small_dl_group, small_schema):
        with pytest.raises(ValueError):
            FrameworkConfig(group=small_dl_group, schema=small_schema,
                            num_participants=3, k=4)
        with pytest.raises(ValueError):
            FrameworkConfig(group=small_dl_group, schema=small_schema,
                            num_participants=3, k=0)

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"dp_expansion": -1}, ValueError),
            ({"beta_bits": -3}, ValueError),
            ({"beta_bits": MAX_BETA_BITS + 1}, ValueError),
            ({"rho_bits": 10**6}, ValueError),
            ({"dp_field_prime": 15}, ValueError),
            ({"dp_field_prime": (1 << 60) + 1}, ValueError),
            ({"beta_mode": "fast"}, ValueError),
            ({"group": None}, TypeError),
            ({"schema": None}, TypeError),
            ({"multiexp": "yes"}, TypeError),
            ({"num_participants": 2.5}, TypeError),
            ({"k": True}, TypeError),
            ({"shard_size": 3.7}, TypeError),
            ({"timeout_rounds": 2.0}, TypeError),
            ({"max_retries": 1.5}, TypeError),
            ({"checkpoint_every": "x"}, TypeError),
            ({"checkpoint_dir": 3}, TypeError),
            ({"validate_elements": False}, TypeError),
        ],
        ids=lambda value: (
            ",".join(f"{k}={v}" for k, v in value.items())
            if isinstance(value, dict) else value.__name__
        ),
    )
    def test_rejects_before_any_prime_search(
        self, small_dl_group, small_schema, monkeypatch, overrides, error
    ):
        import repro.math.primes as primes

        def no_search(*args, **kwargs):
            raise AssertionError("config validation reached a prime search")

        monkeypatch.setattr(primes, "next_prime", no_search)
        kwargs = dict(group=small_dl_group, schema=small_schema,
                      num_participants=3, k=2)
        kwargs.update(overrides)
        with pytest.raises(error):
            FrameworkConfig(**kwargs)

    def test_beta_bits_ceiling_and_explicit_prime_accepted(
        self, small_dl_group, small_schema
    ):
        widest = FrameworkConfig(group=small_dl_group, schema=small_schema,
                                 num_participants=3, k=2,
                                 beta_bits=MAX_BETA_BITS)
        assert widest.dp_field_prime > 1 << (MAX_BETA_BITS + 8)
        derived = FrameworkConfig(group=small_dl_group, schema=small_schema,
                                  num_participants=3, k=2)
        explicit = FrameworkConfig(group=small_dl_group, schema=small_schema,
                                   num_participants=3, k=2,
                                   dp_field_prime=derived.dp_field_prime)
        assert explicit.dp_field_prime == derived.dp_field_prime

    def test_input_count_mismatch(self, small_dl_group, small_schema,
                                  small_initiator_input):
        config = FrameworkConfig(group=small_dl_group, schema=small_schema,
                                 num_participants=3, k=1)
        with pytest.raises(ValueError):
            GroupRankingFramework(
                config, small_initiator_input,
                make_participants(small_schema, 2),
            )

    def test_beta_bits_derived(self, small_dl_group, small_schema):
        config = FrameworkConfig(group=small_dl_group, schema=small_schema,
                                 num_participants=3, k=1, rho_bits=8)
        assert config.beta_bits > 8
        assert config.dp_field_prime > (1 << config.beta_bits)

    def test_participant_ids(self, small_dl_group, small_schema):
        config = FrameworkConfig(group=small_dl_group, schema=small_schema,
                                 num_participants=4, k=1)
        assert config.participant_ids == [1, 2, 3, 4]
