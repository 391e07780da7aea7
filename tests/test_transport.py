"""End-to-end tests of the asyncio loopback socket transport.

The transport's contract is *transcript equivalence*: a distributed run
(one OS process per party, real TCP sockets, event-driven delivery)
must produce the same protocol outcome AND the same wire-level
accounting as the lockstep in-process engine — same ranks, same betas,
same per-channel payload digests, same payload byte counts, same group
operation counts.  Hosts keep Lamport round clocks, so round stamps,
coalesced envelopes and the round count match the engine's too.

Fault injection, crash recovery, and kill-with-rejoin run over the real
sockets here: parties die as OS processes and rejoin over fresh
connections from their durable checkpoints.  A killed-and-rejoined TCP
run must equal the in-process run of the same fault plan.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput
from repro.math.rng import SeededRNG
from repro.runtime.errors import PartyTimeout
from repro.runtime.faults import FaultSpec
from repro.runtime.transport.coordinator import run_distributed
from repro.runtime.transport.frames import TransportSettings
from tests.conftest import make_participants

#: Equivalence cohort size — large enough that coalescing, interning
#: and round scheduling all diverge from the trivial case.
N_EQUIV = 16
N_FAULT = 4


def _schema():
    return AttributeSchema(
        names=("age", "pressure", "friends", "income"),
        num_equal=2,
        value_bits=6,
        weight_bits=4,
    )


def build(group, n, seed=7, **overrides):
    schema = _schema()
    initiator_input = InitiatorInput.create(
        schema, criterion=[35, 20, 0, 0], weights=[3, 5, 2, 7]
    )
    config_kwargs = dict(
        group=group, schema=schema, num_participants=n, k=2, rho_bits=6,
        wire="measured",
    )
    config_kwargs.update(overrides)
    config = FrameworkConfig(**config_kwargs)
    return GroupRankingFramework(
        config, initiator_input, make_participants(schema, n, seed=19),
        rng=SeededRNG(seed),
    )


# -- transcript equivalence: engine vs sockets at n=16 -----------------------

@pytest.fixture(scope="module")
def equiv(small_dl_group):
    """One in-process run and one socket run over identical inputs.

    Module-scoped: the pair costs tens of seconds on a small box, and
    every assertion below reads from the same two results.
    """
    inproc = build(small_dl_group, N_EQUIV).run()
    framework = build(small_dl_group, N_EQUIV)
    tcp = run_distributed(
        framework, settings=TransportSettings(timeout_s=180.0)
    )
    return inproc, tcp


class TestEquivalence:
    def test_ranks_equal(self, equiv):
        inproc, tcp = equiv
        assert tcp.ranks == inproc.ranks

    def test_betas_equal(self, equiv):
        inproc, tcp = equiv
        assert tcp.betas == inproc.betas

    def test_selected_ids_equal(self, equiv):
        inproc, tcp = equiv
        assert tcp.selected_ids() == inproc.selected_ids()

    def test_canonical_digest_equal(self, equiv):
        """The order-independent fingerprint over per-channel payload
        streams: byte-for-byte identical encodings on every directed
        channel, however delivery was scheduled."""
        inproc, tcp = equiv
        assert tcp.wire_stats.canonical_digest == \
            inproc.wire_stats.canonical_digest

    def test_every_channel_digest_equal(self, equiv):
        inproc, tcp = equiv
        assert tcp.wire_stats.channel_digests == \
            inproc.wire_stats.channel_digests
        assert len(tcp.wire_stats.channel_digests) > 0

    def test_payload_accounting_equal(self, equiv):
        inproc, tcp = equiv
        assert tcp.wire_stats.payload_bits == inproc.wire_stats.payload_bits
        assert tcp.wire_stats.logical_messages == \
            inproc.wire_stats.logical_messages

    def test_group_operation_counts_equal(self, equiv):
        """Every party does the same crypto work in both runtimes."""
        inproc, tcp = equiv
        assert set(tcp.metrics) == set(inproc.metrics)
        for pid in inproc.metrics:
            assert tcp.metrics[pid].ops.equivalent_multiplications == \
                inproc.metrics[pid].ops.equivalent_multiplications, pid

    def test_wire_messages_differ_by_attribution_only(self, equiv):
        """Coalescing batches per (dst, round) using each runtime's own
        round clock; party-local rounds on sockets are numbered
        differently from engine global rounds, so *envelope* counts are
        the one legitimately runtime-dependent statistic — the same
        exclusion class as ``wire_bits`` (which includes per-envelope
        AEAD overhead) and the submit-order ``digest``.  The payload
        bytes inside the envelopes are identical (asserted above)."""
        inproc, tcp = equiv
        assert tcp.wire_stats.wire_messages > 0
        assert inproc.wire_stats.wire_messages > 0
        # Both coalesce: far fewer envelopes than logical messages.
        assert tcp.wire_stats.wire_messages < tcp.wire_stats.logical_messages

    def test_rounds_equal(self, equiv):
        """Lamport round clocks: each host stamps a send with the round
        the engine would run it in, whatever the socket timing."""
        inproc, tcp = equiv
        assert tcp.rounds == inproc.rounds

    def test_envelopes_equal(self, equiv):
        """With engine round stamps, coalesced batches per (dst, round)
        are the engine's batches: same envelopes, same wire bits."""
        inproc, tcp = equiv
        assert tcp.wire_stats.wire_messages == inproc.wire_stats.wire_messages
        assert tcp.wire_stats.wire_bits == inproc.wire_stats.wire_bits

    def test_no_recovery_needed(self, equiv):
        _, tcp = equiv
        assert tcp.attempts == 1
        assert tcp.excluded == []
        assert tcp.rejoins == 0


def test_same_seed_tcp_runs_agree_on_rounds(small_dl_group):
    """Round stamps do not depend on timing: two same-seed n=4 socket
    runs read the same round count, and it is the engine's."""
    inproc = build(small_dl_group, N_FAULT).run()
    runs = [
        run_distributed(build(small_dl_group, N_FAULT),
                        settings=TransportSettings(timeout_s=60.0))
        for _ in range(2)
    ]
    assert [run.rounds for run in runs] == [inproc.rounds] * 2


# -- framework dispatch ------------------------------------------------------

class TestDispatch:
    def test_framework_run_dispatches_on_config(self, small_dl_group):
        """``transport='tcp'`` in the config routes ``framework.run()``
        through the socket coordinator — same entry point as inproc."""
        framework = build(small_dl_group, N_FAULT, transport="tcp")
        baseline = build(small_dl_group, N_FAULT).run()
        result = framework.run()
        assert result.ranks == baseline.ranks

    def test_tcp_rejects_sharding(self, small_dl_group):
        with pytest.raises(ValueError, match="sharded"):
            build(small_dl_group, 8, transport="tcp", shard_size=4)

    def test_tcp_rejects_workers(self, small_dl_group):
        with pytest.raises(ValueError, match="workers"):
            build(small_dl_group, N_FAULT, transport="tcp", workers=2)

    def test_live_injector_rejected(self, small_dl_group):
        """Only FaultSpec lists cross process boundaries."""
        framework = build(small_dl_group, N_FAULT)
        with pytest.raises(ValueError, match="FaultSpec"):
            run_distributed(framework, object())


# -- faults over real sockets ------------------------------------------------

def fault_build(group, **overrides):
    kwargs = dict(recovery=True, timeout_rounds=3, max_retries=2)
    kwargs.update(overrides)
    return build(group, N_FAULT, **kwargs)


@pytest.fixture(scope="module")
def fault_baseline(small_dl_group):
    return fault_build(small_dl_group).run().ranks


class TestFaults:
    SETTINGS = TransportSettings(timeout_s=30.0)

    def test_crash_blames_and_recovers(self, small_dl_group, fault_baseline):
        framework = fault_build(small_dl_group)
        result = run_distributed(
            framework,
            [FaultSpec(kind="crash", party=3, phase="comparison")],
            settings=self.SETTINGS,
        )
        assert result.attempts == 2
        assert result.excluded == [3]
        assert 3 not in result.ranks

    def test_crash_without_recovery_raises_typed_timeout(self, small_dl_group):
        framework = fault_build(small_dl_group, recovery=False)
        with pytest.raises(PartyTimeout) as excinfo:
            run_distributed(
                framework,
                [FaultSpec(kind="crash", party=2, phase="chain")],
                settings=self.SETTINGS,
            )
        assert excinfo.value.blamed == 2

    def test_duplicate_healed_by_replay_suppression(self, small_dl_group,
                                                    fault_baseline):
        framework = fault_build(small_dl_group)
        result = run_distributed(
            framework,
            [FaultSpec(kind="duplicate", party=2, phase="comparison")],
            settings=self.SETTINGS,
        )
        assert result.attempts == 1
        assert result.ranks == fault_baseline

    def test_drop_healed_by_retransmit(self, small_dl_group, fault_baseline):
        framework = fault_build(small_dl_group)
        result = run_distributed(
            framework,
            [FaultSpec(kind="drop", party=2, phase="chain", count=1)],
            settings=self.SETTINGS,
        )
        assert result.attempts == 1
        assert result.ranks == fault_baseline

    def test_delay_reorders_without_harm(self, small_dl_group,
                                         fault_baseline):
        framework = fault_build(small_dl_group)
        result = run_distributed(
            framework,
            [FaultSpec(kind="delay", party=3, phase="comparison",
                       delay_rounds=2)],
            settings=self.SETTINGS,
        )
        assert result.attempts == 1
        assert result.ranks == fault_baseline

    def test_kill_restart_rejoins_across_process_death(self, small_dl_group,
                                                       fault_baseline):
        """The flagship recovery path: the party's OS process dies
        mid-protocol, the coordinator respawns it, and the fresh
        process replays its journal and rejoins over a new connection
        — no exclusion, no extra attempt."""
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            framework = fault_build(
                small_dl_group, checkpoint_dir=checkpoint_dir
            )
            result = run_distributed(
                framework,
                [FaultSpec(kind="kill_restart", party=2, phase="chain")],
                settings=TransportSettings(timeout_s=40.0),
            )
        assert result.attempts == 1
        assert result.rejoins == 1
        assert result.excluded == []
        assert result.ranks == fault_baseline


# -- kill-and-rejoin: sockets vs engine --------------------------------------

#: Fault plans whose killed party must rejoin over TCP exactly as it
#: does in process.
KILL_PLANS = {
    "chain": [FaultSpec(kind="kill_restart", party=2, phase="chain")],
    # Dies twice at the same send: the second life dies in its replay.
    "double": [FaultSpec(kind="kill_restart", party=2, phase="chain",
                         count=2)],
    # Dies in keying, then again in chain: a replay of a replayed life.
    "twice": [FaultSpec(kind="kill_restart", party=2, phase="keying"),
              FaultSpec(kind="kill_restart", party=2, phase="chain")],
    # Peers keep broadcasting bit encryptions to the dead party.
    "comparison": [FaultSpec(kind="kill_restart", party=3,
                             phase="comparison")],
}


@pytest.fixture(scope="module")
def uninterrupted(small_dl_group):
    return fault_build(small_dl_group).run()


@pytest.fixture(scope="module", params=sorted(KILL_PLANS))
def kill_pair(request, small_dl_group):
    """The in-process and the TCP run of one kill plan."""
    plan = KILL_PLANS[request.param]
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        inproc = fault_build(
            small_dl_group, checkpoint_dir=checkpoint_dir
        ).run(list(plan))
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        tcp = run_distributed(
            fault_build(small_dl_group, checkpoint_dir=checkpoint_dir),
            list(plan),
            settings=TransportSettings(timeout_s=40.0),
        )
    return inproc, tcp


def _party_counts(metrics):
    return (
        metrics.ops.multiplications, metrics.ops.exponentiations,
        metrics.ops.exponent_bits, metrics.ops.inversions,
        metrics.messages_sent, metrics.messages_received,
        metrics.bits_sent, metrics.bits_received,
    )


class TestKillRejoinEquivalence:
    """Rejoin over sockets is replay alone: the killed party's new
    process re-runs its journal, and its peers never learn of it."""

    def test_rejoined_without_exclusion(self, kill_pair):
        inproc, tcp = kill_pair
        assert tcp.rejoins == inproc.rejoins >= 1
        assert (tcp.attempts, tcp.excluded) == (1, [])

    def test_outcome_equals_uninterrupted(self, kill_pair, uninterrupted):
        _, tcp = kill_pair
        assert tcp.ranks == uninterrupted.ranks
        assert tcp.betas == uninterrupted.betas

    def test_wire_digests_equal(self, kill_pair):
        inproc, tcp = kill_pair
        assert tcp.wire_stats.channel_digests == \
            inproc.wire_stats.channel_digests
        assert tcp.wire_stats.canonical_digest == \
            inproc.wire_stats.canonical_digest

    def test_payload_accounting_equal(self, kill_pair):
        inproc, tcp = kill_pair
        assert tcp.wire_stats.payload_bits == inproc.wire_stats.payload_bits
        assert tcp.wire_stats.logical_messages == \
            inproc.wire_stats.logical_messages

    def test_party_counters_equal(self, kill_pair):
        inproc, tcp = kill_pair
        assert set(tcp.metrics) == set(inproc.metrics)
        for pid in inproc.metrics:
            assert _party_counts(tcp.metrics[pid]) == \
                _party_counts(inproc.metrics[pid]), pid

    def test_rounds_equal(self, kill_pair):
        inproc, tcp = kill_pair
        assert tcp.rounds == inproc.rounds


# -- graceful shutdown -------------------------------------------------------

class TestGracefulShutdown:
    def test_sigint_mid_run_exits_130(self, tmp_path):
        """Ctrl-C semantics: the whole process group gets SIGINT,
        parties write a final checkpoint and close their sockets
        cleanly, and the CLI reports an interruption (exit 130), not a
        blame verdict against whichever party said BYE first."""
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "demo", "--participants", "8",
             "--seed", "7", "--transport", "tcp",
             "--listen", "127.0.0.1:0"],
            cwd=str(tmp_path), env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            time.sleep(3.0)  # let the cohort spawn and start the run
            os.killpg(os.getpgid(process.pid), signal.SIGINT)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                os.killpg(os.getpgid(process.pid), signal.SIGKILL)
                process.wait()
        if process.returncode == 0:
            pytest.skip("run finished before the signal landed")
        assert process.returncode == 130, output
        assert "interrupted" in output
