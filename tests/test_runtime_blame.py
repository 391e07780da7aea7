"""The shared blame rule, evaluated under the round clock and the
seconds clock.

Each scenario is a timeline in abstract ticks.  The round clock reads a
tick as one engine round and consults the engine's
:class:`~repro.runtime.supervisor.Supervisor` the way ``Engine.run``
does: only on rounds in which no party made progress.  The seconds clock
reads a tick as ``TICK_S`` seconds and feeds the same timeline to the
socket transport's :class:`WallClockSupervisor` the way the coordinator
does: every protocol frame is observed, and ``check`` runs once per
supervision tick.  Both clocks must name the same party and phase, and
neither may blame before ``not_before``.
"""

from typing import Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro.core.parties import phase_of_tag
from repro.runtime.channels import Message, Recv
from repro.runtime.engine import LostMessage
from repro.runtime.errors import PartyTimeout
from repro.runtime.supervisor import Supervisor, Wait, blame
from repro.runtime.transport.deadlines import WallClockSupervisor

DEADLINE = 4      # ticks: timeout_rounds on one clock, floor_s on the other
TICK_S = 0.5
MAX_RETRIES = 2
HORIZON = 60

# Framework tags; phase_of_tag maps them to comparison, chain, submission.
BETA, TAU, SUBMISSION = "beta-bits", "tau-sets", "submission"


class Scenario(NamedTuple):
    name: str
    # tick -> events; an event is one of
    #   ("wait", pid, src, tag)   pid blocks on a receive (src None: any)
    #   ("send", pid)             pid sends a protocol message
    #   ("crash", pid, phase)     pid dies for good
    #   ("respawn", pid, phase)   pid dies and is being rebuilt
    #   ("lost", pid, src, tag)   a message pid needs is lost for good
    events: Dict[int, List[tuple]]
    blamed: int
    phase: str
    not_before: int


SCENARIOS = [
    Scenario(
        "crashed party outranks the longest wait",
        {0: [("wait", 1, 0, BETA)],
         1: [("wait", 2, 3, TAU), ("crash", 3, "chain")]},
        blamed=3, phase="chain", not_before=1,
    ),
    Scenario(
        "lost message with retries exhausted outranks the longest wait",
        {0: [("wait", 1, 0, BETA)],
         1: [("wait", 2, 3, TAU), ("send", 3),
             ("lost", 2, 3, TAU)]},
        blamed=3, phase="chain", not_before=DEADLINE,
    ),
    Scenario(
        "plain wait blames whom the longest-waiting party waits on",
        {0: [("wait", 2, 0, BETA)],
         1: [("wait", 1, 2, TAU)]},
        blamed=0, phase="comparison", not_before=DEADLINE,
    ),
    Scenario(
        "wildcard wait blames the waiting party",
        {0: [("wait", 0, None, SUBMISSION)]},
        blamed=0, phase="submission", not_before=DEADLINE,
    ),
    Scenario(
        "a party being respawned is waited for, not blamed at once",
        {0: [("wait", 1, 2, TAU)],
         1: [("respawn", 2, "chain")]},
        blamed=2, phase="chain", not_before=DEADLINE,
    ),
    Scenario(
        # The initiator blocks on its first phase-3 submission while the
        # participants are still busy in phase 2: no deadline may run
        # while anyone progresses.
        "participants still progressing while the initiator waits",
        {0: [("wait", 0, 1, SUBMISSION)],
         **{tick: [("send", 1), ("send", 2)] for tick in range(1, 13)}},
        blamed=1, phase="submission", not_before=13,
    ),
]


class _RoundEngine:
    """The engine surface :meth:`Supervisor.on_quiescent` reads."""

    def __init__(self) -> None:
        self.round = 0
        self.crashed: Dict[int, Optional[str]] = {}
        self.waits: Dict[int, Tuple[Recv, int]] = {}
        self.lost: List[LostMessage] = []

    def blocked_receives(self) -> Dict[int, Recv]:
        return {pid: want for pid, (want, _) in self.waits.items()
                if pid not in self.crashed}

    def waiting_since(self, pid: int) -> int:
        return self.waits[pid][1]

    def find_lost_message(self, dst: int, want: Recv):
        for lost in self.lost:
            if lost.message.dst == dst and want.matches(lost.message):
                return lost
        return None

    def retransmit(self, lost: LostMessage, deliver_round: int) -> None:
        lost.attempts += 1  # the channel stays down: every retry is lost


def on_round_clock(scenario: Scenario) -> Tuple[int, int, str]:
    engine = _RoundEngine()
    supervisor = Supervisor(
        timeout_rounds=DEADLINE, max_retries=MAX_RETRIES, phase_of=phase_of_tag
    )
    for tick in range(HORIZON):
        engine.round = tick
        progressed = False
        for kind, pid, *rest in scenario.events.get(tick, ()):
            if kind == "wait":
                src, tag = rest
                engine.waits[pid] = (Recv(src=src, tag=tag), tick)
                progressed = True
            elif kind == "send":
                progressed = True
            elif kind == "crash":
                engine.crashed[pid] = rest[0]
            elif kind == "lost":
                src, tag = rest
                engine.lost.append(LostMessage(Message(
                    src=src, dst=pid, tag=tag, payload=None, size_bits=8,
                )))
            # "respawn": a rejoined party never enters the crashed set.
        if progressed:
            continue
        try:
            assert supervisor.on_quiescent(engine), "engine deadlocked"
        except PartyTimeout as timeout:
            return tick, timeout.blamed, timeout.phase
    raise AssertionError("no blame within the horizon")


def on_seconds_clock(scenario: Scenario) -> Tuple[int, int, str]:
    supervisor = WallClockSupervisor(DEADLINE * TICK_S, adaptive=False)
    for tick in range(HORIZON):
        now = tick * TICK_S
        for kind, pid, *rest in scenario.events.get(tick, ()):
            if kind == "wait":
                src, tag = rest
                supervisor.observe_frame(pid, now, ends_wait=False)
                supervisor.note_blocked(pid, src, tag, now)
            elif kind == "send":
                supervisor.observe_frame(pid, now)
            elif kind in ("crash", "respawn"):
                supervisor.note_crashed(pid, rest[0],
                                        restarting=kind == "respawn")
            elif kind == "lost":
                src, tag = rest
                supervisor.observe_frame(pid, now, ends_wait=False)
                supervisor.note_lost(pid, src, tag)
        failure = supervisor.check(now)
        if failure is not None:
            return tick, failure.blamed, failure.phase
    raise AssertionError("no blame within the horizon")


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
@pytest.mark.parametrize("clock", [on_round_clock, on_seconds_clock],
                         ids=["rounds", "seconds"])
def test_both_clocks_name_the_same_culprit(clock, scenario):
    tick, blamed, phase = clock(scenario)
    assert (blamed, phase) == (scenario.blamed, scenario.phase)
    assert tick >= scenario.not_before


class TestBlameRule:
    def test_units_do_not_matter(self):
        """Rounds and seconds order the waits alike."""
        for scale in (1, 0.25):
            timeout = blame(
                {3: Wait(Recv(src=1, tag=BETA), 2 * scale),
                 4: Wait(Recv(src=2, tag=TAU), 1 * scale)},
                crashed={}, lost={}, phase_of=phase_of_tag,
            )
            assert (timeout.blamed, timeout.phase) == (2, "chain")
            assert set(timeout.waiting) == {3, 4}

    def test_lowest_crashed_party_reports_its_own_phase(self):
        timeout = blame(
            {1: Wait(Recv(src=0, tag=BETA), 0)},
            crashed={4: "chain", 2: None}, lost={1: (0, BETA)},
            phase_of=phase_of_tag, round=9,
        )
        assert (timeout.blamed, timeout.phase, timeout.round) == (2, None, 9)


class TestWallClockSupervisor:
    def test_waiting_on_a_dead_party_expires_at_once(self):
        supervisor = WallClockSupervisor(100.0)
        supervisor.note_blocked(1, 0, BETA, now=0.0)
        assert supervisor.check(0.1) is None
        supervisor.note_crashed(0, "comparison")
        failure = supervisor.check(0.2)
        assert (failure.blamed, failure.phase) == (0, "comparison")
        assert supervisor.timeouts == 1

    def test_rejoined_party_is_forgiven(self):
        supervisor = WallClockSupervisor(1.0)
        supervisor.note_crashed(2, "chain", restarting=True)
        supervisor.forgive(2)
        assert supervisor.crashed == {} and supervisor.rejoins == 1
        supervisor.note_blocked(1, 2, TAU, now=0.0)
        assert supervisor.check(1.0).blamed == 2

    def test_frames_sent_while_blocked_keep_the_wait(self):
        supervisor = WallClockSupervisor(1.0)
        supervisor.note_blocked(1, 0, BETA, now=0.0)
        supervisor.observe_frame(1, 0.5, ends_wait=False)
        assert 1 in supervisor.blocked
        supervisor.observe_frame(1, 0.6)
        assert supervisor.blocked == {}

    def test_floor_only_ever_extends(self):
        supervisor = WallClockSupervisor(2.0)
        assert supervisor.deadline_s() == 2.0
        supervisor.observe_frame(0, 0.0)
        supervisor.observe_frame(0, 0.01)
        assert supervisor.deadline_s() == 2.0
        supervisor.observe_frame(0, 1.0)
        supervisor.observe_frame(0, 2.0)
        assert supervisor.deadline_s() > 2.0
