"""Deadline supervision: timeouts, bounded retransmits, typed blame.

The engine calls :meth:`Supervisor.on_quiescent` when a round made no
progress and no delayed deliveries are in flight — the simulated-time
equivalent of "every local timer is about to fire".  The supervisor then
either heals the run or converts the stall into a typed error:

1. **Retransmit.**  If a message known to have been lost on the wire
   (recorded by the engine when the fault injector dropped or stalled
   it) matches some blocked party's pending receive, it is re-sent with
   exponential backoff, up to ``max_retries`` attempts per message.
   This models a reliable-delivery layer: a transiently dropped message
   costs latency, not the run.
2. **Blame a crashed party.**  A party waiting on a peer the engine
   knows to be dead can never be satisfied; the supervisor raises
   :class:`~repro.runtime.errors.PartyTimeout` naming the dead party.
3. **Blame a silent channel.**  When retries are exhausted the sender of
   the lost message is blamed; when a party simply never sends (a stalled
   or buggy peer) the party the receiver is waiting on is blamed.

All decisions are functions of engine state only, so runs stay
deterministic: the same seed and fault plan produce the same outcome.
Steps 2 and 3 are the pure :func:`blame` rule, which the socket
transport's wall-clock supervisor applies too, with seconds for rounds.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, Mapping, NamedTuple, Optional, Tuple,
)

from repro.runtime.channels import Recv
from repro.runtime.errors import PartyTimeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import Engine


class Supervisor:
    """Converts engine quiescence into retransmits or typed timeouts.

    ``timeout_rounds`` is the per-receive deadline measured in engine
    rounds; ``max_retries`` bounds retransmit attempts per lost message;
    attempt ``i`` backs off ``backoff_base * 2**i`` rounds.  ``phase_of``
    maps message tags to named protocol phases for blame reports.
    """

    def __init__(
        self,
        timeout_rounds: int = 4,
        max_retries: int = 2,
        backoff_base: int = 1,
        phase_of: Optional[Callable[[str], str]] = None,
        adaptive: bool = False,
        ewma_alpha: float = 0.2,
        deadline_factor: float = 3.0,
    ):
        if timeout_rounds < 1:
            raise ValueError("timeout_rounds must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff_base < 1:
            raise ValueError("backoff_base must be at least 1")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if deadline_factor < 1.0:
            raise ValueError("deadline_factor must be at least 1")
        self.timeout_rounds = timeout_rounds
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.phase_of = phase_of or (lambda tag: tag)
        self.adaptive = adaptive
        self.ewma_alpha = ewma_alpha
        self.deadline_factor = deadline_factor
        self.retransmits = 0
        self.timeouts = 0
        self.rejoins = 0
        # party_id -> round it last rejoined in.  Bookkeeping only: a
        # rejoined party never enters the engine's crashed set, so the
        # blame logic below needs no rejoin-awareness — it simply never
        # sees the party as dead.
        self.rejoined: Dict[int, int] = {}
        # EWMA of how many rounds satisfied receives actually waited,
        # fed by the engine on every delivery (see Engine._try_satisfy).
        self.latency_ewma: Optional[float] = None

    # -- latency observation ---------------------------------------------------
    def observe_wait(self, rounds_waited: int) -> None:
        """Fold one satisfied receive's wait into the latency estimate.

        Called by the engine for every delivered message, whether or not
        ``adaptive`` is set — the estimate is free and tests/operators
        can always read it."""
        value = float(max(0, rounds_waited))
        if self.latency_ewma is None:
            self.latency_ewma = value
        else:
            alpha = self.ewma_alpha
            self.latency_ewma = alpha * value + (1.0 - alpha) * self.latency_ewma

    def effective_timeout_rounds(self) -> int:
        """The deadline currently in force.

        ``adaptive`` scales the observed EWMA latency by
        ``deadline_factor``; the configured ``timeout_rounds`` is a hard
        floor, so adaptation can only *extend* deadlines (protecting
        slow-but-honest parties under load), never tighten them."""
        if not self.adaptive or self.latency_ewma is None:
            return self.timeout_rounds
        import math

        return max(
            self.timeout_rounds, math.ceil(self.latency_ewma * self.deadline_factor)
        )

    def note_rejoin(self, party_id: int, round: int) -> None:
        """Record that a killed party was rebuilt from its checkpoint.

        Distinguishes "rejoining" from "blamed" in postmortems: the
        party appears here rather than in the engine's crashed set.
        """
        self.rejoins += 1
        self.rejoined[party_id] = round

    # -- engine hook ----------------------------------------------------------
    def on_quiescent(self, engine: "Engine") -> bool:
        """Heal or escalate a stalled engine.

        Returns ``True`` when the engine should keep running (idle round
        or a scheduled retransmit); raises :class:`PartyTimeout` when a
        deadline has expired and a culprit can be named; returns
        ``False`` to fall back to the engine's deadlock handling.
        """
        blocked: Dict[int, Recv] = engine.blocked_receives()
        if not blocked:
            return False
        # Deadlines have not expired yet: let simulated time pass.  The
        # engine counts idle rounds, so this terminates at the deadline.
        if not self._deadline_expired(engine, blocked):
            return True
        # 1. Retransmit a lost message some blocked party is waiting for.
        if self._retransmit(engine, blocked):
            return True
        # 2/3. Nothing can heal this: name the culprit.
        raise self._timeout(engine, blocked)

    # -- internals ------------------------------------------------------------
    def _deadline_expired(self, engine: "Engine", blocked: Dict[int, Recv]) -> bool:
        longest = max(
            engine.round - engine.waiting_since(pid) for pid in blocked
        )
        return longest >= self.effective_timeout_rounds()

    def _retransmit(self, engine: "Engine", blocked: Dict[int, Recv]) -> bool:
        for pid in sorted(blocked):
            want = blocked[pid]
            lost = engine.find_lost_message(pid, want)
            if lost is None:
                continue
            if lost.attempts >= self.max_retries:
                continue  # exhausted; fall through to blame
            delay = self.backoff_base * (2 ** lost.attempts)
            engine.retransmit(lost, engine.round + delay)
            self.retransmits += 1
            return True
        return False

    def _timeout(self, engine: "Engine", blocked: Dict[int, Recv]) -> PartyTimeout:
        self.timeouts += 1
        waits = {pid: Wait(want, engine.waiting_since(pid))
                 for pid, want in blocked.items()}
        lost: Dict[int, Tuple[int, str]] = {}
        for pid, want in blocked.items():
            found = engine.find_lost_message(pid, want)
            if found is not None:  # its retries are used up: see _retransmit
                lost[pid] = (found.message.src, found.message.tag)
        return blame(waits, engine.crashed, lost, self.phase_of,
                     round=engine.round)


class Wait(NamedTuple):
    """A blocked receive and when it began (a round or a second)."""

    want: Recv
    since: float


def blame(
    waits: Mapping[int, Wait],
    crashed: Mapping[int, Optional[str]],
    lost: Mapping[int, Tuple[int, str]],
    phase_of: Callable[[str], Optional[str]],
    round: Optional[int] = None,
) -> PartyTimeout:
    """Name the culprit of an expired deadline, on either clock.

    ``waits`` maps each blocked party to its receive; ``crashed`` maps
    dead parties to the phase they died in; ``lost`` maps a blocked
    party to the (sender, tag) of a message it needs whose retransmits
    are used up.  Priority: the lowest crashed party; else the sender of
    the lowest party's lost message; else the party the longest-waiting
    party waits on (itself, for a wildcard receive).
    """
    waiting = {pid: wait.want for pid, wait in waits.items()}
    if crashed:
        blamed = min(crashed)
        return PartyTimeout(blamed, phase=crashed[blamed], round=round,
                            waiting=waiting)
    if lost:
        src, tag = lost[min(lost)]
        return PartyTimeout(src, phase=phase_of(tag), round=round,
                            waiting=waiting)
    pid = min(waits, key=lambda p: (waits[p].since, p))
    want = waits[pid].want
    blamed = want.src if want.src is not None else pid
    return PartyTimeout(blamed, phase=phase_of(want.tag), round=round,
                        waiting=waiting)
