"""Wall-clock supervision for the socket transport.

The in-process :class:`~repro.runtime.supervisor.Supervisor` counts
quiescent *rounds*; on real sockets there are no rounds to count, so
deadlines are seconds.  The discipline is the same, transplanted to the
wall clock:

* a wait expires only once the whole cohort has gone quiet — no party
  has sent a protocol frame (PONGs excluded) for a full deadline.  This
  is the wall-clock form of the engine calling the supervisor only when
  no party can make progress: a party blocked on a peer says nothing
  about the rest of the cohort, which may still be working towards that
  peer's send;
* the configured timeout is a **floor** — EWMA adaptation only ever
  extends it (a slow-but-alive cohort earns longer deadlines; nothing
  shortens them below the operator's setting);
* the deadline adapts to *measured* traffic: an EWMA over inter-frame
  gaps per party plus an EWMA of ping RTT, so a deadline is never
  tighter than the loopback (or LAN) can physically meet;
* on expiry the culprit is named by the engine's own pure
  :func:`~repro.runtime.supervisor.blame` rule: a crashed party first,
  then the sender of a message reported lost (retransmits exhausted),
  then the party the longest-waiting party waits on.

Waiting on a party that died and is not being respawned expires at
once — process death is observable on a socket (EOF), there is nothing
to wait out.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.parties import phase_of_tag
from repro.runtime.channels import Recv
from repro.runtime.errors import PartyTimeout
from repro.runtime.supervisor import Wait, blame

#: EWMA smoothing factor for inter-frame gaps and RTT samples.
ALPHA = 0.2
#: Deadline = max(floor, GAP_FACTOR * gap EWMA + RTT_FACTOR * rtt EWMA):
#: generous multiples, because a false timeout costs a whole recovery
#: restart while a late one costs only seconds.
GAP_FACTOR = 8.0
RTT_FACTOR = 4.0


class WallClockSupervisor:
    """Deadline bookkeeping for one distributed attempt."""

    def __init__(self, floor_s: float, adaptive: bool = True):
        self.floor_s = floor_s
        self.adaptive = adaptive
        self.gap_ewma: Optional[float] = None
        self.rtt_ewma: Optional[float] = None
        self._last_frame: Dict[int, float] = {}
        self.blocked: Dict[int, Wait] = {}
        # receiver -> (sender, tag) of a message whose retries ran out
        self.lost: Dict[int, Tuple[int, str]] = {}
        self.crashed: Dict[int, Optional[str]] = {}  # dead pid -> phase
        self.restarting: set = set()        # dead but being respawned
        self.rejoins = 0
        self.timeouts = 0

    # -- observations -------------------------------------------------------

    def observe_frame(self, pid: int, now: float,
                      ends_wait: bool = True) -> None:
        """A protocol frame from ``pid``: liveness, gap sample and cohort
        activity.  ``ends_wait`` is False for the frames a party still
        sends while blocked (status reports, resends, β harvest)."""
        last = self._last_frame.get(pid)
        if last is not None:
            gap = now - last
            self.gap_ewma = (
                gap if self.gap_ewma is None
                else (1 - ALPHA) * self.gap_ewma + ALPHA * gap
            )
        self._last_frame[pid] = now
        if ends_wait:
            self.blocked.pop(pid, None)

    def observe_rtt(self, sample_s: float) -> None:
        self.rtt_ewma = (
            sample_s if self.rtt_ewma is None
            else (1 - ALPHA) * self.rtt_ewma + ALPHA * sample_s
        )

    def note_blocked(self, pid: int, waiting_src: Optional[int], tag: str,
                     now: float) -> None:
        self.blocked[pid] = Wait(Recv(src=waiting_src, tag=tag), now)

    def note_lost(self, pid: int, src: int, tag: str) -> None:
        self.lost[pid] = (src, tag)

    def note_crashed(self, pid: int, phase: Optional[str],
                     restarting: bool = False) -> None:
        self.crashed[pid] = phase
        if restarting:
            self.restarting.add(pid)

    def forgive(self, pid: int) -> None:
        """A crashed party rejoined: stop holding its death against it."""
        self.crashed.pop(pid, None)
        self.restarting.discard(pid)
        self.rejoins += 1

    # -- deadline -----------------------------------------------------------

    def deadline_s(self) -> float:
        if not self.adaptive or self.gap_ewma is None:
            return self.floor_s
        adapted = GAP_FACTOR * self.gap_ewma + RTT_FACTOR * (self.rtt_ewma or 0.0)
        return max(self.floor_s, adapted)

    def check(self, now: float) -> Optional[PartyTimeout]:
        """Blame once the waits expire; ``None`` while the cohort is
        within its deadline."""
        if not self.blocked:
            return None
        waits = self.blocked.values()
        quiet_since = max([*self._last_frame.values(),
                           *(wait.since for wait in waits)])
        # Waiting on a corpse is hopeless *unless* the corpse is being
        # respawned — then the wait is exactly what a rejoin needs, and
        # only the ordinary deadline bounds it.
        hopeless = any(
            wait.want.src in self.crashed
            and wait.want.src not in self.restarting
            for wait in waits
        )
        if not hopeless and now - quiet_since < self.deadline_s():
            return None
        self.timeouts += 1
        return blame(self.blocked, self.crashed, self.lost, phase_of_tag)
