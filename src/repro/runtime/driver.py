"""Sans-IO driver of one party's protocol generator.

Both runtimes — the lockstep :class:`~repro.runtime.engine.Engine` and
the per-process :class:`~repro.runtime.transport.host.PartyHost` — step
party generators through a :class:`PartyDriver`.  The driver does no
scheduling and no socket work: it sends a message (or ``None``) into the
generator and returns the effect the party blocks on next; *when* and
*from where* the next message comes is the runtime's business.

What the two runtimes must agree on lives here: the effect type check,
op metering (the party's counter is attached to the metered groups only
while its code runs), and kill-and-rejoin journal replay — journaled
receives fed in order, round pauses the first life waited out skipped,
journaled sends suppressed, and the party live again at the first send
past the journal, the one the first life died on.  Any divergence
raises :class:`~repro.runtime.checkpoint.CheckpointError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Callable, Deque, Optional, Sequence, Tuple, Union

from repro.runtime.channels import Message, NextRound, Recv
from repro.runtime.checkpoint import CheckpointError
from repro.runtime.errors import ProtocolError

#: What a step leaves the party blocked on; ``None`` once it finished.
Effect = Optional[Union[Recv, NextRound]]


class PartyDriver:
    """Steps one party's generator; replays its journal when rejoining.

    ``groups`` are the group objects whose operations are metered on
    the party.  ``checkpoints`` (or ``None``) is the party's
    :class:`~repro.runtime.checkpoint.CheckpointManager`.  ``plan`` makes
    the driver replay before going live; ``carried_metrics`` is then the
    first life's metrics object, swapped back in at the death point so
    the replayed prefix is never counted twice.  ``tick`` (or ``None``)
    is called with each replayed receive, and with ``None`` for each
    replayed round pause, before the party resumes: a runtime that
    keeps its own round clock advances it exactly as the first life did.
    """

    def __init__(
        self,
        party: Any,
        groups: Sequence[Any],
        checkpoints: Optional[Any] = None,
        plan: Optional[Any] = None,
        carried_metrics: Optional[Any] = None,
        tick: Optional[Callable[[Optional[Message]], None]] = None,
    ):
        self.party = party
        self.groups = list(groups)
        self.checkpoints = checkpoints
        self.generator = party.protocol()
        self.replaying = plan is not None
        self._received: Deque[Message] = deque(plan.received if plan else ())
        self._sends: Deque[Tuple[int, str]] = plan.sends if plan else deque()
        self._carried_metrics = carried_metrics
        self._tick = tick

    def step(self, message: Optional[Message] = None) -> Effect:
        """Send ``message`` (``None`` to start or resume) into the party
        and run it until it blocks live or finishes.

        While replaying, journaled receives are fed and round pauses
        skipped without returning, so the caller only ever sees the
        effects of the live party.
        """
        feed = message
        while True:
            self._attach(self.party.metrics.ops)
            try:
                effect = self.generator.send(feed)
            except StopIteration:
                if self.replaying:
                    raise CheckpointError(
                        f"party {self.party.party_id} finished mid-replay; its "
                        "journal does not match a deterministic re-execution"
                    )
                return None
            finally:
                self._attach(None)
            if not isinstance(effect, (Recv, NextRound)):
                raise ProtocolError(
                    f"party {self.party.party_id} yielded {effect!r}; parties "
                    "may only yield Recv or NextRound"
                )
            if not self.replaying:
                return effect
            # The first life already waited out its round pauses.
            feed = None if isinstance(effect, NextRound) else self._journaled(effect)
            if self._tick is not None:
                self._tick(feed)

    def _journaled(self, want: Recv) -> Message:
        if not self._received:
            raise CheckpointError(
                f"party {self.party.party_id} blocked on {want!r} mid-replay "
                "with no journaled message left"
            )
        message = self._received.popleft()
        if not want.matches(message):
            raise CheckpointError(
                f"replay divergence: party {self.party.party_id} wants "
                f"{want!r} but its journal delivers "
                f"({message.src}, {message.tag!r})"
            )
        # accounted=True: the first life already credited this receive.
        return replace(message, accounted=True)

    def suppress_send(self, dst: int, tag: str) -> bool:
        """True for a replayed send the first life already put on the
        wire.  The first send past the journal makes the party live and
        returns False: the runtime then issues it for real."""
        if not self.replaying:
            return False
        if self._sends:
            expected = self._sends.popleft()
            if expected != (dst, tag):
                raise CheckpointError(
                    f"replay divergence: party {self.party.party_id} sent "
                    f"({dst}, {tag!r}) but its journal says {expected}"
                )
            return True
        self._finish_replay()
        return False

    def _finish_replay(self) -> None:
        """Death-point transition, mid-step: from here the party runs
        live.  With carried metrics, the replayed prefix's scratch
        metrics are discarded and counters re-attached, so ops later in
        this same step land on the carried object."""
        self.replaying = False
        if self._carried_metrics is not None:
            self.party.metrics = self._carried_metrics
            self._attach(self.party.metrics.ops)
        if self.checkpoints is not None:
            self.checkpoints.finish_replay(self.party.party_id)

    def note_phase(self, round: int) -> bool:
        """Phase-boundary snapshot.  False while replaying: the first
        life already snapshotted these boundaries."""
        if self.replaying:
            return False
        if self.checkpoints is not None:
            self.checkpoints.snapshot_party(self.party, round)
        return True

    def close(self) -> None:
        """Release the generator frame (and anything it holds)."""
        self.generator.close()

    def _attach(self, counter: Optional[Any]) -> None:
        for group in self.groups:
            group.attach_counter(counter)
