"""Outside-in layer tracing for the benchmark.

Wrappers are installed from here around the public entry points of each
``repro`` layer (module functions and class methods, looked up at call
time by the program).  Each wrapper keeps one call stack per process, so
a span's *self time* is its duration minus the time its child spans
cover, and the self times of all spans add up to the wall-clock time
the outermost spans cover.

A wrapper records only a span name, two clock readings and counts.  It
never stores an argument or a return value, so no secret (ρ, a key
share, a masked gain β) can reach a trace file.  Two wrappers read
*public* facts and keep only a derived number: the frame wrapper keeps
the byte length of a packed frame, and the party-step wrappers map a
party's declared phase name onto the paper's phase number (1, 2 or 3).

Phase time is the time parties spend executing protocol steps (the
generator steps the engine or the socket host drives), split at each
``set_phase`` call and summed over parties.  The lockstep engine runs
one party at a time, so in-process the three phases add up to the
ranking's wall-clock time spent inside party code.

Spans are held in memory and written once, at the end, as Chrome
trace-event JSON (opens in Perfetto or ``chrome://tracing``).  The hot
arithmetic and per-element wrappers are counted but not stored one by
one, which keeps memory bounded on runs with millions of calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (span name, module, attribute path, store each span).  A span name
#: shared by several targets sums them into one layer row.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("math.powmod", "repro.math.backend", "powmod", False),
    ("math.mulmod", "repro.math.backend", "mulmod", False),
    ("math.jacobi", "repro.math.backend", "jacobi", False),
    ("math.invert", "repro.math.backend", "invert", False),
    ("groups.exp", "repro.groups.dl", "DLGroup.exp", False),
    ("groups.is_element", "repro.groups.dl", "DLGroup.is_element", False),
    ("groups.deserialize", "repro.groups.dl", "DLGroup.deserialize", False),
    ("crypto.encrypt", "repro.crypto.elgamal", "ElGamal.encrypt", False),
    ("crypto.encrypt", "repro.crypto.elgamal",
     "ExponentialElGamal.encrypt", False),
    ("crypto.peel_layer", "repro.crypto.distkey",
     "DistributedKey.peel_layer", False),
    ("crypto.rerandomize", "repro.crypto.elgamal", "ElGamal.rerandomize",
     False),
    ("crypto.rerandomize", "repro.crypto.distkey",
     "DistributedKey.rerandomize_exponent", False),
    ("crypto.rerandomize", "repro.crypto.distkey",
     "DistributedKey.rerandomize_with_exponent", False),
    ("crypto.zkp_verify", "repro.crypto.zkp",
     "MultiVerifierSchnorrProof.verify_multi", True),
    ("crypto.zkp_verify", "repro.crypto.zkp",
     "NonInteractiveSchnorrProof.verify", True),
    ("crypto.zkp_verify", "repro.crypto.zkp", "batch_verify_schnorr", True),
    ("crypto.zkp_verify", "repro.crypto.distkey",
     "ShareProofBatch.verify_and_register", True),
    ("crypto.zkp_verify", "repro.crypto.zkp", "batch_verify_nizk_or_abort",
     True),
    ("crypto.zkp_verify", "repro.core.comparison",
     "verify_bit_proofs_or_abort", True),
    ("dotproduct", "repro.dotproduct.ioannidis",
     "DotProductProtocol.bob_request", True),
    ("dotproduct", "repro.dotproduct.ioannidis",
     "DotProductProtocol.alice_respond", True),
    ("dotproduct", "repro.dotproduct.ioannidis",
     "DotProductProtocol.bob_recover", True),
    ("core.comparison", "repro.core.comparison",
     "HomomorphicComparator.encrypted_taus", True),
    ("core.shuffle", "repro.core.shuffle", "ShuffleProcessor.apply_set",
     True),
    ("core.shuffle", "repro.core.shuffle",
     "ShuffleProcessor.process_vector", True),
    ("core.shuffle", "repro.core.shuffle",
     "ShuffleProcessor.decrypt_residues", True),
    ("core.chain_set_flaw", "repro.core.shuffle", "chain_set_flaw", False),
    ("wire.prepare", "repro.runtime.channels", "WireTransport.prepare",
     False),
    ("wire.encode", "repro.runtime.wire", "WireCodec.encode", False),
    ("wire.encode", "repro.runtime.wire", "WireCodecV2.encode", False),
    ("wire.decode", "repro.runtime.wire", "WireCodec.decode", False),
    ("wire.decode", "repro.runtime.wire", "WireCodecV2.decode", False),
    ("engine.run", "repro.runtime.engine", "Engine.run", True),
    ("sharding.rank_champions", "repro.sharding.aggregate",
     "rank_champions", True),
    ("sharding.shards", "repro.sharding.hierarchy", "_run_shards", True),
)

#: Frames packed by the socket transport; the wrapper keeps the length.
FRAME_TARGET = ("transport.frame", "repro.runtime.transport.frames",
                "pack_frame")
#: Party classes whose protocol steps are timed by phase.
PARTY_TARGETS = (
    ("repro.core.parties", "InitiatorParty"),
    ("repro.core.parties", "ParticipantParty"),
    ("repro.sharding.parties", "GainServiceInitiator"),
    ("repro.sharding.parties", "GainOnlyParticipant"),
    ("repro.sharding.parties", "SubmissionInitiator"),
    ("repro.sharding.parties", "RankedSubmitter"),
)
#: Declared party phases mapped onto the paper's phases; 0 = before any.
PAPER_PHASE = {"gain": 1, "keying": 2, "comparison": 2, "chain": 2,
               "aggregate": 2, "submission": 3}

#: Stored spans per process; past this, spans are only aggregated.
SPAN_LIMIT = 200_000

_clock = time.perf_counter  # CLOCK_MONOTONIC: one timebase across processes


class Tracer:
    """Per-process span stack with aggregated per-name counters.

    ``calls`` and ``total_s`` count outermost invocations of a name only
    (a wrapper that re-enters its own name, such as a subclass method
    calling ``super()``, is one call); ``self_s`` sums every invocation.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._stack: List[list] = []
        self._open: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.phase_s: Dict[int, float] = defaultdict(float)
        self._step: Optional[list] = None  # [party, start of current slice]
        self.spans: List[Tuple[str, float, float]] = []
        self.dropped = 0

    def enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([name, _clock(), 0.0])

    def exit(self, keep: bool) -> None:
        end = _clock()
        name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        depth = self._open[name] - 1
        self._open[name] = depth
        if depth == 0:
            self.calls[name] += 1
            self.total_s[name] += duration
        if keep:
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((name, start, end))
            else:
                self.dropped += 1

    def step(self, party, generator, value):
        """Advance a party's protocol by one step, timing it by phase."""
        outer, self._step = self._step, [party, _clock()]
        try:
            return generator.send(value)
        finally:
            self._close_slice()
            self._step = outer

    def phase_changing(self, party) -> None:
        """Close the running slice before ``party`` declares a new phase."""
        if self._step is not None and self._step[0] is party:
            self._close_slice()
            self._step[1] = _clock()

    def _close_slice(self) -> None:
        party, start = self._step
        self.phase_s[PAPER_PHASE.get(party.phase, 0)] += _clock() - start

    def summary(self) -> dict:
        """Plain-data view (JSON-able) of the counters and spans."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "phase_s": dict(self.phase_s),
            "spans": list(self.spans),
            "dropped": self.dropped,
        }


def _span_wrapper(fn: Callable, name: str, tracer: Tracer,
                  keep: bool) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(keep)

    return traced


def _frame_wrapper(fn: Callable, name: str, tracer: Tracer) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            frame = fn(*args, **kwargs)
        finally:
            exit_(False)
        tracer.counts["transport.frame_bytes"] += len(frame)
        return frame

    return traced


class _TimedSteps:
    """A party's protocol generator, stepped through the tracer."""

    def __init__(self, party, generator, tracer: Tracer):
        self._party, self._generator, self._tracer = party, generator, tracer

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.step(self._party, self._generator, None)

    def send(self, value):
        return self._tracer.step(self._party, self._generator, value)

    def close(self) -> None:
        self._generator.close()


def _protocol_wrapper(fn: Callable, tracer: Tracer) -> Callable:
    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        return _TimedSteps(self, fn(self, *args, **kwargs), tracer)

    return traced


def _set_phase_wrapper(fn: Callable, tracer: Tracer) -> Callable:
    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        tracer.phase_changing(self)
        return fn(self, *args, **kwargs)

    return traced


def _resolve(module_name: str, path: str, generator: bool = False):
    """(owner object, attribute name, original callable)."""
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for part in classes:
        owner = getattr(owner, part)
    if classes and attr not in vars(owner):
        raise AttributeError(f"{module_name}.{path} is inherited, not defined")
    original = getattr(owner, attr)
    if inspect.iscoroutinefunction(original) or (
        inspect.isgeneratorfunction(original) != generator
    ):
        kind = "generator" if generator else "plain"
        raise TypeError(f"{module_name}.{path} is not a {kind} function")
    return owner, attr, original


class Installation:
    """The wrappers installed around the layers; ``remove`` restores."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))
        if inspect.ismodule(owner):
            # Modules that imported the function by name call their own
            # binding; rebind those too.
            for module in list(sys.modules.values()):
                if (module is not owner
                        and getattr(module, "__name__", "").startswith("repro")
                        and vars(module).get(attr) is original):
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every target, the frame packer and the party steps."""
    installation = Installation()
    for name, module_name, path, keep in TARGETS:
        owner, attr, original = _resolve(module_name, path)
        installation.patch(owner, attr, original,
                           _span_wrapper(original, name, tracer, keep))
    name, module_name, path = FRAME_TARGET
    owner, attr, original = _resolve(module_name, path)
    installation.patch(owner, attr, original,
                       _frame_wrapper(original, name, tracer))
    for module_name, cls in PARTY_TARGETS:
        owner, attr, original = _resolve(module_name, f"{cls}.protocol",
                                         generator=True)
        installation.patch(owner, attr, original,
                           _protocol_wrapper(original, tracer))
    owner, attr, original = _resolve("repro.runtime.party", "Party.set_phase")
    installation.patch(owner, attr, original,
                       _set_phase_wrapper(original, tracer))
    return installation


# ---------------------------------------------------------------------------
# Party processes of the socket transport
# ---------------------------------------------------------------------------

#: Environment variable naming the directory party reports go to.
PARTY_TRACE_ENV = "PERFBENCH_PARTY_TRACE"


def _process_age_s() -> float:
    """Seconds since this process was started by the kernel."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    start_ticks = int(fields[19])  # field 22: starttime, ticks since boot
    ticks = os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / ticks


def install_party_hook(out_dir: str, party_id: int) -> None:
    """Trace this ``serve-party`` process and report it when it ends.

    Wraps the layers and ``serve_party`` itself; the report holds the
    tracer summary, the start-up time (process start → ``serve_party``
    entry, which here includes importing every wrapped layer), the wall
    and CPU time inside ``serve_party`` and the process's total CPU time.
    """
    tracer = Tracer()
    installation = install(tracer)
    owner, attr, original = _resolve("repro.runtime.transport.host",
                                     "serve_party")

    @functools.wraps(original)
    def traced_serve_party(*args, **kwargs):
        startup = _process_age_s()
        entered, cpu_in = _clock(), time.process_time()
        try:
            return original(*args, **kwargs)
        finally:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            report = {
                "party": party_id,
                "startup_s": startup,
                "wall_s": _clock() - entered,
                "serve_cpu_s": time.process_time() - cpu_in,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "trace": tracer.summary(),
            }
            path = os.path.join(out_dir, f"party-{party_id}-{os.getpid()}.json")
            with open(path, "w") as handle:
                json.dump(report, handle)

    installation.patch(owner, attr, original, traced_serve_party)


def read_party_reports(out_dir: str) -> List[dict]:
    reports = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("party-") and entry.endswith(".json"):
            with open(os.path.join(out_dir, entry)) as handle:
                reports.append(json.load(handle))
    return reports


# ---------------------------------------------------------------------------
# Per-layer metrics and the trace file
# ---------------------------------------------------------------------------

def merge_summaries(summaries: Iterable[dict]) -> dict:
    """Sum the counters of several processes' summaries."""
    merged: Dict[str, dict] = {
        "calls": defaultdict(int), "self_s": defaultdict(float),
        "total_s": defaultdict(float), "counts": defaultdict(int),
        "phase_s": defaultdict(float),
    }
    for summary in summaries:
        for key, table in merged.items():
            for name, value in summary[key].items():
                # JSON round trips turn the integer phase keys into text.
                table[int(name) if key == "phase_s" else name] += value
    return merged


def write_chrome_trace(path: str,
                       processes: Iterable[Tuple[int, str, dict]]) -> None:
    """Write (pid, label, summary) triples as Chrome trace-event JSON."""
    events: List[dict] = []
    dropped = 0
    for pid, label, summary in processes:
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        for name, start, end in summary["spans"]:
            events.append({"ph": "X", "name": name, "pid": pid, "tid": 0,
                           "ts": start * 1e6, "dur": (end - start) * 1e6})
        dropped += summary["dropped"]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"spans_not_stored": dropped}}, handle)


def maybe_install_from_environment(argv: List[str]) -> None:
    """Start-up hook body: trace a ``serve-party`` process when asked."""
    out_dir = os.environ.get(PARTY_TRACE_ENV)
    if out_dir and "serve-party" in argv:
        party_id = int(argv[argv.index("--party-id") + 1])
        install_party_hook(out_dir, party_id)
