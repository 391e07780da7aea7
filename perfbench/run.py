"""The repository benchmark: full rankings through the public API.

Usage, from the repository root::

    python3 perfbench/run.py --workload inproc-dl48-n8 --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --list

``--trace 0`` runs rankings back to back for ``--seconds`` seconds with
no tracing, checks each with ``framework.check_result`` and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced
rankings on the same inputs (each on a fresh group object, so neither
sees the other's memo caches) and reports the per-layer metrics of the
traced ones; its Chrome trace goes to ``.perfbench/``.  Every metric is
printed by name with its unit, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

A ranking that raises or fails ``check_result`` counts as failed and
stays in ``attempted``; per-ranking times are medians and per-ranking
counts are means, both over the verified rankings only (``null`` when
there are none).

The timed end-to-end metrics (``ranking_s``, ``rankings_per_hour``,
``cpu_s``, ``setup_s``) are in reference seconds: each is scaled by a
fixed standard-library calibration unit timed in the same run (see
``calibrate``), so that a shared host's swings in speed do not read as
changes to the program.  The raw figures are printed above the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, NoReturn, Optional, Tuple

import layertrace
from calibrate import REFERENCE_S, Calibration
from workloads import (
    STANDING_FAILURES,
    WORKLOADS,
    Workload,
    build_framework,
    build_group,
    ranking_inputs,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
PARTY_HOOK = os.path.join(HERE, "partyhook")

#: Fresh interpreters started to time set-up; their median is setup_s.
SETUP_PROBES = 5
#: Calibration units run before the first ranking, as warm-up and so
#: that a run of few rankings still has a steady median.
CALIBRATION_WARMUP = 10
#: Calibration units run before each set-up probe.
CALIBRATION_PER_PROBE = 2
#: Share of a run spent on calibration units, run before each ranking in
#: proportion to the last ranking's time so slow rankings get more.
CALIBRATION_SHARE = 0.05
#: Verified rankings whose transcripts are replayed over the WAN model;
#: their median is wan_predicted_s (a replay costs about a ranking).
WAN_REPLAYS = 5
#: Grace for party processes to exit after a ranking ends.
PARTY_EXIT_GRACE_S = 10.0

END_TO_END = (
    ("ranking_s", "s"),
    ("rankings_per_hour", "1/h"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wire_bytes", "bytes"),
    ("wire_messages", "count"),
    ("rounds", "count"),
    ("participant_mults", "count"),
    ("wan_predicted_s", "s"),
)

PER_LAYER = (
    ("math.powmod.calls", "count"), ("math.powmod.self_s", "s"),
    ("math.mulmod.calls", "count"), ("math.mulmod.self_s", "s"),
    ("math.jacobi.calls", "count"), ("math.jacobi.self_s", "s"),
    ("math.invert.calls", "count"), ("math.invert.self_s", "s"),
    ("groups.exp.calls", "count"), ("groups.exp.self_s", "s"),
    ("groups.is_element.calls", "count"), ("groups.is_element.self_s", "s"),
    ("groups.membership_hit_ratio", "ratio"),
    ("groups.deserialize.calls", "count"), ("groups.deserialize.self_s", "s"),
    ("crypto.encrypt.total_s", "s"), ("crypto.peel_layer.total_s", "s"),
    ("crypto.rerandomize.total_s", "s"), ("crypto.zkp_verify.total_s", "s"),
    ("dotproduct.total_s", "s"),
    ("core.phase1_s", "s"), ("core.phase2_s", "s"), ("core.phase3_s", "s"),
    ("core.comparison.total_s", "s"), ("core.shuffle.total_s", "s"),
    ("core.chain_set_flaw.calls", "count"),
    ("wire.prepare.total_s", "s"), ("wire.encode.self_s", "s"),
    ("wire.decode.calls", "count"), ("wire.decode.total_s", "s"),
    ("engine.run.self_s", "s"),
    ("transport.startup_s", "s"), ("transport.party_cpu_s", "s"),
    ("transport.party_wait_s", "s"), ("transport.frames", "count"),
    ("transport.frame_bytes", "bytes"),
    ("sharding.rank_champions.total_s", "s"), ("sharding.shards_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
)


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no program to benchmark: {SRC}/repro is missing")
    sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# One ranking
# ---------------------------------------------------------------------------

@dataclass
class Ranking:
    ok: bool
    wall_s: float
    cpu_s: float
    result: object = None
    error: str = ""


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _live_children() -> List[int]:
    """Pids of this process's children that have not exited."""
    me, alive = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def _reap_party_processes() -> int:
    """Wait for party processes to end; kill and count any that do not."""
    deadline = time.monotonic() + PARTY_EXIT_GRACE_S
    while _live_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = _live_children()
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in leaked:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # already reaped by the event loop's child watcher
    return len(leaked)


def run_ranking(workload: Workload, framework) -> Ranking:
    cpu0, children0 = time.process_time(), _children_cpu()
    start = time.perf_counter()
    try:
        result = framework.run()
    # A raised ranking is a counted failure, never a crash of the bench.
    except Exception as exc:  # noqa: BLE001
        end = time.perf_counter()
        ranking = Ranking(False, end - start, 0.0,
                          error=f"{type(exc).__name__}: {exc}")
    else:
        end = time.perf_counter()
        problems = framework.check_result(result)
        ranking = Ranking(not problems, end - start, 0.0, result,
                          "; ".join(problems))
    if workload.transport == "tcp":
        leaked = _reap_party_processes()
        if leaked:
            print(f"  {leaked} party processes outlived the ranking; killed",
                  flush=True)
    ranking.cpu_s = (time.process_time() - cpu0
                     + _children_cpu() - children0)
    return ranking


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def _mean(values: List[float]) -> float:
    """Per-ranking count: the run's total over its verified rankings."""
    return sum(values) / len(values)


def _wan_predicted_s(result, n: int) -> float:
    from repro.math.rng import SeededRNG
    from repro.netsim import LinkConfig, paper_topology, replay_transcript

    topology = paper_topology(SeededRNG(7))
    topology.place_parties(list(range(n + 1)), SeededRNG(8))
    return replay_transcript(result.transcript, topology,
                             LinkConfig()).total_time_s


def _setup_probe(workload: Workload, seed: int) -> None:
    """Child side of a set-up probe: get the first ranking ready."""
    _import_program()
    build_framework(workload, build_group(workload),
                    ranking_inputs(seed, 0, workload.n))
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _setup_seconds(workload: Workload, seed: int) -> Tuple[float, float]:
    """Median over fresh interpreters of start → first ranking ready.

    Returns the raw median and the scale of calibration units run just
    before each probe.
    """
    samples = []
    calibration = Calibration()
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", workload.name, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        calibration.sample(CALIBRATION_PER_PROBE)
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            _fail(f"set-up probe failed (exit {probe.returncode})")
        samples.append(ready - start)
    return statistics.median(samples), calibration.wall_scale()


def measure(workload: Workload, seed: int, seconds: float):
    """Rankings back to back until the next would overrun ``seconds``.

    The set-up probes run first, inside the ``seconds``; the WAN replays
    run after the rankings (and after peak RSS is read, since a replay
    needs more memory than a ranking).  Calibration units run before
    each ranking; the timed metrics are scaled by the run's calibration
    medians (see ``calibrate``).
    """
    start = time.perf_counter()
    setup_raw, setup_scale = _setup_seconds(workload, seed)
    group = build_group(workload)
    rankings: List[Ranking] = []
    calibration = Calibration()
    calibration.sample(CALIBRATION_WARMUP)
    while True:
        last_s = rankings[-1].wall_s if rankings else 0.0
        calibration.sample(max(1, round(CALIBRATION_SHARE * last_s
                                        / REFERENCE_S)))
        inputs = ranking_inputs(seed, len(rankings), workload.n)
        rankings.append(run_ranking(workload,
                                    build_framework(workload, group, inputs)))
        elapsed = time.perf_counter() - start
        if elapsed + _median([r.wall_s for r in rankings]) > seconds:
            break
    verified = [r for r in rankings if r.ok]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.transport == "tcp":
        rss_kb = max(rss_kb,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values: Dict[str, Optional[float]] = dict.fromkeys(
        name for name, _ in END_TO_END)
    if verified:
        wall = sum(r.wall_s for r in rankings)
        values.update(
            ranking_s=_median([r.wall_s for r in verified]),
            rankings_per_hour=3600.0 * len(verified) / wall,
            cpu_s=_median([r.cpu_s for r in verified]),
            peak_rss_mb=rss_kb / 1024.0,
            wire_bytes=_mean([r.result.wire_stats.wire_bytes
                              for r in verified]),
            wire_messages=_mean([r.result.wire_stats.wire_messages
                                 for r in verified]),
            rounds=_mean([r.result.rounds for r in verified]),
            participant_mults=_mean(
                [r.result.max_participant_multiplications()
                 for r in verified]),
            wan_predicted_s=_median(
                [_wan_predicted_s(r.result, workload.n)
                 for r in verified[:WAN_REPLAYS]]),
        )
    wall_scale, cpu_scale = calibration.wall_scale(), calibration.cpu_scale()
    print(f"  calibration: unit median {REFERENCE_S / wall_scale * 1e3:.2f} ms "
          f"wall, {REFERENCE_S / cpu_scale * 1e3:.2f} ms CPU, "
          f"{REFERENCE_S / setup_scale * 1e3:.2f} ms wall at set-up "
          f"(reference {REFERENCE_S * 1e3:.0f} ms)")
    print(f"  raw: setup_s {setup_raw:.6g}" + "".join(
        f", {name} {values[name]:.6g}"
        for name in ("ranking_s", "rankings_per_hour", "cpu_s")
        if values[name] is not None))
    values["setup_s"] = setup_raw * setup_scale
    if verified:
        values["ranking_s"] *= wall_scale
        values["rankings_per_hour"] /= wall_scale
        values["cpu_s"] *= cpu_scale
    return rankings, values


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def _membership_hit_ratio(result) -> float:
    if result is None:
        return 0.0
    checks = hits = 0
    for metrics in result.metrics.values():
        checks += metrics.ops.membership_checks
        hits += metrics.ops.membership_cache_hits
    return hits / checks if checks else 0.0


def layer_metrics(runner: dict, parties: List[dict], ranking: Ranking,
                  untraced_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced ranking.

    ``runner`` is the benchmark process's tracer summary and ``parties``
    the reports of traced party processes (socket transport only).
    """
    merged = layertrace.merge_summaries(
        [runner] + [party["trace"] for party in parties])
    calls, self_s, total_s = (merged["calls"], merged["self_s"],
                              merged["total_s"])
    values: Dict[str, float] = {}
    for name, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls.get(span, 0)
        elif kind == "self_s":
            values[name] = self_s.get(span, 0.0)
        elif kind == "total_s":
            values[name] = total_s.get(span, 0.0)
    phases = merged["phase_s"]
    wall = ranking.wall_s
    values.update({
        "groups.membership_hit_ratio": _membership_hit_ratio(ranking.result),
        "core.phase1_s": phases[1],
        # Champion aggregation runs outside the flat party classes; it
        # belongs to the paper's ranking phase.
        "core.phase2_s": phases[2] + total_s.get("sharding.rank_champions",
                                                 0.0),
        "core.phase3_s": phases[3],
        "sharding.shards_s": total_s.get("sharding.shards", 0.0),
        "transport.startup_s": _median(
            [party["startup_s"] for party in parties]) or 0.0,
        "transport.party_cpu_s": sum(party["cpu_s"] for party in parties),
        "transport.party_wait_s": sum(
            party["wall_s"] - party["serve_cpu_s"] for party in parties),
        "transport.frames": calls.get("transport.frame", 0),
        "transport.frame_bytes": merged["counts"].get(
            "transport.frame_bytes", 0),
        "trace.overhead_ratio": wall / untraced_s,
        "trace.coverage": sum(runner["self_s"].values()) / wall,
    })
    return values


def trace(workload: Workload, seed: int, seconds: float):
    """Untraced/traced pairs on shared inputs until ``seconds`` is up."""
    tracer = layertrace.Tracer()
    rankings: List[Ranking] = []
    per_ranking: List[Dict[str, float]] = []
    trace_file = os.path.join(OUT_DIR,
                              f"trace-{workload.name}-seed{seed}.json")
    party_dir = os.path.join(OUT_DIR, f"parties-{workload.name}-{seed}")
    start = time.perf_counter()
    index = 0
    while True:
        inputs = ranking_inputs(seed, index, workload.n)
        untraced = run_ranking(workload, build_framework(
            workload, build_group(workload), inputs))
        framework = build_framework(workload, build_group(workload), inputs)
        shutil.rmtree(party_dir, ignore_errors=True)
        os.makedirs(party_dir)
        saved_env = dict(os.environ)
        if workload.transport == "tcp":
            os.environ[layertrace.PARTY_TRACE_ENV] = party_dir
            os.environ["PYTHONPATH"] = os.pathsep.join(
                filter(None, [PARTY_HOOK, os.environ.get("PYTHONPATH")]))
        tracer.reset()
        installation = layertrace.install(tracer)
        try:
            traced = run_ranking(workload, framework)
        finally:
            installation.remove()
            os.environ.clear()
            os.environ.update(saved_env)
        runner = tracer.summary()
        parties = layertrace.read_party_reports(party_dir)
        shutil.rmtree(party_dir, ignore_errors=True)
        rankings += [untraced, traced]
        per_ranking.append(layer_metrics(runner, parties, traced,
                                         untraced.wall_s))
        if index == 0:
            layertrace.write_chrome_trace(trace_file, [(0, "benchmark", runner)]
                                          + [(1 + p["party"],
                                              f"party {p['party']}",
                                              p["trace"]) for p in parties])
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed * (index + 1) / index > seconds:
            break
    values = {name: _median([m[name] for m in per_ranking])
              for name, _ in PER_LAYER}
    print(f"  chrome trace: {os.path.relpath(trace_file, ROOT)}")
    return rankings, values


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _report(workload: Workload, seed: int, tracing: int,
            rankings: List[Ranking], values: Dict[str, Optional[float]],
            specs) -> dict:
    failed = [r for r in rankings if not r.ok]
    print(f"workload {workload.name} seed {seed} trace {tracing}: "
          f"{len(rankings)} rankings attempted, {len(failed)} failed "
          f"(failed ratio {len(failed) / len(rankings):.3f})")
    for ranking in failed[:3]:
        print(f"  failed ranking: {ranking.error}")
    for name, unit in specs:
        value = values[name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit}")
    return {
        "correct": not failed,
        "attempted": len(rankings),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in specs},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print workload and metric names, then exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.list:
        print(json.dumps({
            "workloads": sorted(WORKLOADS),
            "standing_failures": sorted(STANDING_FAILURES),
            "end_to_end": [list(spec) for spec in END_TO_END],
            "per_layer": [list(spec) for spec in PER_LAYER],
        }))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        _setup_probe(workload, args.seed)
        return 0
    _import_program()
    if args.trace:
        rankings, values = trace(workload, args.seed, args.seconds)
        specs = PER_LAYER
    else:
        rankings, values = measure(workload, args.seed, args.seconds)
        specs = END_TO_END
    print(json.dumps(_report(workload, args.seed, args.trace, rankings,
                             values, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
