"""Tests of the benchmark itself (not part of the repository's tier-1).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import layertrace  # noqa: E402
from workloads import (  # noqa: E402
    STANDING_FAILURES,
    VALUE_BITS,
    WEIGHT_BITS,
    WORKLOADS,
    ranking_inputs,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- self-time arithmetic ----------------------------------------------------

@pytest.fixture
def scripted_clock(monkeypatch):
    """Replace the tracer's clock with explicit readings."""
    readings = []
    monkeypatch.setattr(layertrace, "_clock", lambda: readings.pop(0))
    return readings


def test_self_time_of_a_nested_call_tree(scripted_clock):
    # root [0, 20]
    #   a [1, 9]
    #     leaf [2, 5]
    #     a (re-entered) [6, 8]
    #   b [10, 16]
    #     leaf [11, 12]
    scripted_clock.extend([0, 1, 2, 5, 6, 8, 9, 10, 11, 12, 16, 20])
    tracer = layertrace.Tracer()
    tracer.enter("root")
    tracer.enter("a")
    tracer.enter("leaf")
    tracer.exit(False)
    tracer.enter("a")
    tracer.exit(True)
    tracer.exit(True)
    tracer.enter("b")
    tracer.enter("leaf")
    tracer.exit(False)
    tracer.exit(True)
    tracer.exit(True)

    assert dict(tracer.self_s) == {"root": 6, "a": 5, "leaf": 4, "b": 5}
    # Self times partition the root span exactly.
    assert sum(tracer.self_s.values()) == 20
    # Re-entering a name is one call; its total is the outer span only.
    assert dict(tracer.calls) == {"root": 1, "a": 1, "leaf": 2, "b": 1}
    assert dict(tracer.total_s) == {"root": 20, "a": 8, "leaf": 4, "b": 6}
    # Only spans asked to be kept are stored, and leaves are not.
    assert [name for name, _, _ in tracer.spans] == ["a", "a", "b", "root"]


def test_wrappers_unwind_on_exceptions_and_keep_no_values():
    tracer = layertrace.Tracer()

    def inner(secret):
        raise ValueError("boom")

    def outer(secret):
        try:
            wrapped_inner(secret)
        except ValueError:
            pass
        return secret * 2

    wrapped_inner = layertrace._span_wrapper(inner, "inner", tracer, True)
    wrapped_outer = layertrace._span_wrapper(outer, "outer", tracer, True)
    assert wrapped_outer(123456789) == 246913578
    assert tracer._stack == []
    assert dict(tracer.calls) == {"inner": 1, "outer": 1}
    dumped = json.dumps(tracer.summary())
    assert "123456789" not in dumped and "246913578" not in dumped


def test_every_target_resolves_and_removal_restores():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.math import backend
    from repro.runtime.wire import WireCodecV2

    originals = (backend.powmod, WireCodecV2.__dict__["decode"])
    installation = layertrace.install(layertrace.Tracer())
    assert backend.powmod is not originals[0]
    installation.remove()
    assert (backend.powmod, WireCodecV2.__dict__["decode"]) == originals


# -- calibration -----------------------------------------------------------------

def test_calibration_scales_to_reference_seconds():
    calibration = calibrate.Calibration()
    calibration.wall = [calibrate.REFERENCE_S * f for f in (0.5, 2.0, 1.0)]
    calibration.cpu = [calibrate.REFERENCE_S * f for f in (2.0, 2.0, 4.0)]
    # Medians: the unit ran at reference speed by the wall clock and at
    # half speed by CPU time.
    assert calibration.wall_scale() == pytest.approx(1.0)
    assert calibration.cpu_scale() == pytest.approx(0.5)
    calibration.sample(2)
    assert len(calibration.wall) == len(calibration.cpu) == 5
    assert calibrate.unit() == calibrate.unit()


def test_calibration_does_not_use_the_program():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import calibrate; "
            "calibrate.Calibration().sample(); "
            "print(sorted(m for m in sys.modules if m.startswith('repro')))")
    fresh = subprocess.run([sys.executable, "-c", code, BENCH],
                           capture_output=True, text=True, check=True)
    assert fresh.stdout.strip() == "[]"


# -- generated inputs ----------------------------------------------------------

def test_inputs_are_a_pure_function_of_seed_and_index():
    first = ranking_inputs(7, 3, 16)
    assert ranking_inputs(7, 3, 16) == first
    assert ranking_inputs(7, 4, 16) != first
    assert ranking_inputs(8, 3, 16) != first
    # The same in a fresh interpreter (no dependence on hash seeds or
    # process state).
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from workloads import ranking_inputs; "
            "print(repr(ranking_inputs(7, 3, 16)))")
    fresh = subprocess.run(
        [sys.executable, "-c", code, BENCH], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONHASHSEED="12345"),
    )
    assert fresh.stdout.strip() == repr(first)
    assert len(first.participants) == 16
    values = [v for vector in first.participants for v in vector]
    values += list(first.criterion)
    assert all(0 <= v < (1 << VALUE_BITS) for v in values)
    assert all(0 < w < (1 << WEIGHT_BITS) for w in first.weights)


# -- names printed by the command vs BENCHMARK.json ----------------------------

def test_printed_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    listed = json.loads(subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--list"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    ).stdout.strip().splitlines()[-1])

    assert [[m["name"], m["unit"]] for m in spec["end_to_end"]] == \
        listed["end_to_end"]
    assert [[m["name"], m["unit"]] for m in spec["per_layer"]] == \
        listed["per_layer"]
    kept = [w for w in listed["workloads"]
            if w not in listed["standing_failures"]]
    assert sorted(w["name"] for w in spec["workloads"]) == kept
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert set(STANDING_FAILURES) <= set(WORKLOADS)

    names = (listed["workloads"]
             + [name for name, _ in listed["end_to_end"]]
             + [name for name, _ in listed["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
