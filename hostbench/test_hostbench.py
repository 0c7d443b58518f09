"""Tests of the benchmark's own machinery.

Run with ``python -m pytest hostbench``.  The last test replays the
full-size workloads and takes about 20 seconds.
"""

from __future__ import annotations

import gzip
import itertools
import json
import re
from pathlib import Path

import pytest

import hostspeed
from cases import CASES, ReplayHitCase, ReplayMissCase, ServeCase
from layers import PER_LAYER
from run import END_TO_END, Run
from spans import _MISSING, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def ticking_clock(step: float = 1.0):
    """A clock that advances by ``step`` on every read."""
    counter = itertools.count()
    return lambda: next(counter) * step


# -- self-time arithmetic ---------------------------------------------------
def test_self_time_of_nested_and_sibling_spans():
    rec = SpanRecorder(clock=ticking_clock())
    root = rec.open("a")        # t=0
    child = rec.open("b")       # t=1
    grandchild = rec.open("c")  # t=2
    rec.close(grandchild)       # t=3
    rec.close(child)            # t=4
    sibling = rec.open("b")     # t=5
    rec.close(sibling)          # t=6
    rec.close(root)             # t=7

    assert rec.parents == [-1, root, child, root]
    # a: 7 total - (3 + 1) in its two children; b: (3 - 1) + 1; c: 1.
    assert rec.self_times() == {"a": 3.0, "b": 3.0, "c": 1.0}
    assert rec.attributed_s() == 7.0
    assert sum(rec.self_times().values()) == rec.attributed_s()
    assert rec.counts() == {"a": 1, "b": 2, "c": 1}


def test_wrapped_calls_nest_and_recursion_keeps_self_time_exact():
    class Layer:
        def outer(self, depth):
            return self.inner(depth)

        def inner(self, depth):
            return self.inner(depth - 1) if depth else "done"

    layer = Layer()
    rec = SpanRecorder(clock=ticking_clock())
    rec.wrap(layer, "outer", "x.outer")
    rec.wrap(layer, "inner", "x.inner")
    assert layer.outer(2) == "done"
    rec.restore()

    assert rec.names == ["x.outer", "x.inner", "x.inner", "x.inner"]
    assert rec.parents == [-1, 0, 1, 2]
    # Spans open at t=0,1,2,3 and close at t=4,5,6,7 innermost first.
    assert rec.self_times() == {"x.outer": 2.0, "x.inner": 5.0}


def test_request_ids_backfill_deferred_spans():
    rec = SpanRecorder(clock=ticking_clock())
    rec.defer_id()
    switch = rec.open("serve.tenant_switch")
    rec.close(switch)
    rec.set_id(7)
    admit = rec.open("serve.admission")
    rec.close(admit)
    assert rec.ids == [7, 7]


def test_dump_round_trips(tmp_path):
    rec = SpanRecorder(clock=ticking_clock())
    rec.current_id = 3
    outer = rec.open("a")
    rec.close(rec.open("b"))
    rec.close(outer)
    path = tmp_path / "spans.json.gz"
    rec.dump(path)
    with gzip.open(path, "rt") as fh:
        doc = json.load(fh)
    names = doc["names"]
    assert [[names[r[0]], *r[1:]] for r in doc["spans"]] == [
        ["a", 0.0, 3.0, -1, 3],
        ["b", 1.0, 2.0, 0, 3],
    ]


# -- wrapping leaves the simulator as it was ----------------------------------
SMALL_CASES = {
    "replay-hit": ReplayHitCase(
        "replay-hit", "keyvalue", scale=4096, oversubscription=0.15,
        telemetry=True, replays_per_setup=1, workload_kwargs={"lookups": 20_000},
    ),
    "replay-miss": ReplayMissCase(
        "replay-miss", "hotspot", scale=16384, oversubscription=2.0,
        telemetry=False, replays_per_setup=1,
    ),
    "serve-openloop": ServeCase(
        "serve-openloop", scale=4096, tenants=64, requests=256,
        arrival_rate_per_s=65536.0, max_backlog=32,
    ),
}


def _pass(case, seed, traced):
    prepared = case.prepare(seed)
    target = case.build(prepared)
    before = target.engine_resolution()
    rec = SpanRecorder() if traced else None
    tracked = case.trace(rec, target) if traced else None
    result = case.execute(target, prepared)
    sites = list(rec._wrapped) if traced else []
    if traced:
        rec.restore()
    outcome = case.finish(target, result)
    return before, outcome, rec, tracked, sites


@pytest.mark.parametrize("name", sorted(SMALL_CASES))
def test_every_wrapped_attribute_is_restored(name):
    from repro.serve.runtime import SplitStats

    setattr_before = vars(SplitStats)["__setattr__"]
    _, _, rec, _, sites = _pass(SMALL_CASES[name], 0, traced=True)

    assert sites, "nothing was wrapped"
    for obj, attr, original in sites:
        if original is _MISSING:
            assert attr not in vars(obj), (obj, attr)
        else:
            assert vars(obj)[attr] is original, (obj, attr)
        assert not hasattr(getattr(obj, attr), "__wrapped__"), (obj, attr)
    assert vars(SplitStats)["__setattr__"] is setattr_before
    assert rec.names, "no span was recorded"


@pytest.mark.parametrize("name", sorted(SMALL_CASES))
def test_traced_pass_simulates_exactly_what_the_untraced_one_does(name):
    case = SMALL_CASES[name]
    plain_before, plain, _, _, _ = _pass(case, 5, traced=False)
    traced_before, traced, _, _, _ = _pass(case, 5, traced=True)
    assert traced_before == plain_before
    assert traced.engine == plain.engine
    assert traced.fingerprint == plain.fingerprint


def test_serve_spans_carry_request_ids():
    _, outcome, rec, tracked, _ = _pass(SMALL_CASES["serve-openloop"], 0, traced=True)
    served = {
        i for name, i in zip(rec.names, rec.ids) if name == "core.dispatch"
    }
    admitted = {
        i for name, i in zip(rec.names, rec.ids) if name == "serve.admission"
    }
    assert None not in served
    assert len(served) == outcome.outputs["completed"] == tracked.decisions
    assert served <= admitted


# -- host-speed scaling -----------------------------------------------------------
def test_reference_kernel_does_fixed_work():
    assert hostspeed.kernel() == hostspeed.KERNEL_HITS
    assert hostspeed.time_kernel(ticking_clock(0.25)) == 0.25


def test_scaling_cancels_a_uniformly_slower_host():
    ref = hostspeed.REFERENCE_KERNEL_S
    # A host twice as slow halves the rate and doubles the time it measures.
    assert hostspeed.scaled_rate(1000.0 / 2, 2 * ref) == pytest.approx(1000.0)
    assert hostspeed.scaled_seconds(3.0 * 2, 2 * ref) == pytest.approx(3.0)


# -- metric names ---------------------------------------------------------------
def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = [name for name, _ in END_TO_END] + [name for name, _, _ in PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(CASES)


# -- workload character ---------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 9001], ids=["default-seed", "held-out-seed"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_full_size_workloads_keep_their_character(name, seed):
    case = CASES[name]
    run = Run(case, seed, trace=True)
    prepared, target = run.setup()
    wall = run.one_pass(prepared, target)
    run.one_pass(prepared, case.build(prepared), SpanRecorder(), wall)
    assert run.correct, run.problems
    assert run.layers and run.failed == 0
