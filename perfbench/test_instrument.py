"""Tests of the benchmark's own instrumentation.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import time

import pytest
from instrument import (
    LAYER_METHODS,
    LAYER_SYSCALLS,
    PER_LAYER,
    MachineProbe,
    Patcher,
    Tracer,
    process_bucket,
)
from run import load_reference, run_rep
from workloads import WORKLOADS, Workload, compare

from repro.experiments import arena


def _busy(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def test_self_times_of_a_nested_tree_sum_to_the_root():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(200_000))

    def body_gen():
        _busy(100_000)
        yield leaf()
        _busy(100_000)
        yield None

    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)] and _busy(300_000))

    def top():
        _busy(100_000)
        mid()
        for _ in tracer.body("proc.app", body_gen()):
            leaf()
        try:
            tracer.wrap("mid", lambda: 1 / 0)()
        except ZeroDivisionError:
            pass

    tracer.run_root(tracer.wrap("top", top))
    total = sum(cell[0] for cell in tracer.cells.values()) + tracer.untraced_ns
    assert total == tracer.root_ns
    assert all(cell[0] >= 0 for cell in tracer.cells.values())
    assert tracer.cells["leaf"][1] == 3 + 1 + 2
    assert tracer.cells["mid"][1] == 2
    # Three resumptions: two yields, then StopIteration.
    assert tracer.cells["proc.app"][1] == 3
    assert tracer.cells["leaf"][0] >= 6 * 200_000
    assert tracer.cells["mid"][0] >= 300_000
    assert tracer.cells["proc.app"][0] >= 200_000


def test_timed_body_forwards_send_and_throw():
    def echo():
        received = []
        try:
            while True:
                received.append((yield len(received)))
        except KeyError:
            yield received

    body = Tracer().body("proc.app", echo())
    assert next(body) == 0
    assert body.send("a") == 1
    assert body.send("b") == 2
    assert body.throw(KeyError("x")) == ["a", "b"]
    with pytest.raises(StopIteration):
        next(body)


def test_process_buckets():
    assert process_bucket("setup:root") == "proc.setup"
    assert process_bucket("warm") == "proc.setup"
    assert process_bucket("inject-cache_dirtier0") == "proc.inject"
    assert process_bucket("z-inject-cpu_hog1") == "proc.inject"
    assert process_bucket("fccd0003") == "proc.icl"
    assert process_bucket("refresh") == "proc.icl"
    assert process_bucket("sort2") == "proc.app"
    assert process_bucket("gbsort0014") == "proc.app"


def _patched_attributes():
    """Every attribute the instruments patch, with its original value."""
    patcher = Patcher()
    MachineProbe().install(patcher)
    Tracer().install(patcher, LAYER_SYSCALLS)
    saved = patcher.saved()
    patcher.restore()
    originals = {}
    for owner, name, original in saved:  # the first save of a name is the original
        originals.setdefault((id(owner), name), (owner, name, original))
    return originals


def test_every_wrapped_attribute_is_restored():
    before = _patched_attributes()
    assert len(before) >= len(LAYER_METHODS)
    for owner, name, original in before.values():
        assert vars(owner)[name] is original
    tiny = Workload("tiny", arena, "run_arena", arena.ARENA_SEED, {"n": 8})
    for traced in (False, True):
        rep, mismatches = run_rep(tiny, tiny.default_seed, lambda record: [], traced)
        assert rep.error is None and not mismatches
    for owner, name, original in before.values():
        assert vars(owner)[name] is original, f"{owner!r}.{name} left patched"


def test_traced_and_untraced_runs_agree_and_cover_the_wall():
    tiny = Workload("tiny", arena, "run_arena", arena.ARENA_SEED, {"n": 16})
    plain, _ = run_rep(tiny, tiny.default_seed, lambda record: [], False)
    traced, _ = run_rep(tiny, tiny.default_seed, lambda record: [], True)
    assert compare(traced.record, plain.record) == []
    layers = traced.layers
    assert set(layers) == {name for name, _unit in PER_LAYER} - {"trace_overhead"}
    self_times = sum(
        value for name, value in layers.items()
        if name.endswith("_s") and name not in ("untraced_s", "traced_wall_s")
    )
    assert self_times + layers["untraced_s"] == pytest.approx(layers["traced_wall_s"], rel=1e-9)
    assert layers["layer_share"] >= 0.9
    assert layers["kernel.boots"] == 1
    assert layers["arena.turns"] > 0
    assert layers["syscall.pread_batch.calls"] > 0


def test_a_traced_run_reproduces_the_committed_reference():
    workload = WORKLOADS["refresh-churn"]
    reference = load_reference(workload.name, workload.default_seed)
    assert reference is not None
    rep, mismatches = run_rep(
        workload, workload.default_seed, lambda record: compare(record, reference), True
    )
    assert rep.error is None
    assert mismatches == []
