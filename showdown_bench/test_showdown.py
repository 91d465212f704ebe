"""Tests of the showdown benchmark itself (run: python3 -m pytest showdown_bench).

Small passes over a few loops each; the portfolio test includes ora_trace,
whose CP and ILP probes run out their 20 s budget, because it is the only
kind of loop on which the ILP backend is called at all.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import showdown  # noqa: E402
from layers import LAYERS, Tracer  # noqa: E402
from repro.fuzz.inject import corrupt_result  # noqa: E402
from repro.obs import get_recorder  # noqa: E402

SGI_KEYS = [
    "livermore:lk01_hydro",
    "livermore:lk08_adi",
    "recbound:rb_reg_farm",  # spills
]
RAU_KEYS = ["livermore:lk01_hydro", "livermore:lk09_predict", "recbound:rb_fan5"]
# lk09_predict always ends in the heuristic fallback; ora_trace's ILP probe
# runs on a wall-clock budget and may or may not decide.
PORTFOLIO_KEYS = ["livermore:lk09_predict", "spec92:ora/ora_trace"]

#: Each layer records calls on these workloads (the mapping in layers.py).
EXERCISED = {
    "sgi-corpus": {
        "core.driver", "core.minii", "core.iisearch", "core.bnb", "core.spill",
        "regalloc", "analyze", "pipeline", "verify", "sim.perf", "sim.functional", "exec",
    },
    "rau-corpus": {"rau.driver", "rau", "regalloc", "core.minii", "verify", "exec"},
    "portfolio-corpus": {
        "portfolio.driver", "portfolio.formulation", "portfolio.cp", "portfolio.ilp",
        "regalloc", "core.driver", "core.bnb", "verify", "exec",
    },
}
KEYS = {"sgi-corpus": SGI_KEYS, "rau-corpus": RAU_KEYS, "portfolio-corpus": PORTFOLIO_KEYS}


@pytest.fixture(scope="module")
def machine():
    return showdown.r8000()


def test_corpus_has_every_committed_loop(machine):
    keys = showdown.build_corpus(machine)
    assert len(keys) == 58
    assert sum(k.startswith("livermore:") for k in keys) == 24
    assert sum(k.startswith("spec92:") for k in keys) == 28
    assert sum(k.startswith("recbound:") for k in keys) == 6


def test_seed_sets_the_compile_order():
    keys = list(showdown.build_corpus(showdown.r8000()))
    assert showdown.loop_order(keys, 1) == showdown.loop_order(keys, 1)
    assert showdown.loop_order(keys, 1) != showdown.loop_order(keys, 2)
    assert sorted(showdown.loop_order(keys, 1)) == sorted(keys)


def test_every_pipeliner_call_gets_a_fresh_loop(machine):
    seen = []
    base = showdown.WORKLOADS["rau-corpus"]

    def compile_and_record(loop, m):
        seen.append((loop, loop.ddg))
        return base.compile(loop, m)

    workload = dataclasses.replace(base, compile=compile_and_record)
    key = RAU_KEYS[:1]
    showdown.run_pass(workload, machine, seed=1, keys=key)
    showdown.run_pass(workload, machine, seed=1, keys=key)
    (loop_a, ddg_a), (loop_b, ddg_b) = seen
    assert loop_a.name == loop_b.name
    assert loop_a is not loop_b
    assert ddg_a is not ddg_b


def test_tracing_does_not_change_the_program(machine):
    workload = showdown.WORKLOADS["sgi-corpus"]
    plain = showdown.run_pass(workload, machine, seed=3, keys=SGI_KEYS)
    tracers = [Tracer(), Tracer()]
    traced = []
    for tracer in tracers:
        with tracer:
            traced.append(showdown.run_pass(workload, machine, seed=3, tracer=tracer, keys=SGI_KEYS))
    assert not get_recorder().enabled
    for other in traced:
        assert [c.quality() for c in other.cells] == [c.quality() for c in plain.cells]
        assert [c.work for c in other.cells] == [c.work for c in plain.cells]
    assert tracers[0].work_counts() == tracers[1].work_counts()
    assert tracers[0].cell_counts == tracers[1].cell_counts
    assert all(c.status == "scheduled" for c in plain.cells)


@pytest.mark.parametrize("workload_name", sorted(EXERCISED))
def test_every_binding_is_wrapped_and_each_layer_is_called(machine, workload_name):
    import repro.core.driver
    import repro.portfolio.driver
    import repro.rau.scheduler

    originals = {
        module: module.allocate_schedule
        for module in (repro.core.driver, repro.portfolio.driver, repro.rau.scheduler)
    }
    tracer = Tracer()
    with tracer:
        assert tracer.unwrapped_bindings() == []
        for module in originals:
            assert module.allocate_schedule.showdown_layer == "regalloc"
        result = showdown.run_pass(
            showdown.WORKLOADS[workload_name], machine, seed=2,
            tracer=tracer, keys=KEYS[workload_name],
        )
        # Modules imported lazily during the pass bind wrappers too.
        assert tracer.unwrapped_bindings() == []
    for module, fn in originals.items():
        assert module.allocate_schedule is fn
    assert all(c.status in ("scheduled", "no-schedule") for c in result.cells)
    called = {layer.name for layer in LAYERS if tracer.counts[layer.name]["calls"] > 0}
    assert EXERCISED[workload_name] <= called, EXERCISED[workload_name] - called
    self_sum = sum(tracer.counts[layer.name]["self_s"] for layer in LAYERS)
    assert self_sum == pytest.approx(result.run_s, rel=1e-3)
    assert sum(tracer.compile_self.values()) == pytest.approx(result.compile_s, rel=0.02)


@pytest.mark.parametrize("fault", ["sched-shift", "reg-clobber"])
def test_a_wrong_schedule_fails_the_run_and_names_the_loop(
    machine, monkeypatch, tmp_path, capsys, fault
):
    base = showdown.WORKLOADS["sgi-corpus"]

    def compile_and_corrupt(loop, m):
        result = base.compile(loop, m)
        if loop.name == "lk01_hydro":
            corrupt_result(result, fault)
        return result

    full = showdown.build_corpus
    monkeypatch.setitem(
        showdown.WORKLOADS, "sgi-corpus", dataclasses.replace(base, compile=compile_and_corrupt)
    )
    monkeypatch.setattr(
        showdown, "build_corpus", lambda m: {k: v for k, v in full(m).items() if k in SGI_KEYS[:2]}
    )
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    status = run.main(["--workload", "sgi-corpus", "--seed", "1", "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    assert status == 1
    assert "WRONG SCHEDULE: livermore:lk01_hydro" in out
    assert "lk08_adi" not in "".join(line for line in out.splitlines() if "WRONG" in line)
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1


def test_repeatability_names_the_loop_that_changed(tmp_path):
    cells = [
        {"loop": "a", "quality": {"ii": 3}, "work": {"placements": 10}, "layers": {}},
        {"loop": "b", "quality": {"ii": 4}, "work": {"placements": 7}, "layers": {}},
    ]
    record = {"code": "x", "cells": cells, "totals": {"core.bnb.calls": 2}}
    stored = tmp_path / "previous.json"
    stored.write_text(json.dumps(record))
    assert run.repeatability(record, stored)[0].startswith("identical")
    changed = json.loads(json.dumps(record))
    changed["cells"][1]["quality"]["ii"] = 5
    changed["cells"][0]["work"]["placements"] = 11
    lines = run.repeatability(changed, stored)
    assert "b: quality changed (ii)" in lines
    assert "a: work changed (placements)" in lines
    changed["code"] = "y"
    assert "source changed" in run.repeatability(changed, stored)[0]
