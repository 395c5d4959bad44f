"""Smoke test of the benchmark at tiny sizes (a few seconds):

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric of BENCHMARK.json prints by name with its unit,
that a ``trade`` operation stopped by the cycle limit is counted as failed
and kept, that the output checks reject corrupted matchings, and that the
speed sampler's time is left out of measured times.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import speed as sp  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

NAMED = {
    "district": ["da_p50_s", "da_tail_s", "ttc_p50_s", "ttc_tail_s", "eadam_p50_s",
                 "eadam_tail_s"],
    "trade": ["tadam_p50_s", "tadam_tail_s"],
    "sweep": ["trials_per_s"],
    "exhaustive": ["instances_per_s"],
}


def tiny(name: str):
    if name == "district":
        return wl.District(1, run.OUT, n_students=40, n_schools=5, n_instances=2)
    if name == "trade":
        return wl.Trade(1, run.OUT, sizes=range(6, 8), seeds=range(1, 4))
    if name == "sweep":
        return wl.Sweep(1, run.OUT, trials=4, pass_size=3)
    return wl.Exhaustive(1, run.OUT, sizes=range(3, 5), seeds=range(1, 2))


def run_tiny(workload, trace: int):
    args = argparse.Namespace(workload=workload.name, seed=1, seconds=0.05, trace=trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.run(args, workload)
    lines = buf.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.NAMES)
    assert [m["name"] for m in BENCH["per_layer"]] == [name for name, _, _ in run.PER_LAYER]


@pytest.mark.parametrize("name", run.NAMES)
def test_every_metric_prints_by_name_with_unit(name):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, result = run_tiny(tiny(name), trace)
        assert code == 0 and result["correct"] is True
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in BENCH[key]}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        printed = {line.split()[1]: line for line in lines if line.startswith("metric ")}
        for metric in ["setup_s", "peak_rss_mb", "failed_ratio", *NAMED[name],
                       *(m["name"] for m in BENCH["per_layer"] if trace)]:
            assert metric in printed and "(n=" in printed[metric]
        if trace:
            assert any(line.startswith("spans: ") for line in lines)


def test_failed_trade_operation_is_counted_not_dropped():
    def limited():
        # At n = 16-17 some of these instances need more than 5 cycles.
        return wl.Trade(1, run.OUT, sizes=range(16, 18), seeds=range(1, 6), cycle_limit=5)

    trade = limited()
    trade.setup()
    ops: list = []
    run.measure(trade, 0, ops)
    failed = [op for op in ops if op.failed]
    assert len(ops) == run.MIN_PASSES * trade.pass_size and 0 < len(failed) < len(ops)
    assert all(op.seconds > 0 for op in failed)

    code, lines, result = run_tiny(limited(), 0)
    assert code == 0 and result["failed"] == len(failed) * result["attempted"] // len(ops)
    assert f"{result['failed']} of {result['attempted']} failed" in "\n".join(lines)
    code, _, traced = run_tiny(limited(), 1)
    assert traced["metrics"]["trading.cycle_limit_hits"]["value"] > 0


def test_district_check_rejects_corrupted_matchings():
    district = tiny("district")
    district.setup()
    _, outputs = district.solve(0, lottery=7)
    good = {m: json.loads(text) for m, text in outputs.items()}
    district.check(0, good)

    def corrupt(mech, edit):
        bad = copy.deepcopy(good)
        edit(bad[mech])
        with pytest.raises(wl.CheckError):
            district.check(0, bad)

    corrupt("da", lambda r: r["matching"].update(dict.fromkeys(r["matching"], "s1")))
    corrupt("da", lambda r: r.update(stable=False))
    placed = next(i for i, s in good["da"]["matching"].items() if s is not None)
    corrupt("eadam", lambda r: r["matching"].update({placed: None}))
    corrupt("ttc", lambda r: r.update(matching=dict(good["da"]["matching"])))


def test_trade_check_rejects_a_worse_matching():
    trade = tiny("trade")
    trade.setup()
    inst = trade.instances[0]
    result = wl.trading.tadam_run(inst, "canonical")
    trade.check(inst, result)
    assignment = result.matching.as_dict()
    i = next(i for i, s in assignment.items() if s is not None)
    assignment[i] = None
    worse = SimpleNamespace(matching=wl.Matching.of(assignment, inst), baseline=result.baseline)
    with pytest.raises(wl.CheckError):
        trade.check(inst, worse)


def test_pool_digest_rejects_two_answers_to_one_input():
    ops = [wl.Op(k % 2, 0.1, {}, False, d) for k, d in enumerate("abab")]
    assert wl.pool_digest(ops) == wl.pool_digest(ops[:2])
    with pytest.raises(wl.CheckError):
        wl.pool_digest(ops[:3] + [wl.Op(1, 0.1, {}, False, "c")])


def test_speed_clock_leaves_out_the_sampler_and_scale_uses_nearby_samples():
    speed = sp.Speed()
    with speed.sampling():
        t0, c0 = perf_counter(), speed.clock()
        while perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1, c1 = perf_counter(), speed.clock()
    assert len(speed.took) >= 5
    assert 0 < (t1 - t0) - (c1 - c0) <= speed.stolen
    near = [took for at, took in zip(speed.at, speed.took) if t0 - sp.PAD <= at <= t1 + sp.PAD]
    assert speed.scale(t0, t1) == pytest.approx(sp.REF_SECONDS * len(near) / sum(near))
