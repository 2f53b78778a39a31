"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They run every workload at a tiny scale (a minute and a half in all), so
they are kept out of the repository's main test suite.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import checks, livebed, simbed  # noqa: E402
from perfbench.common import Report  # noqa: E402

WORKLOADS = ("sim-steady", "sim-faults", "live-steady", "live-burst")
DETERMINISTIC = ("sim_ops_s", "sim_p50_us", "sim_p99_us", "sim_outage_ms")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    CONTRACT = json.load(handle)


def run_bench(workload: str, seed: int = 1, seconds: float = 1.0,
              trace: int = 0, cwd: str = ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return out


def last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def printed(stdout: str, name: str) -> str:
    match = re.search(rf"\] {re.escape(name)} = (\S+) ", stdout)
    assert match, f"{name} not printed"
    return match.group(1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    out = run_bench(workload, trace=trace)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    doc = last_json(out.stdout)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(doc["metrics"]) == [metric["name"] for metric in expected]
    for metric in expected:
        value = doc["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)
        if not trace:
            assert value["value"] > 0, metric["name"]
    if trace and workload.startswith("sim-"):
        # The sim workloads bypass the codec, the wire format and UDP.
        for name in ("replication.codec.calls_per_op",
                     "net.wire.frames_per_op", "net.udp.datagrams_per_op"):
            assert doc["metrics"][name]["value"] == 0.0
    if trace and workload.startswith("live-"):
        assert doc["metrics"]["replication.codec.calls_per_op"]["value"] > 0
        assert doc["metrics"]["sim.kernel.events_per_op"]["value"] == 0.0


@pytest.mark.parametrize("workload", ["sim-steady", "sim-faults"])
def test_simulated_time_metrics_repeat_exactly(workload):
    # Two requested seconds: enough calls (over 1000) for a p99.
    first = run_bench(workload, seed=5, seconds=2.0)
    second = run_bench(workload, seed=5, seconds=2.0)
    for name in DETERMINISTIC:
        assert printed(first.stdout, name) == printed(second.stdout, name)


def test_seed_changes_the_inputs():
    assert simbed.make_inputs(1) == simbed.make_inputs(1)
    assert simbed.make_inputs(1) != simbed.make_inputs(2)
    phases = [(100.0, 1.0), (300.0, 1.0)]
    one = [(op.due, op.identity) for op in livebed.make_schedule(1, phases)]
    again = [(op.due, op.identity) for op in livebed.make_schedule(1, phases)]
    other = [(op.due, op.identity) for op in livebed.make_schedule(2, phases)]
    assert one == again
    assert one != other


def _served_op(values, floor=None, identity=0):
    op = livebed.Op(phase=0, identity=identity, due=0.0, floor=floor)
    op.values = dict(values)
    op.first_reply = 1.0
    return op


def test_corrupted_live_reply_fails_the_checks():
    good = [_served_op({"n0": 10, "n1": 10, "n2": 10}),
            _served_op({"n0": 12, "n1": 12, "n2": 12}, floor=10)]
    report = Report("test")
    livebed.check_ops(good, report)
    assert report.problems == []

    for corrupted in (_served_op({"n0": 12, "n1": 13, "n2": 12}, floor=10),
                      _served_op({"n0": 12, "n1": 13}, floor=10),
                      _served_op({"n0": 9, "n1": 9, "n2": 9}, floor=10)):
        report = Report("test")
        livebed.check_ops([good[0], corrupted], report)
        assert report.problems, corrupted


def test_corrupted_sim_reply_fails_the_checks():
    run = simbed.run_span("sim-steady", simbed.make_inputs(3), 0.01)
    assert not any(problems for _what, problems
                   in simbed.check_run("sim-steady", run))
    _client, values = next((c, v) for c, v in run.values.items() if len(v) > 2)
    values[1] += 1  # a value no replica served
    assert any(problems for _what, problems
               in simbed.check_run("sim-steady", run))


def test_repeated_value_fails_the_checks():
    run = simbed.run_span("sim-steady", simbed.make_inputs(3), 0.01)
    for client in ("c0", "c1"):  # one with the floor, one without
        values = run.values[client]
        saved = list(values)
        values[2] = values[1]  # served, but not above the previous value
        assert any(problems for _what, problems
                   in simbed.check_run("sim-steady", run)), client
        values[:] = saved
    assert simbed.floorless_repeats(run) == 0


def test_decreasing_value_is_caught():
    assert checks.never_decrease({"c1": [1, 2, 2, 3]}) == []
    assert checks.never_decrease({"c1": [1, 3, 2]})
    assert checks.strictly_increasing({"c1": [1, 2, 2]})


def test_replica_disagreement_is_caught():
    assert checks.replicas_agree({"n1": {"op": 5}, "n2": {"op": 5}}) == []
    assert checks.replicas_agree({"n1": {"op": 5}, "n2": {"op": 6}})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("sim-steady", cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
