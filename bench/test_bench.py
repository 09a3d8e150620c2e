"""Tests of the benchmark itself: ``python -m pytest bench``."""

import json
import sys
from time import perf_counter

import numpy as np
import pytest

import capture
import run
import spans
from workloads import WORKLOADS, Capture, KeyRecovery, Sweep

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE = {
    "sweep-s1": Sweep(name="sweep-s1-smoke", n=3000),
    "keyrec-s1": KeyRecovery(name="keyrec-s1-smoke", n=5000),
    "capture-s500": Capture(name="capture-s500-smoke", n=3000, samples=50, poi=25),
}


def test_capture_aes_matches_fips197():
    # FIPS-197 appendix C.1 and the appendix A.1 round-10 key.
    pt = np.frombuffer(bytes.fromhex("00112233445566778899aabbccddeeff"), dtype=np.uint8)
    _, ct = capture.encrypt(bytes(range(16)), pt[None, :])
    assert ct[0].tobytes().hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
    k10 = capture.expand_key(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))[10]
    assert k10.tobytes().hex() == "d014f9a8c9ee2589e13f0cc8b6630ca6"


def test_nested_spans_count_self_time_once(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "perf_counter", lambda: next(ticks))
    tracer = spans.Tracer()

    def hypothesis():
        pass

    def caller():
        tracer.call("hypothesis", hypothesis)

    def root():
        tracer.call("attack", caller)
        tracer.call("scan", caller)

    tracer.call("cli", root)
    # cli [0, 9] holds attack [1, 4] and scan [5, 8], each holding one
    # hypothesis span of one tick.
    assert tracer.self_times() == {"cli": 3, "attack": 2, "scan": 2, "hypothesis": 2}
    assert tracer.root_time() == 9


def test_layer_self_times_sum_to_root_span(tmp_path):
    import scakit.cli

    workload = SMOKE["sweep-s1"]
    original = scakit.cli.cpa_attack
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        op = run.run_op_inprocess(workload, 1, tmp_path, tracer)
    assert op.problems == []
    assert scakit.cli.cpa_attack is original

    self_times = tracer.self_times()
    assert sum(self_times.values()) == pytest.approx(tracer.root_time(), abs=1e-9)
    assert set(self_times) == set(spans.LAYER_NAMES) - {"traceio.import", "traceio.write",
                                                          "traceio.read"} | {"cli"}
    grid = len(workload.offsets) * len(workload.bits)
    # One hypothesis matrix in cpa_attack and one in wrong_horse_scan per grid point.
    assert tracer.counts["aes.hypothesis.rows"] == 2 * grid * workload.n
    assert tracer.counts["aes.encrypt.blocks"] == grid * workload.n
    assert tracer.counts["hd.scan.calls"] == grid


def test_tampered_outputs_fail_their_checks(tmp_path):
    workload = SMOKE["capture-s500"]
    workload.prepare(tmp_path, 3)
    checked = run.Run(workload.name, 3)
    assert checked.record(run.run_op_inprocess(workload, 3, tmp_path)).problems == []

    report_path = tmp_path / "capture.json"
    report = json.loads(report_path.read_text())
    report["best_guess"] = (report["best_guess"] + 1) % 256
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    assert workload.check(tmp_path) != []

    op = run.run_op_inprocess(workload, 3, tmp_path)
    evolution = tmp_path / "evolution.csv"
    evolution.write_bytes(evolution.read_bytes().replace(b"\n1", b"\n2", 1))
    op = checked.record(run._check(workload, tmp_path, run.Op(seconds=op.seconds)))
    assert op.problems == ["outputs differ from the digest for seed 3"]
    assert checked.result({})["failed"] == 1


def test_outputs_do_not_depend_on_the_work_directory(tmp_path):
    workload = SMOKE["keyrec-s1"]
    digests = []
    for work in (tmp_path / "a", tmp_path / "elsewhere" / "b"):
        work.mkdir(parents=True)
        digests.append(run.run_op_inprocess(workload, 4, work).digest)
    assert digests[0] is not None and digests[0] == digests[1]


def test_low_percentile():
    assert run.low(list(range(11, 0, -1))) == 2
    assert run.low([3.0, 1.0]) == pytest.approx(1.2)
    assert run.low([5.0]) == 5.0


def test_tail_percentile():
    assert run.tail(list(range(200, 0, -1))) == (190, "p95 of 200 ops")
    assert run.tail(list(range(40, 0, -1))) == (pytest.approx(36.1), "p90 of 40 ops")
    assert run.tail([3.0, 1.0, 2.0]) == (pytest.approx(2.8), "p90 of 3 ops")
    assert run.tail([5.0]) == (5.0, "1 op")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name, tmp_path):
    workload = SMOKE[name]
    deadline = perf_counter() + 120
    result, metrics, _ = run.measure(workload, 2, 0.1, tmp_path, deadline)
    assert result.result({})["correct"], result.problems
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]] + list(run.CONTEXT)
    assert all(value > 0 for value, _ in metrics.values())

    result, metrics, _ = run.measure_layers(workload, 2, 0.1, tmp_path, deadline)
    assert result.result({})["correct"], result.problems
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_workloads_match_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]
    assert WORKLOADS["sweep-s1"].traces_per_op == 12 * 20000


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sweep-s1", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
