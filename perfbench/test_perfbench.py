"""Self-tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import dataclasses
import itertools
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import hostref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from curvesplit import cli, conjscan, param  # noqa: E402
from curvesplit.binform import BinForm  # noqa: E402
from curvesplit.fatpoints import ResolutionReport  # noqa: E402
from curvesplit.splitting import SplitType  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    # 0 root [0, 100]: children 1 [10, 40], 3 [50, 70], 4 [60, 80] (overlaps
    # 3), 5 [90, 120] (runs past its parent); 2 [15, 25] is a child of 1
    start = [0, 10, 15, 50, 60, 90]
    end = [100, 40, 25, 70, 80, 120]
    parent = [-1, 0, 1, 0, 0, 0]
    got = tracer.self_times(start, end, parent)
    # root: 100 minus the union [10,40] + [50,80] + [90,100] = 100 - 70
    assert got == [30, 20, 10, 20, 20, 30]


def test_layer_self_times_sum_to_the_op_time():
    tr = tracer.Tracer()
    wl = workloads.WORKLOADS["split3"]
    inputs = wl.setup(5)
    log = run.OpLog()
    for i, inp in enumerate(itertools.islice(inputs, 3)):
        run.run_op(wl, inp, log, tr, i)
    assert log.failed == 0
    report = tracer.analyse(tr, 3)
    layers = sum(v for k, (v, u) in report.metrics.items() if k.endswith("_s.per_op") and k != "trace.op_s.per_op")
    assert layers == pytest.approx(report.metrics["trace.op_s.per_op"][0], rel=1e-9)
    assert report.metrics["splitting.saturation_s"][0] > 0
    assert report.metrics["param.attempts_per_success"][0] == 1.0


def test_per_op_counts_leave_out_calls_made_outside_ops():
    tr = tracer.Tracer()
    wl = workloads.WORKLOADS["scan9"]
    inp = next(inp for inp in wl.setup(2) if inp[0].d >= 10)
    f = BinForm([1, 2, 3])
    with tracer.installed(tr):
        f * f  # traced, but outside any op
    log = run.OpLog()
    run.run_op(wl, inp, log, tr, 0)
    m = tracer.analyse(tr, 1).metrics
    assert m["binform.mul_calls.per_op"][0] > 0
    assert m["binform.mul_calls"][0] == m["binform.mul_calls.per_op"][0] + 1


def test_traced_then_untraced_run_leaves_the_package_unchanged():
    before = tracer.bindings()
    # the same function object is reached through several modules
    assert before[(param, "random_points")] is before[(conjscan, "random_points")]
    assert before[(cli, "random_points")] is param.random_points

    tr = tracer.Tracer()
    with tracer.installed(tr):
        assert param.random_points is not before[(param, "random_points")]
        assert conjscan.random_points is param.random_points
        assert cli.random_points is param.random_points

    wl = workloads.WORKLOADS["scan9"]
    run.traced(wl, 3, 0.01)
    run.end_to_end(wl, 3, 0.01)

    after = tracer.bindings()
    assert after.keys() == before.keys()
    for key, obj in before.items():
        assert after[key] is obj, key


def _flip_gap(rec):
    s = rec.split
    return dataclasses.replace(rec, split=SplitType(s.a - 1, s.b + 1) if s.gap <= 1 else SplitType(s.a + 1, s.b - 1))


def test_oracle_rejects_a_flipped_gap_and_counts_it_as_failed():
    wl = workloads.WORKLOADS["scan9"]
    inp = next(inp for inp in wl.setup(2) if inp[0].d >= 10)
    rec = wl.op(inp)
    assert wl.check(inp, rec) == []
    assert wl.check(inp, _flip_gap(rec))

    corrupt = dataclasses.replace(wl, op=lambda inp: _flip_gap(wl.op(inp)) if inp[0].d >= 4 else wl.op(inp))
    log = run.OpLog()
    used = [i for i in itertools.islice(wl.setup(2), 40)]
    for i in used:
        run.run_op(corrupt, i, log)
    expected = sum(1 for T, _ in used if T.d >= 4)
    assert expected > 0
    assert log.failed == expected
    assert len(log.latencies) == len(used)


def test_split3_oracle_rejects_disagreeing_methods():
    wl = workloads.WORKLOADS["split3"]
    inp = next(wl.setup(4))
    ml, sat, syz = wl.op(inp)
    assert wl.check(inp, (ml, sat, syz)) == []
    assert wl.check(inp, (ml, SplitType(sat.a - 1, sat.b + 1), syz))


def test_fatcert_oracle_rejects_a_wrong_cokernel():
    reports = []
    for c, alpha, cok, _ in workloads.FAT_CLASSES:
        reports.append(ResolutionReport((c.d, *c.m), (), alpha, alpha, True, True, 1, cok))
    assert workloads._fatcert_check(None, reports) == []
    bad = list(reports)
    bad[1] = dataclasses.replace(bad[1], cokernel=3)
    assert workloads._fatcert_check(None, bad)


def test_an_op_that_raises_counts_as_failed():
    wl = workloads.WORKLOADS["scan9"]

    def boom(inp):
        raise ValueError("injected")

    log = run.OpLog()
    run.run_op(dataclasses.replace(wl, op=boom), next(wl.setup(1)), log)
    assert log.failed == 1 and "injected" in log.problems[0]


def test_tail_reports_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(200)]) == (189.0, 95.0, 10)
    # one more op moves the percentile with it instead of jumping between rungs
    value, q, beyond = run.tail([float(i) for i in range(201)])
    assert (value, beyond) == (190.0, 10)
    assert q == pytest.approx(100 * 191 / 201)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def test_host_scaling_divides_by_the_reference_around_the_time():
    nominal = 0.004
    assert run.host_scaled(0.5, nominal, nominal, nominal) == pytest.approx(0.5)
    # a host running the reference at half speed halves the figure
    assert run.host_scaled(0.5, 2 * nominal, 2 * nominal, nominal) == pytest.approx(0.25)
    assert run.host_scaled(0.5, nominal, 3 * nominal, nominal) == pytest.approx(0.25)


def test_reference_process_is_stopped_and_the_affinity_restored():
    cpus = os.sched_getaffinity(0)
    with hostref.HostRef() as ref:
        assert os.sched_getaffinity(0) == {min(cpus)}
        assert os.sched_getaffinity(ref.proc.pid) == {min(cpus)}
        for name in hostref.REFERENCES:
            assert ref.sample(name) > 0
    assert ref.proc.poll() == 0
    assert all(len(times) == 1 for times in ref.samples.values())
    assert os.sched_getaffinity(0) == cpus


def test_end_to_end_takes_each_items_median_over_its_passes():
    wl = workloads.WORKLOADS["split3"]
    metrics, log, detail = run.end_to_end(wl, 6, 0.01)
    # one whole pass at least, and every item measured
    assert detail["items"] == workloads.SPLIT_ITEMS
    assert detail["ops"] >= workloads.SPLIT_ITEMS and log.failed == 0
    assert len(detail["setup_samples_s"]) == run.SETUP_SAMPLES
    p50, unit = metrics["op_p50_s"]
    assert unit == "s" and 0 < p50 <= metrics["op_tail_s"][0]
