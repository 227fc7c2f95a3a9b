"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload scan9 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout; the run fails without printing a result when it is missing.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with nothing
wrapped: wall-clock times host-scaled by a reference kernel timed next to
each of them (see hostref), the op metrics taken over the run's items, each
measured once per pass.  ``--trace 1`` runs every input
twice, traced and untraced, and reports the per-layer metrics plus the
tracing overhead.  Every run writes its details (tail percentile, machine
and noise facts, per-layer inclusive times) to ``.bench_out/``; a traced
run also writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostref import REFERENCES, HostRef
from tracer import Tracer, analyse, installed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 7
# op_tail_s is the latency with this many samples beyond it
TAIL_BEYOND = 10


def _use_checkout_source() -> None:
    if not (SRC / "curvesplit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'curvesplit'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import curvesplit

    if Path(curvesplit.__file__).resolve().parent != (SRC / "curvesplit").resolve():
        sys.exit(f"perfbench: imported curvesplit from {curvesplit.__file__}, not from {SRC}")


# --- machine and noise facts -------------------------------------------------


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class NoiseProbe:
    """Load average, steal ticks and process CPU time around a measured loop.

    Wall and CPU time spent inside ``excluded()`` blocks are left out of the
    loop's figures.
    """

    def __init__(self):
        self.load_before = os.getloadavg()
        self.steal_before = _steal_ticks()
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()
        self.away_wall = 0.0
        self.away_cpu = 0.0

    def loop_s(self) -> float:
        return time.perf_counter() - self.wall0 - self.away_wall

    @contextlib.contextmanager
    def excluded(self):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.away_wall += time.perf_counter() - w0
            self.away_cpu += time.process_time() - c0

    def finish(self) -> dict:
        wall = self.loop_s()
        cpu = time.process_time() - self.cpu0 - self.away_cpu
        steal_after = _steal_ticks()
        steal = None if self.steal_before is None or steal_after is None else steal_after - self.steal_before
        return {
            "wall_s": wall,
            "process_cpu_s": cpu,
            "cpu_over_wall": cpu / wall if wall > 0 else None,
            "steal_ticks": steal,
            "loadavg_before": self.load_before,
            "loadavg_after": os.getloadavg(),
            "excluded_wall_s": self.away_wall,
        }


# --- measurement -------------------------------------------------------------


def _fresh_modules() -> list[str]:
    return [k for k in sys.modules if k == "workloads" or k == "curvesplit" or k.startswith("curvesplit.")]


def setup_seconds(workload: str, seed: int) -> float:
    """One set-up time: import curvesplit afresh, build the first op's input.

    The package and this benchmark's workloads module are taken out of
    sys.modules, imported anew and timed with the input list they build;
    the modules of the run are put back afterwards, so the run's own
    objects are untouched.  Dependencies the package shares with the
    benchmark (numpy) stay loaded, so interpreter start-up and their import
    are not part of the figure.
    """
    saved = {k: sys.modules.pop(k) for k in _fresh_modules()}
    try:
        t0 = time.perf_counter()
        import workloads

        next(workloads.WORKLOADS[workload].setup(seed))
        dt = time.perf_counter() - t0
    finally:
        for k in _fresh_modules():
            del sys.modules[k]
        sys.modules.update(saved)
        gc.collect()
    return dt


class OpLog:
    """Latency and correctness of each op run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    def record(self, latency: float, problems: list) -> None:
        self.latencies.append(latency)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append("; ".join(str(p) for p in problems))


def run_op(wl, inp, log: OpLog, tracer=None, op_id: int = 0) -> float:
    """One closed-loop op: time the package calls, then check the output.

    A raised exception or a wrong answer both count as a failed op.  With a
    tracer, the op runs as one root span with the tracer's wrappers in place
    (installed before the clock starts).  Returns the op's latency.
    """
    problems = []
    with installed(tracer) if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            with tracer.op_span(op_id) if tracer is not None else contextlib.nullcontext():
                out = wl.op(inp)
        except Exception as exc:  # one bad op must not end the run
            problems = [f"{type(exc).__name__}: {exc}", traceback.format_exc(limit=3)]
        dt = time.perf_counter() - t0
    if not problems:
        try:
            problems = wl.check(inp, out)
        except Exception as exc:
            problems = [f"oracle raised {type(exc).__name__}: {exc}"]
    log.record(dt, problems)
    return dt


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for op_tail_s.

    The highest percentile with TAIL_BEYOND samples beyond it, which is the
    (TAIL_BEYOND + 1)-th largest sample; with fewer samples, the maximum.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_scaled(dt: float, ref_before: float, ref_after: float, nominal: float) -> float:
    """A wall-clock time in seconds at the reference host speed: divided by
    a reference kernel's mean time on either side of it, times the kernel's
    nominal time."""
    return dt * nominal * 2 / (ref_before + ref_after)


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, OpLog, dict]:
    """End-to-end metrics from a closed loop, nothing wrapped.

    The loop makes passes over the run's fixed items (see workloads) until
    the time is up and at least one whole pass is done.  Every op and every
    set-up probe is timed in wall-clock time and host-scaled by a reference
    kernel run just before and just after it (see hostref): the workload's
    own reference for ops, the Python one for the probes, which are Python
    work on every workload.  An item's latency is the median of its ops'
    over the passes, and the op metrics are taken over the items.  The
    set-up probes run between ops, spread over the run.  The loop's clock
    stops while the probes and the reference kernels run.
    """
    inputs = wl.setup(seed)
    log = OpLog()
    per_item: dict = {}
    setups: list[float] = []
    setups_wall: list[float] = []
    op_nominal = REFERENCES[wl.reference][1]
    probe_nominal = REFERENCES["python"][1]
    with HostRef() as ref:

        def probe() -> None:
            before = ref.sample("python")
            dt = setup_seconds(wl.name, seed)
            setups_wall.append(dt)
            setups.append(host_scaled(dt, before, ref.sample("python"), probe_nominal))

        noise = NoiseProbe()
        with noise.excluded():
            ref_last = ref.sample(wl.reference)
        inp = next(inputs)
        while wl.key(inp) not in per_item or noise.loop_s() < seconds:
            # a probe is due every seconds / SETUP_SAMPLES of loop time; an
            # op longer than that is followed by every probe that fell due
            while len(setups) < SETUP_SAMPLES and noise.loop_s() >= len(setups) * seconds / SETUP_SAMPLES:
                with noise.excluded():
                    probe()
            dt = run_op(wl, inp, log)
            with noise.excluded():
                ref_next = ref.sample(wl.reference)
            per_item.setdefault(wl.key(inp), []).append(host_scaled(dt, ref_last, ref_next, op_nominal))
            ref_last = ref_next
            inp = next(inputs)
        facts = noise.finish()
        while len(setups) < SETUP_SAMPLES:
            probe()
    for name, times in ref.samples.items():
        if times:
            nominal = REFERENCES[name][1]
            facts[f"host_slowdown_{name}"] = {
                "median": statistics.median(times) / nominal,
                "min": min(times) / nominal,
                "max": max(times) / nominal,
            }
    lat = log.latencies
    items = [statistics.median(v) for v in per_item.values()]
    tail_s, tail_q, beyond = tail(items)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(items) / sum(items), "1/s"),
        "op_p50_s": (statistics.median(items), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (_rss_mb(), "MB"),
    }
    detail = {
        "setup_samples_s": setups,
        "setup_samples_wall_s": setups_wall,
        "ops": len(lat),
        "items": len(items),
        "ops_reference": wl.reference,
        "fail_ratio": log.failed / len(lat),
        "op_tail_percentile": tail_q,
        "op_tail_samples_beyond": beyond,
        # wall-clock figures over every op of the run, host phases included
        "wall_ops_per_s": len(lat) / facts["wall_s"],
        "wall_op_p50_s": statistics.median(lat),
        "noise": facts,
    }
    return metrics, log, detail


def traced(wl, seed: int, seconds: float) -> tuple[dict, OpLog, dict]:
    """Per-layer figures from a traced run, and the trace's own cost.

    Every input runs twice, once traced and once untraced, in alternating
    order, so trace.overhead compares the same work under the same host
    conditions.  New inputs start while half the budget is left, so a
    traced run takes about as long as an untraced one.
    """
    tr = Tracer()
    with installed(tr):
        inputs = wl.setup(seed)
    log = OpLog()
    spent = {False: 0.0, True: 0.0}
    n_ops = 0
    noise = NoiseProbe()
    t_end = time.perf_counter() + seconds / 2
    while n_ops == 0 or time.perf_counter() < t_end:
        inp = next(inputs)
        for with_trace in (False, True) if n_ops % 2 == 0 else (True, False):
            spent[with_trace] += run_op(wl, inp, log, tr if with_trace else None, n_ops)
        n_ops += 1
    facts = noise.finish()
    report = analyse(tr, n_ops)
    metrics = dict(report.metrics)
    metrics["trace.overhead"] = (spent[True] / spent[False], "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.csv.gz"
    tr.write(spans_path)
    detail = {
        "ops": n_ops,
        "untraced_op_s": spent[False],
        "traced_op_s": spent[True],
        "spans": len(tr.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "inclusive_s": report.inclusive_s,
        "noise": facts,
    }
    return metrics, log, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    metrics, log, detail = measure(wl, args.seed, args.seconds)

    attempted = len(log.latencies)
    detail.update(
        workload=wl.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        attempted=attempted,
        failed=log.failed,
        problems=log.problems,
        machine=machine_facts(),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{wl.name:8} {name:40} {value:14.6g} {unit}")
    print(f"{wl.name:8} {'fail_ratio':40} {log.failed / attempted:14.6g} ratio ({log.failed} of {attempted})")
    if "op_tail_percentile" in detail:
        print(f"{wl.name:8} op_tail_s is p{detail['op_tail_percentile']:.4g}, "
              f"{detail['op_tail_samples_beyond']} of {detail['items']} item medians beyond it "
              f"({attempted} ops in all)")
    for problem in log.problems:
        print(f"{wl.name:8} FAILED: {problem}", file=sys.stderr)
    print(f"{wl.name:8} machine {json.dumps(detail['machine'])}")
    print(f"{wl.name:8} noise {json.dumps(detail['noise'])}")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": attempted,
        "failed": log.failed,
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
