"""The host-speed references: fixed kernels timed in a process of their own.

The host this benchmark runs on changes speed by up to 1.8x in phases of
seconds to minutes, with process CPU time equal to wall time, so the slow
phases are slower CPUs, not waiting.  Every op and set-up probe is
therefore timed next to a reference kernel, and its time is divided by the
kernel's time around it (see run.py).

The kernels run in a child process that imports nothing of the package, so
the program's heap, garbage collector and imports cannot change their time;
the parent blocks while they run, and both are pinned to the same CPU, so
they see the same CPU as the ops.

    python3 perfbench/hostref.py       # serve: one kernel name per input line
"""

from __future__ import annotations

import functools
import gc
import os
import statistics
import subprocess
import sys
import time

_P = 2_147_483_647


def python_kernel() -> int:
    """A modular LCG over machine-size ints: the interpreter's arithmetic
    and loop overhead, which is what most of the package's time is made of."""
    x = 12345
    acc = 0
    for i in range(18_000):
        x = (x * 48271 + i) % _P
        acc ^= x
    return acc


@functools.cache
def _numpy_matrix():
    import numpy as np

    return np.random.default_rng(1).integers(0, _P, size=(648, 704), dtype=np.int64)


def numpy_kernel():
    """Four elimination-style row updates mod p of a 648 x 704 int64 matrix,
    the shape of the largest fat-point condition matrices."""
    import numpy as np

    a = _numpy_matrix().copy()
    for r in range(4):
        a = (a - np.outer(a[:, r], a[r])) % _P
    return a


# name: (kernel, nominal seconds, runs per sample).  The nominal time is
# about the kernel's median in the fast phases of a 2-vCPU Intel Xeon
# virtual machine; run.py scales by nominal / measured, so scaled results
# read as seconds at that speed.
REFERENCES = {
    "python": (python_kernel, 0.004, 1),
    "numpy": (numpy_kernel, 0.025, 5),
}


def time_reference(name: str) -> float:
    """The median time of one sample's runs of the named kernel."""
    kernel, _, runs = REFERENCES[name]
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def serve() -> None:
    gc.disable()
    warm = set()
    for line in sys.stdin:
        name = line.strip()
        if name not in warm:
            for _ in range(5):
                time_reference(name)
            warm.add(name)
        print(repr(time_reference(name)), flush=True)


class HostRef:
    """A running reference process; ``sample(name)`` times one sample of a
    kernel and keeps it in ``samples[name]``.

    Use as a context manager: the process is stopped and waited for, and the
    caller's CPU affinity restored, on every path out.
    """

    def __init__(self):
        self.cpus = os.sched_getaffinity(0)
        # the child inherits the pin
        os.sched_setaffinity(0, {min(self.cpus)})
        try:
            self.proc = subprocess.Popen(
                [sys.executable, __file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except BaseException:
            os.sched_setaffinity(0, self.cpus)
            raise
        self.samples: dict[str, list[float]] = {name: [] for name in REFERENCES}

    def sample(self, name: str) -> float:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host reference process ended (exit code {self.proc.poll()})")
        dt = float(line)
        self.samples[name].append(dt)
        return dt

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        os.sched_setaffinity(0, self.cpus)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
