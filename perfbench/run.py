"""Benchmark of the ``hartogs`` CLI on seeded job mixes.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/hartogs`` next to this directory and from nowhere else.  One process,
one thread (BLAS/OpenMP pinned to 1), one client in a closed loop: every job
of the workload's seeded list goes through ``hartogs.cli.run``, the code path
of ``hartogs --config`` without the file I/O, and the next job starts when
the previous one returns.  A pass is one run of the whole list; passes repeat
until --seconds have gone by, and at least two run.

Times are scaled to a core of fixed speed.  On a shared host the speed of a
core drifts by up to 1.8x within minutes, as neighbours come and go.  A short
piece of exact rational arithmetic, timed every SAMPLE_INTERVAL_S of wall
time from a timer signal, tracks that drift for code like this program's;
the clock that times jobs and spans leaves that work out.  Each pass is
scaled by REFERENCE_S over the median reference time in it, so a time reads
as seconds on a core where one reference chunk takes REFERENCE_S.  The
record keeps the raw times.

The first pass checks every report off the clock by an independent route
(see checks.py); later passes must reproduce each report byte for byte.
With --trace 0 the last line of standard output carries the end-to-end
metrics; with --trace 1 untraced and traced passes alternate and it carries
the per-layer metrics of the traced passes (see tracer.py).  The line before
it is a record of the run: versions, core count, thread pinning, source
revision, seed and counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("tables", "certify", "operators")  # jobs.WORKLOADS; jobs imports numpy
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 7
SETUP_REFERENCE_CHUNKS = 10
SETUP_TIMEOUT_S = 60
REFERENCE_S = 0.002
SAMPLE_INTERVAL_S = 0.025


class BenchError(Exception):
    pass


def load_program(workload: str, seed: int):
    """Import hartogs from the checkout and build the job list: the set-up
    that setup_s times.  Thread pinning must precede the numpy import."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import hartogs
    if Path(hartogs.__file__).resolve().parent != (SRC / "hartogs").resolve():
        raise BenchError(f"imported hartogs from {hartogs.__file__}, not from {SRC}")
    import jobs
    return jobs.generate(workload, seed)


def reference_chunk() -> float:
    """Seconds taken by a fixed piece of exact rational arithmetic, with the
    cyclic garbage collector held off so the time does not depend on the heap
    the program left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(reference_times: list[float]) -> float:
    """REFERENCE_S over the median reference time; the median ignores samples
    that a preemption or page fault lengthened."""
    return REFERENCE_S / statistics.median(reference_times)


class Sampler:
    """Times a reference chunk from SIGALRM every SAMPLE_INTERVAL_S of wall
    time, so samples fall uniformly over the jobs whatever their lengths."""

    def __init__(self):
        self.samples: list[float] = []
        self.excluded = 0.0  # seconds spent in the handler so far
        self._busy = False

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        while True:
            excluded = self.excluded
            now = time.perf_counter()
            if self.excluded == excluded:  # no sample ran between the two reads
                return now - excluded

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        entered = time.perf_counter()
        self.samples.append(reference_chunk())
        self.excluded += time.perf_counter() - entered
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def setup_probe(workload: str, seed: int) -> None:
    """The child side of measure_setup: time the reference first, then set up."""
    references = [reference_chunk() for _ in range(SETUP_REFERENCE_CHUNKS)]
    load_program(workload, seed)
    print(json.dumps({"references": references}), flush=True)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled seconds from spawning a fresh interpreter to its first
    job being ready.  Each child times the reference before it imports
    anything else, and that time is left out and sets the child's scale."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.wait()
            finally:
                watchdog.cancel()
        if child.returncode != 0 or not line.startswith("{"):
            raise BenchError(f"set-up probe failed with exit code {child.returncode}")
        references = json.loads(line)["references"]
        raw.append(elapsed - sum(references))
        scaled.append(raw[-1] * scale(references))
    return raw, scaled


def source_revision() -> dict:
    files = sorted((SRC / "hartogs").glob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # never look for a repository above the checkout
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


class Runner:
    """Runs passes over the job list and keeps what the metrics need."""

    def __init__(self, job_list, clock):
        import checks
        from hartogs import cli
        self.jobs = job_list
        self.clock = clock
        self.cli = cli
        self.check = checks.check
        self.digests: list[bytes | None] = []
        self.attempted = 0
        self.failed = 0

    def _fail(self, job, message: str) -> None:
        self.failed += 1
        print(f"job failed: {job.config['command']} seed={job.seed}: {message}", file=sys.stderr)

    def run_pass(self) -> list[float]:
        """One pass; returns the job latencies in job order."""
        first = not self.digests
        latencies = []
        for index, job in enumerate(self.jobs):
            self.attempted += 1
            start = self.clock()
            try:
                code, rendered = self.cli.run(job.config, seed=job.seed, fmt=job.fmt)
            except Exception:
                latencies.append(self.clock() - start)
                self._fail(job, traceback.format_exc())
                if first:
                    self.digests.append(None)
                continue
            latencies.append(self.clock() - start)
            digest = hashlib.sha256(f"{code}\0{rendered}".encode()).digest()
            if first:
                self.digests.append(digest)
                try:
                    self.check(job, code, rendered)
                except Exception as exc:
                    self._fail(job, f"{type(exc).__name__}: {exc}")
            elif digest != self.digests[index]:
                self._fail(job, "report differs from the first pass")
        return latencies


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution.  A single
    order statistic jumps when a gap between job sizes falls at rank p*n; this
    estimate averages the ranks around it."""
    import numpy as np
    x = np.sort(np.asarray(values))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 20 * n + 1)[1:-1]
    log_density = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    density = np.exp(log_density - log_density.max())
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def measure(args) -> dict:
    raw_setup, setup = measure_setup(args.workload, args.seed)
    job_list = load_program(args.workload, args.seed)
    sampler = Sampler()
    runner = Runner(job_list, sampler.clock)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(sampler.clock)
    raw_walls, walls, scales, traced_walls, layer_passes = [], [], [], [], []
    job_latencies = [[] for _ in job_list]  # scaled, one entry per untraced pass
    passes = 0
    with sampler.running():
        start = time.perf_counter()
        while True:
            traced = tracer is not None and passes % 2 == 1
            first_sample = len(sampler.samples)
            if traced:
                tracer.reset()
                with tracer.installed():
                    lat = runner.run_pass()
            else:
                lat = runner.run_pass()
            factor = scale(sampler.samples[first_sample:])
            if traced:
                traced_walls.append(sum(lat) * factor)
                layer_passes.append({key: value * factor if key.endswith("_s") else value
                                     for key, value in tracer.metrics().items()})
            else:
                raw_walls.append(sum(lat))
                walls.append(sum(lat) * factor)
                scales.append(factor)
                for samples, latency in zip(job_latencies, lat):
                    samples.append(latency * factor)
            passes += 1
            elapsed = time.perf_counter() - start
            if passes >= 2 and elapsed + elapsed / passes > args.seconds:
                break

    latencies = [statistics.median(samples) for samples in job_latencies]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "jobs_per_pass": len(job_list), "passes": passes, "attempted": runner.attempted,
        "failed": runner.failed, "fail_frac": runner.failed / runner.attempted,
        "latency_samples": len(latencies), "untraced_passes": len(walls), "raw_walls_s": raw_walls,
        "pass_scales": scales,
        "raw_setup_s": raw_setup, "scaled_setup_s": setup, "reference_s": REFERENCE_S,
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS}, **source_revision(),
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "job_p50_s": (quantile(latencies, 0.5), "s"),
            "job_p90_s": (quantile(latencies, 0.9), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {}
        for key in layer_passes[0]:
            unit = "s" if key.endswith("_s") else "bits" if key.endswith("_bits") else "count"
            metrics[key] = (statistics.median(p[key] for p in layer_passes), unit)
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    print(json.dumps({"record": record}))
    return {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "hartogs" / "__init__.py").is_file():
            raise BenchError(f"no program source at {SRC / 'hartogs'}; run from a checkout")
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
