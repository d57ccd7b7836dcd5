"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --round R --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --round R --setup-only

Imports numpy and areaflow, draws the workload's inputs, runs its jobs one
after another and checks each.  The last stdout line is one JSON object:
``ready_at`` (the CLOCK_MONOTONIC reading when the inputs were ready), and
unless ``--setup-only`` the per-job times, verdicts and counts, the peak RSS
and, untraced, each job's mean reference-kernel time (``ref_s``) or, traced,
the per-layer metrics.  ``run.py`` starts it.
"""

import argparse
import json
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
REFERENCE_REPS = 100  # 10-18 ms on a 2-vCPU Xeon
SAMPLE_PERIOD_S = 0.25


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workdir = OUT / f"{args.workload}-seed{args.seed}-round{args.round}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.make_inputs(args.workload, args.seed, workdir)
    result = {"ready_at": time.monotonic(), "python": sys.version.split()[0],
              "numpy": np.__version__, "jobs": list(workloads.JOBS[args.workload])}
    if not args.setup_only:
        result.update(_run_jobs(args, workloads, inputs))
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def reference_kernel() -> float:
    """Fixed work: a 96x96 stencil, small numpy calls on 129 nodes, a loop."""
    grid = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)
    line = np.linspace(0.0, np.pi, 129)
    acc = 0.0
    for k in range(REFERENCE_REPS):
        grid = 0.2 * (grid + np.roll(grid, 1, 0) + np.roll(grid, -1, 0)
                      + np.roll(grid, 1, 1) + np.roll(grid, -1, 1))
        for _ in range(10):
            acc += float((np.sin(line) * line + k)[64]) * 1e-6
        for j in range(200):
            acc += (j * j) % 7
    return acc + float(grid.sum())


class SpeedSampler:
    """Times ``reference_kernel`` every ``SAMPLE_PERIOD_S`` while a job runs.

    The host's speed drifts by up to 1.5x within seconds (shared cores), so
    ``run.py`` also reports each job's time in units of the kernel's mean
    time over the job.  A SIGALRM handler runs the kernel between the job's
    bytecodes; its time is taken out of the job's time.
    """

    def __init__(self):
        signal.signal(signal.SIGALRM, self._sample)
        self.active = False
        self.samples: list[float] = []
        self.paused = 0.0

    def _sample(self, *_):
        if not self.active:
            return
        t0 = time.perf_counter()
        reference_kernel()
        spent = time.perf_counter() - t0
        self.samples.append(spent)
        self.paused += spent

    def time(self, fn, *args):
        """``(fn(*args), seconds without samples, mean sample time)``."""
        self.samples, self.paused, self.active = [], 0.0, True
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.active = False
            seconds = time.perf_counter() - t0 - self.paused
        if not self.samples:  # a job shorter than the period
            self.active = True
            self._sample()
            self.active = False
        return result, seconds, sum(self.samples) / len(self.samples)


def _run_jobs(args, workloads, inputs) -> dict:
    rec = sampler = None
    if args.trace:
        import tracer

        rec = tracer.SpanRecorder()
        tracer.install(rec)
    else:  # samples would land inside the spans of a traced round
        sampler = SpeedSampler()
    jobs, counts, state = {}, {}, {}
    for name in workloads.JOBS[args.workload]:
        fn = workloads.JOB_FUNCS[name]
        job = {}
        t0 = time.perf_counter()
        try:
            if rec:
                info = rec.run_job(name, fn, inputs, state)
            else:
                info, job["seconds"], job["ref_s"] = sampler.time(fn, inputs, state)
            reason = None
        except Exception:  # a failed job is reported, the round goes on
            info, reason = {}, traceback.format_exc(limit=3).strip().splitlines()[-1]
        job.setdefault("seconds", time.perf_counter() - t0)
        jobs[name] = {**job, "ok": reason is None, "reason": reason}
        for key, value in info.items():
            counts[key] = counts.get(key, 0) + value
    out = {"jobs": jobs, "counts": counts,
           "wall_s": sum(j["seconds"] for j in jobs.values()),
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if rec is not None:
        points = {job: workloads.grid_points(inputs, job) for job in jobs}
        out["layers"] = tracer.layer_metrics(rec, counts, points)
        rec.dump(OUT / f"spans-{args.workload}-seed{args.seed}-round{args.round}.npz")
    return out


if __name__ == "__main__":
    sys.exit(main())
