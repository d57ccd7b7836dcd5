"""areaflow benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload equivariant_s3 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  Each round runs every job of the workload once, checked, in a
fresh interpreter (``worker.py``), so module caches start cold and imports
cost what a CLI user pays; a new round starts only while half a round of
the median length still ends within ``--seconds``.  Set-up time is taken from a
set-up-only interpreter before each round as well.
With ``--trace 1`` untraced and traced rounds alternate and the per-layer
metrics of the traced rounds are reported.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, stamped with the machine, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 1  # set-up-only interpreters before each round
RUN_LIMIT_S = 170.0  # every run ends within this, hung interpreters included
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class RoundError(RuntimeError):
    """A worker interpreter crashed, hung or printed no result."""


def _worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py to completion; returns its result and its start time."""
    env = dict(os.environ, **THREAD_ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(5.0, deadline - started))
    except subprocess.TimeoutExpired as err:
        raise RoundError(f"worker {args} timed out") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RoundError(f"worker {args} exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1]), started


def _environment(probe: dict) -> dict:
    """Machine stamp: cores, CPU model, L2/L3 sizes, versions, BLAS threads."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    cpu = "unknown"
    try:
        models = [line for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0].split(":", 1)[1].strip() if models else cpu
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **caches,
            "python": probe["python"], "numpy": probe["numpy"],
            "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"]}


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """All rounds of one workload run; returns the aggregated record."""
    base = ["--workload", workload, "--seed", str(seed)]
    t_start = time.monotonic()
    probe, _ = _worker(base + ["--round", "0", "--setup-only"], deadline)  # warm-up
    setups, rounds, errors, round_s = [], [], [], []
    while True:
        t_round = time.monotonic()
        for _ in range(SETUP_PROBES):
            res, started = _worker(base + ["--round", str(len(rounds)), "--setup-only"],
                                   deadline)
            setups.append(res["ready_at"] - started)
        traced = trace and len(rounds) % 2 == 1
        argv = base + ["--round", str(len(rounds)), "--trace", str(int(traced))]
        try:
            res, started = _worker(argv, deadline)
        except RoundError as err:
            errors.append(str(err))
            break
        res["traced"] = traced
        setups.append(res["ready_at"] - started)
        rounds.append(res)
        round_s.append(time.monotonic() - t_round)
        # Start a round only if a typical one ends by ``seconds`` + half a round.
        if (len(rounds) >= (2 if trace else 1)
                and time.monotonic() - t_start + _median(round_s) / 2 > seconds):
            break

    jobs = probe["jobs"]
    attempted = len(jobs) * (len(rounds) + len(errors))
    failed = len(jobs) * len(errors) + sum(
        not r["jobs"][j]["ok"] for r in rounds for j in jobs)
    plain = [r for r in rounds if not r["traced"]]
    end_to_end = {
        "setup_s": _median(setups),
        "wall_ref": _wall_ref(plain, jobs),
        **{f"job{k + 1}_ref": _in_ref(plain, j) for k, j in enumerate(jobs)},
        "wall_s": _median([r["wall_s"] for r in plain]),
        **{f"job{k + 1}_s": _median([r["jobs"][j]["seconds"] for r in plain])
           for k, j in enumerate(jobs)},
        "reference_s": _median([r["jobs"][j]["ref_s"] for r in plain for j in jobs
                                if "ref_s" in r["jobs"][j]]),
        "peak_rss_mib": _median([r["peak_rss_mib"] for r in plain]),
    }
    record = {"workload": workload, "seed": seed, "trace": trace, "jobs": jobs,
              "environment": _environment(probe), "attempted": attempted,
              "failed": failed, "errors": errors, "setup_samples": setups,
              "rounds": rounds, "end_to_end": end_to_end}
    if trace:
        record["per_layer"] = _per_layer(spec, [r for r in rounds if r["traced"]],
                                         plain, errors)
    return record


def _in_ref(rounds: list, job: str) -> float:
    """Total time of ``job`` over ``rounds`` / total reference time beside it.

    A job's reference time is the mean time of the reference kernel sampled
    while the job ran (``worker.SpeedSampler``), so the ratio follows the
    host's speed.  Totals, not per-round ratios, weight every second alike.
    """
    ran = [r["jobs"][job] for r in rounds if "ref_s" in r["jobs"][job]]
    reference = sum(j["ref_s"] for j in ran)
    return sum(j["seconds"] for j in ran) / reference if reference else 0.0


def _wall_ref(rounds: list, jobs: list) -> float:
    """A round's jobs one after another, in reference units."""
    return sum(_in_ref(rounds, job) for job in jobs)


def _per_layer(spec: dict, traced: list, plain: list, errors: list) -> dict:
    """Medians over traced rounds; counts must agree between them exactly."""
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_frac":
            wall_u = _median([r["wall_s"] for r in plain])
            out[name] = _median([r["wall_s"] for r in traced]) / wall_u - 1.0 if wall_u else 0.0
            continue
        values = [r["layers"][name] for r in traced if name in r.get("layers", {})]
        if len(values) < len(traced):
            errors.append(f"traced rounds did not report {name}")
        elif m["unit"] in ("count", "bytes") and len(set(values)) > 1:
            errors.append(f"count {name} differs between rounds: {values}")
        out[name] = _median(values)
    return out


def _print_record(spec: dict, rec: dict) -> None:
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}  "
          f"rounds {len(rec['rounds'])}")
    print("environment " + json.dumps(rec["environment"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = rec["end_to_end"]
    for name, value in e2e.items():
        unit = units.get(name) or ("MiB" if name.endswith("_mib") else "s")
        print(f"  {name:<16} {value:12.6f} {unit}")
    for k, job in enumerate(rec["jobs"]):
        print(f"  {job + '_s':<16} {e2e[f'job{k + 1}_s']:12.6f} s"
              f"  ({e2e[f'job{k + 1}_ref']:.4f} ref)")
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"  {'failed_frac':<16} {frac:12.6f} ratio "
          f"({rec['failed']} failed / {rec['attempted']} attempted)")
    for r in rec["rounds"]:
        for job, j in r["jobs"].items():
            if not j["ok"]:
                print(f"  FAILED {job}: {j['reason']}")
    for err in rec["errors"]:
        print(f"  ERROR {err}")
    for name, value in rec.get("per_layer", {}).items():
        print(f"  {name:<34} {value:16.6f} {units[name]}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*workloads, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "areaflow" / "__init__.py").is_file():
        print(f"error: no areaflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads if args.workload == "all" else [args.workload]:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            rec = run_workload(spec, w, args.seed, args.seconds, bool(args.trace), deadline)
        except RoundError as err:
            print(f"error: {w}: {err}", file=sys.stderr)
            return 1
        (OUT / f"result-{w}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(rec, indent=1, sort_keys=True))
        _print_record(spec, rec)
        values = rec["per_layer"] if args.trace else rec["end_to_end"]
        correct = correct and rec["failed"] == 0 and not rec["errors"]
        attempted += rec["attempted"]
        failed += rec["failed"]
        prefix = f"{w}." if args.workload == "all" else ""
        for m in declared:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
