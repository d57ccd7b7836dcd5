"""Tooling around the package: the benchmark tracer's targets and traced
rounds, the README's commands and config keys, the package's NumPy imports
and its forks."""

import ast
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, path, _ in tracer.TARGETS:
        *owner_path, attr = path.split(".")
        owner = tracer._MODULES[module]
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):  # install() reads vars(owner)[attr]
            missing.append(f"{module}.{path}")
    assert not missing, f"tracer targets not found: {missing}"


# one traced benchmark round: the tracer's wrappers installed, the workload's
# jobs run through ``SpanRecorder.run_job`` (a job that fails its gate raises),
# then the per-layer metrics printed as JSON
TRACED_ROUND = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
import tracer, workloads
rec = tracer.SpanRecorder()
tracer.install(rec)
workload, jobs = sys.argv[2], workloads.JOBS[sys.argv[2]]
inputs = workloads.make_inputs(workload, 1, Path(sys.argv[3]))
counts, state = {}, {}
for job in jobs:
    for key, value in rec.run_job(job, workloads.JOB_FUNCS[job], inputs, state).items():
        counts[key] = counts.get(key, 0) + value
points = {job: workloads.grid_points(inputs, job) for job in jobs}
print(json.dumps(tracer.layer_metrics(rec, counts, points)))
"""


@pytest.mark.parametrize("workload", ["equivariant_s3", "torus_t2", "algebra"])
def test_traced_rounds_pass_their_gates_and_agree_on_counts(workload, tmp_path):
    # the benchmark refuses a traced round whose job fails, whose tracer cannot
    # wrap a target, or whose count metrics differ from another round's
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    rounds = []
    for k in range(2):
        done = subprocess.run(
            [sys.executable, "-c", TRACED_ROUND, str(ROOT), workload, str(tmp_path / str(k))],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        layers = json.loads(done.stdout.splitlines()[-1])
        rounds.append({name: layers[name] for name in counted})
    assert rounds[0] == rounds[1]


README = ROOT / "README.md"


def test_readme_audit_and_pic1_commands_run():
    from areaflow.cli import main

    block = README.read_text().split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines()
             if ln.startswith(("areaflow audit ", "areaflow pic1 "))]
    assert len(lines) >= 3
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_readme_config_keys_are_the_config_fields():
    from dataclasses import fields

    from areaflow.flow import FlowConfig

    para = README.read_text().split("Flow configs are JSON objects with keys", 1)[1]
    listing = para.split(":", 1)[1].split("\n\n", 1)[0]
    while "(" in listing:  # the parenthesised defaults, innermost first
        listing = re.sub(r"\([^()]*\)", "", listing)
    keys = re.findall(r"`([^`]+)`", listing.split(".", 1)[0])
    assert sorted(keys) == sorted(f.name for f in fields(FlowConfig))


SRC = ROOT / "src" / "areaflow"


def test_no_module_imports_a_private_numpy_module():
    # a private module (numpy.linalg._umath_linalg, numpy._core, ...) may change
    # or go in any NumPy release
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            private += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] == "numpy"
                        and any(part.startswith("_") for part in name.split("."))]
    assert not private, private


def test_only_the_fanout_module_forks():
    # a forked child must leave through ``os._exit`` with SIGINT ignored and
    # the GC off, and its pipes must be closed and the child reaped on every
    # way out; ``fanout._Child`` is the one place that does all of that, so
    # no other module forks, touches a pipe, kills or waits for a process,
    # or maps memory to share with a child
    forks = ("os.fork", "os.forkpty", "os._exit")
    child_io = ("os.pipe", "os.read", "os.write", "os.kill", "os.waitpid")
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fanout.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # hasattr(os, "fork") and the like
                names = [f"os.{node.value}"] if f"os.{node.value}" in forks else []
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name in forks + child_io or name.split(".")[0] == "mmap"]
    assert not found, found
