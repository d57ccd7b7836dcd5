"""Tooling around the package: the benchmark tracer's targets, the README's
commands and config keys, the package's NumPy imports and its forks."""

import ast
import importlib.util
import re
import shlex
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


README = Path(__file__).resolve().parents[1] / "README.md"


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


SRC = Path(__file__).resolve().parents[1] / "src" / "areaflow"


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
