"""Tooling around the package: the benchmark tracer's targets and the README's commands."""

import importlib.util
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
