"""The benchmark tracer must find every function it wraps in areaflow."""

import importlib.util
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
