"""Seeded inputs, jobs and correctness gates of the three benchmark workloads.

Every job goes through an entry point a user calls (``areaflow.cli.main``,
``conditions.audit_conditions``, ``curvature.bounds_of``) and then checks its
own output against the acceptance tolerances.  A job fails by raising; the
worker turns the exception into a failure record.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from areaflow import cli, conditions, curvature
from areaflow.curvature import (
    CurvatureTensor,
    SymBilinear,
    constant_curvature_tensor,
    kulkarni_nomizu,
)

WORKLOADS = ("equivariant_s3", "torus_t2", "algebra")
JOBS = {
    "equivariant_s3": ("eq_static", "eq_coupled"),
    "torus_t2": ("torus_coarse", "torus_fine"),
    "algebra": ("sweep", "extremes"),
}

# The six canonical pairs of ``areaflow report``: (name, M, N, conditions,
# expected verdict per condition).
DEMO_AUDITS = (
    ("sphere3_self", "sphere:3:1", "sphere:3:1", ("A", "B"), {"A": True, "B": True}),
    ("hopf_s3_cp1", "sphere:3:1", "fubini:2:4", ("A", "B"), {"A": False, "B": False}),
    ("hopf_s5_cp2", "sphere:5:1", "fubini:4:4", ("A", "B"), {"A": False, "B": False}),
    ("cp2_self", "fubini:4:4", "fubini:4:4", ("A",), {"A": True}),
    ("s4_to_s3_einstein", "sphere:4:1", "sphere:3:1", ("E",), {"E": True}),
    ("s4_to_flat", "sphere:4:1", "torus:3:6.283185307179586", ("F",), {"F": True}),
)

# The random tensor is drawn once from this fixed seed, not from the workload
# seed: the frame optimizer's work depends on the tensor's spectra (3.7-8.7 s
# per tensor over fresh draws on a 2-core Xeon) and on its orientation
# (objective calls 4131-4568 over nine seeded orientations), which made the
# extremes job vary from seed to seed by more than a third of its bound.
TENSOR_SEED = 231210940
RANDOM_TENSORS = 1
BRACKET_TOL = 1e-9


class GateError(AssertionError):
    """A job's output failed one of its correctness gates."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _sym(rng, scale=0.15):
    a = rng.normal(0.0, scale, (4, 4))
    return 0.5 * (a + a.T)


def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    return q * np.sign(np.diag(r))


def random_tensor(pairs, rot) -> CurvatureTensor:
    """Unit constant curvature plus Kulkarni-Nomizu products of rotated pairs."""
    comp = constant_curvature_tensor(4, 1.0).comp.copy()
    for a, b in pairs:
        comp += kulkarni_nomizu(SymBilinear(rot @ a @ rot.T),
                                SymBilinear(rot @ b @ rot.T)).comp
    return CurvatureTensor(comp)


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Draw the workload's inputs from ``seed`` and write any config files."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs: dict = {"workdir": workdir}
    configs = {}
    if workload == "equivariant_s3":
        amp = 0.8 + float(rng.uniform(-0.02, 0.02))
        configs["eq_static"] = {
            "case": "equivariant", "m": 3, "n": 3, "grid": 128, "t_end": 2.0,
            "preset": "sine", "amplitude": amp, "monitor_every": 120}
        configs["eq_coupled"] = {
            "case": "equivariant", "m": 3, "n": 3, "grid": 128, "t_end": 0.0,
            "preset": "sine", "amplitude": amp, "background_m": "ricci",
            "background_n": "ricci", "t_end_frac_of_extinction": 0.9,
            "monitor_every": 120}
    elif workload == "torus_t2":
        amp = 0.1 + float(rng.uniform(-0.005, 0.005))
        for job, grid in (("torus_coarse", 48), ("torus_fine", 96)):
            configs[job] = {
                "case": "torus", "m": 2, "n": 2, "grid": grid, "t_end": 0.5,
                "preset": "linear_sine", "amplitude": amp, "monitor_every": 40}
    else:
        inputs["sweep_seed"] = int(rng.integers(0, 2**31 - 1))
        fixed = np.random.default_rng(TENSOR_SEED)
        inputs["tensors"] = [
            random_tensor([(_sym(fixed), _sym(fixed)) for _ in range(3)],
                          _rotation(fixed))
            for _ in range(RANDOM_TENSORS)]
    cfg_dir = workdir / "inputs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for job, cfg in configs.items():
        path = cfg_dir / f"{job}.json"
        path.write_text(json.dumps(cfg))
        inputs[job] = path
    return inputs


def grid_points(inputs: dict, job: str) -> int:
    """Grid points of a torus job's state (grid ** m), 0 for other jobs."""
    path = inputs.get(job)
    if not isinstance(path, Path):
        return 0
    cfg = json.loads(path.read_text())
    return cfg["grid"] ** cfg["m"] if cfg["case"] == "torus" else 0


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def _cli(argv: list[str]):
    """Run ``areaflow`` in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _read_csv(path: Path) -> dict:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: rows[:, k] for k, name in enumerate(header)}


def _flow(inputs: dict, job: str, case: str):
    """``areaflow flow`` on the job's config; checks exit, abort and read-back."""
    outdir = inputs["workdir"] / job
    rc, out = _cli(["flow", "--case", case, "--config", str(inputs[job]),
                    "--out", str(outdir), "--stem", job])
    _require(rc == 0, f"areaflow flow exited {rc}")
    printed = json.loads(out)
    _require(printed["abort_reason"] is None, f"flow aborted: {printed['abort_reason']}")
    manifest = json.loads(Path(printed["manifest"]).read_text())
    cols = _read_csv(Path(printed["csv"]))
    rows = len(cols["t"])
    _require(rows == manifest["records"] == printed["records"],
             f"CSV has {rows} rows, manifest says {manifest['records']}")
    counts = {"records": rows,
              "persist_bytes": sum(p.stat().st_size for p in outdir.iterdir())}
    return manifest, cols, counts


def eq_static(inputs: dict, state: dict) -> dict:
    _, cols, counts = _flow(inputs, "eq_static", "equivariant")
    m = cols["m_of_t"]
    defect = float(np.diff(m).min())
    _require(defect >= -1e-8, f"monitor decreases by {defect:.2e}")
    _require(m[-1] >= 1.9, f"m(2) = {m[-1]:.6f} < 1.9")
    return counts


def eq_coupled(inputs: dict, state: dict) -> dict:
    manifest, cols, counts = _flow(inputs, "eq_coupled", "equivariant")
    a = manifest["constants"]["a_used"]
    _require(a is not None and a > 0, f"a_used = {a}")
    m = cols["m_of_t"]
    _require(bool((m > 0).all()), "monitor not positive")
    defect = float(np.diff(a * cols["t"] + np.log(m)).min())
    _require(defect >= -1e-6, f"exp(a t) m(t) decreases (log defect {defect:.2e})")
    return counts


def _residual(cols) -> float:
    return float(np.nanmax(cols["residual"][1:]))


def torus_coarse(inputs: dict, state: dict) -> dict:
    manifest, cols, counts = _flow(inputs, "torus_coarse", "torus")
    h = manifest["discretization"]["h"]
    defect = float(np.diff(cols["m_of_t"]).min())
    _require(defect >= -5 * h**2, f"monitor defect {defect:.2e} < -5h^2")
    state["r_coarse"] = _residual(cols)
    return counts


def torus_fine(inputs: dict, state: dict) -> dict:
    _, cols, counts = _flow(inputs, "torus_fine", "torus")
    _require("r_coarse" in state, "coarse run missing for the residual slope")
    slope = math.log2(state["r_coarse"] / _residual(cols))
    _require(slope >= 1.8, f"residual slope {slope:.3f} < 1.8")
    return counts


def sweep(inputs: dict, state: dict) -> dict:
    rc, out = _cli(["verify-identities", "--sweep", "1000",
                    "--seed", str(inputs["sweep_seed"])])
    payload = json.loads(out)
    failing = [s["suite"] for s in payload["suites"] if not s["pass"]]
    _require(rc == 0 and payload["pass"] and not failing,
             f"verify-identities exited {rc}; failing suites {failing}")
    doublings = sum(round(math.log2(s["chosen_constants"]["c0"] / 8.0))
                    for s in payload["suites"] if "chosen_constants" in s)
    return {"c0_doublings": doublings}


def _operator_min(comp: np.ndarray) -> float:
    """Smallest eigenvalue of the curvature operator on 2-vectors."""
    iu, ju = np.triu_indices(comp.shape[0], k=1)
    op = comp[iu[:, None], ju[:, None], ju[None, :], iu[None, :]]
    return float(np.linalg.eigvalsh(op).min())


def extremes(inputs: dict, state: dict) -> dict:
    for name, sm, sn, conds, expect in DEMO_AUDITS:
        reports = conditions.audit_conditions(cli.parse_space(sm), cli.parse_space(sn),
                                              list(conds), seed=0)
        got = {r.condition: r.holds for r in reports}
        _require(got == expect, f"{name}: verdicts {got}, expected {expect}")
    for k, r in enumerate(inputs["tensors"]):
        b = curvature.bounds_of(r)
        lam = _operator_min(r.comp)
        iu, ju = np.triu_indices(r.dim, k=1)
        sec = r.comp[iu, ju, ju, iu]
        tol = BRACKET_TOL
        _require(lam <= b.kappa + tol and b.kappa <= sec.min() + tol
                 and sec.max() <= b.tau + tol,
                 f"tensor {k}: sectional bracket fails (lam {lam}, kappa {b.kappa}, "
                 f"coordinate [{sec.min()}, {sec.max()}], tau {b.tau})")
        _require(2 * lam <= b.ric3_min + tol, f"tensor {k}: ric3_min {b.ric3_min} < 2 lam")
        _require(lam <= b.chi_ic1 + tol, f"tensor {k}: chi_ic1 {b.chi_ic1} < lam {lam}")
    return {}


JOB_FUNCS = {
    "eq_static": eq_static,
    "eq_coupled": eq_coupled,
    "torus_coarse": torus_coarse,
    "torus_fine": torus_fine,
    "sweep": sweep,
    "extremes": extremes,
}
