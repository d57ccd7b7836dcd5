"""Command-line entry point.

Subcommands:

  audit             evaluate curvature conditions on a pair of spaces
  verify-identities run the random sweeps of the algebraic/inequality oracles
  pic1              curvature extremes (incl. the isotropic shift) of a space
  flow              integrate a configured flow and persist its series
  report            run the canonical demo battery into an output directory

Space specs use a ``kind:dim:value`` mini-grammar:

  sphere:3:1            unit 3-sphere (value = radius)
  fubini:4:4            CP^2, max holomorphic sectional 4 (sectional in [1,4])
  torus:2:6.2832        flat square torus (value = period)
  constant:3:-1         constant sectional curvature -1
  custom:4:kappa=1,tau=4,ric_min=6,ric_max=6,scal_min=24,scal_max=24,ric3=2,chi=0[,einstein=6]

Exit codes: 0 all assertions of the invoked suite pass, 1 an assertion
failed (diagnostics as JSON on stdout), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .conditions import CONDITIONS, audit_conditions
from .curvature import CurvatureBounds
from .evolution import (
    GAP_TOL,
    sweep_algebra,
    sweep_bound,
    sweep_gradient_formula,
    sweep_positivity,
    sweep_term_II,
)
from .flow import FlowConfig, run
from .persist import output_dir, persist_series, to_json, write_json
from .spaces import ModelSpace, bounds as space_bounds

_CUSTOM_KEYS = {
    "kappa": "kappa", "tau": "tau", "ric_min": "ric_min", "ric_max": "ric_max",
    "scal_min": "scal_min", "scal_max": "scal_max", "ric3": "ric3_min",
    "chi": "chi_ic1", "einstein": "einstein_const",
}


def parse_space(spec: str) -> ModelSpace:
    parts = spec.split(":", 2)
    if len(parts) != 3:
        raise ValueError(f"space spec {spec!r} is not kind:dim:value")
    kind, dim_s, value = parts
    dim = int(dim_s)
    if kind == "sphere":
        return ModelSpace("sphere", dim, scale=float(value))
    if kind == "fubini":
        return ModelSpace("fubini", dim, scale=float(value))
    if kind == "torus":
        return ModelSpace("torus", dim, scale=float(value))
    if kind == "constant":
        return ModelSpace("constant", dim, curvature=float(value))
    if kind == "custom":
        fields = {}
        for item in value.split(","):
            key, _, num = item.partition("=")
            if key not in _CUSTOM_KEYS:
                raise ValueError(f"unknown custom bound key {key!r}")
            fields[key] = float(num)
        missing = set(_CUSTOM_KEYS) - {"einstein"} - set(fields)
        if missing:
            raise ValueError(f"custom spec missing keys: {sorted(missing)}")
        return ModelSpace("custom", dim, bounds_override=CurvatureBounds(
            dim=dim, **{_CUSTOM_KEYS[k]: v for k, v in fields.items()}))
    raise ValueError(f"unknown space kind {kind!r}")


def _cmd_audit(args) -> int:
    space_m = parse_space(args.m)
    space_n = parse_space(args.n)
    conds = [c.strip() for c in args.conditions.split(",") if c.strip()]
    reports = audit_conditions(space_m, space_n, conds)
    payload = {
        "space_M": space_m.describe(),
        "space_N": space_n.describe(),
        "reports": [r.to_dict() for r in reports],
    }
    print(to_json(payload))
    if args.out:
        write_json(payload, output_dir(args.out) / "audit.json")
    return 0


def _cmd_pic1(args) -> int:
    space = parse_space(args.space)
    b = space_bounds(space)
    payload = {"space": space.describe(), "bounds": b.to_dict()}
    print(to_json(payload))
    if args.out:
        write_json(payload, output_dir(args.out) / "pic1.json")
    return 0


def _suite_pass(suite: dict) -> bool:
    """A sweep suite passes when its gap (if any) is at least ``GAP_TOL`` and
    every other float it reports, a defect, is at most 1e-12."""
    defects = [v for k, v in suite.items() if isinstance(v, float) and k != "min_gap"]
    return suite.get("min_gap", GAP_TOL) >= GAP_TOL and all(v <= 1e-12 for v in defects)


def _cmd_verify(args) -> int:
    n = args.sweep
    seed = args.seed
    suites = [
        sweep_algebra(n, seed),
        sweep_gradient_formula(min(n, 5000), seed + 1),
        sweep_term_II(n, seed + 2),
        sweep_positivity(min(n, 10000), seed + 3, alpha_positive=True),
        sweep_positivity(min(n, 10000), seed + 4, alpha_positive=False),
        sweep_bound("A", min(n, 10000), seed + 5),
        sweep_bound("B", min(n, 10000), seed + 6),
        sweep_bound("C", min(n, 10000), seed + 7),
        sweep_bound("D", min(n, 10000), seed + 8),
    ]
    for s in suites:
        s["pass"] = _suite_pass(s)
    ok = all(s["pass"] for s in suites)
    payload = {"seed": seed, "requested_sweep": n, "suites": suites,
               "pass": ok}
    print(to_json(payload))
    if args.out:
        write_json(payload, output_dir(args.out) / "verify_identities.json")
    return 0 if ok else 1


def _cmd_flow(args) -> int:
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("a flow config must be a JSON object")
    else:
        raw = {}
    raw.setdefault("case", args.case)
    if raw["case"] != args.case:
        raise ValueError("--case disagrees with the config file")
    cfg = FlowConfig.from_dict(raw)
    series = run(cfg)
    outdir = output_dir(args.out)
    stem = args.stem or f"flow_{cfg.case}"
    csv_path, man_path = persist_series(series, outdir, stem, version=__version__)
    print(to_json({"csv": str(csv_path), "manifest": str(man_path),
                   "records": len(series.times),
                   "abort_reason": series.abort_reason}))
    return 0


_DEMO_AUDITS = [
    # (name, M, N, conditions, expectation: condition -> holds)
    ("sphere3_self", "sphere:3:1", "sphere:3:1", ["A", "B"],
     {"A": True, "B": True}),
    ("hopf_s3_cp1", "sphere:3:1", "fubini:2:4", ["A", "B"],
     {"A": False, "B": False}),
    ("hopf_s5_cp2", "sphere:5:1", "fubini:4:4", ["A", "B"],
     {"A": False, "B": False}),
    ("cp2_self", "fubini:4:4", "fubini:4:4", ["A"], {"A": True}),
    ("s4_to_s3_einstein", "sphere:4:1", "sphere:3:1", ["E"], {"E": True}),
    ("s4_to_flat", "sphere:4:1", "torus:3:6.283185307179586", ["F"],
     {"F": True}),
]


def _cmd_report(args) -> int:
    # the sweeps run first, so a bad sample count fails before a file is written
    sweeps = [
        sweep_algebra(args.sweep, args.seed),
        sweep_term_II(args.sweep, args.seed + 1),
        sweep_positivity(min(args.sweep, 2000), args.seed + 2, alpha_positive=True),
        sweep_bound("A", min(args.sweep, 2000), args.seed + 3),
        sweep_bound("C", min(args.sweep, 2000), args.seed + 4),
    ]
    for s in sweeps:
        s["pass"] = _suite_pass(s)
    outdir = output_dir(args.out)
    audit_payload = []
    for name, sm, sn, conds, expect in _DEMO_AUDITS:
        reports = audit_conditions(parse_space(sm), parse_space(sn), conds)
        entry = {"name": name, "m": sm, "n": sn,
                 "reports": [r.to_dict() for r in reports]}
        entry["expected"] = expect
        entry["pass"] = all(r.holds == expect[r.condition] for r in reports)
        audit_payload.append(entry)
    write_json({"audits": audit_payload}, outdir / "report_audits.json")
    write_json({"suites": sweeps}, outdir / "report_sweeps.json")

    cfg = FlowConfig(case="equivariant", m=3, n=3, grid=128, t_end=1.0,
                     preset="sine", amplitude=0.8)
    series = run(cfg)
    persist_series(series, outdir, "report_flow_s3", version=__version__)
    mono = bool((np.diff(series.m_of_t) >= -1e-8).all())

    audits_pass = all(e["pass"] for e in audit_payload)
    sweeps_pass = all(s["pass"] for s in sweeps)
    ok = audits_pass and sweeps_pass and mono and series.abort_reason is None
    summary = {"pass": ok, "audits_pass": audits_pass, "sweeps_pass": sweeps_pass,
               "flow_monotone": mono, "version": __version__}
    write_json(summary, outdir / "report_summary.json")
    print(to_json(summary))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="areaflow",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("audit", help="evaluate curvature conditions on a pair")
    a.add_argument("--m", required=True, help="source space spec")
    a.add_argument("--n", required=True, help="target space spec")
    a.add_argument("--conditions", default="A,B",
                   help=f"comma list from {','.join(CONDITIONS)}")
    a.add_argument("--out", default=None, help="also write audit.json here")
    a.set_defaults(fn=_cmd_audit)

    v = sub.add_parser("verify-identities", help="random oracle sweeps")
    v.add_argument("--sweep", type=int, default=100000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)

    q = sub.add_parser("pic1", help="curvature extremes of one space")
    q.add_argument("--space", required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_pic1)

    f = sub.add_parser("flow", help="integrate a flow and persist the series")
    f.add_argument("--case", required=True, choices=["torus", "equivariant"])
    f.add_argument("--config", default=None, help="JSON config file")
    f.add_argument("--out", default=None)
    f.add_argument("--stem", default=None, help="output file stem")
    f.set_defaults(fn=_cmd_flow)

    r = sub.add_parser("report", help="canonical demo battery")
    r.add_argument("--out", default=None)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--sweep", type=int, default=20000)
    r.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:
        print(to_json({"error": str(err)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
