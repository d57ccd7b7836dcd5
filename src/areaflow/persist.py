"""Deterministic CSV/JSON persistence for series and reports.

Identical configuration and seeds must reproduce byte-identical files, so
floats are written with their shortest round-trip representation, JSON keys
are sorted, and nothing clock- or host-dependent is recorded.  Non-finite
values are legal in CSV cells but are mapped to null in JSON, which has no
encoding for them.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .flow import FlowSeries


def output_dir(requested: str | None) -> Path:
    """Resolve the output directory (flag wins, then AREAFLOW_OUTDIR, then cwd)."""
    path = Path(requested or os.environ.get("AREAFLOW_OUTDIR") or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cell(x) -> str:
    return repr(float(x))


def write_series_csv(series: FlowSeries, path) -> Path:
    path = Path(path)
    lines = [FlowSeries.CSV_HEADER]
    lines += [",".join(_cell(v) for v in row) for row in series.rows()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):  # numpy scalar
        return _jsonable(obj.item())
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    return obj


def to_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)


def write_json(obj, path) -> Path:
    path = Path(path)
    path.write_text(to_json(obj) + "\n")
    return path


def series_manifest(series: FlowSeries, csv_name: str, *, version: str) -> dict:
    """Run manifest: config echo, chosen constants, summary (no wall time:
    manifests take part in the byte-identical reproducibility contract)."""
    m_of = series.m_of_t
    return {
        "tool": "areaflow",
        "version": version,
        "config": series.meta.get("config"),
        "series_csv": csv_name,
        "records": len(series.times),
        "abort_reason": series.abort_reason,
        "constants": {
            "a_used": series.meta.get("a_used"),
            "a_min_observed": series.meta.get("a_min_observed"),
        },
        "discretization": {k: series.meta.get(k)
                           for k in ("h", "steps", "rhs_evals", "t_end", "dt_min", "dt_max",
                                     "cfl_refreshes") if k in series.meta},
        "summary": {
            "t_final": series.times[-1] if series.times else None,
            "m_initial": m_of[0] if m_of else None,
            "m_final": m_of[-1] if m_of else None,
            "m_min": min(m_of) if m_of else None,
            "lambda_max": max(series.lambda_max) if series.lambda_max else None,
        },
    }


def persist_series(series: FlowSeries, outdir, stem: str, *, version: str):
    """Write <stem>.csv and <stem>.manifest.json; returns both paths."""
    outdir = Path(outdir)
    csv_path = write_series_csv(series, outdir / f"{stem}.csv")
    man = series_manifest(series, csv_path.name, version=version)
    man_path = write_json(man, outdir / f"{stem}.manifest.json")
    return csv_path, man_path
