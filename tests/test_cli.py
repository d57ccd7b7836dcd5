import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as hs

import areaflow
from areaflow import cli, flow
from areaflow.cli import _CUSTOM_KEYS, _DEMO_AUDITS, _suite_pass, main, parse_space
from areaflow.conditions import CONDITIONS, audit_conditions
from areaflow.evolution import GAP_TOL
from areaflow.persist import to_json
from areaflow.spaces import ModelSpace, bounds


# Configs whose arrays would take 7.3 TiB to 71 PiB
OVERSIZED = [{"case": "torus", "grid": 100000000}, {"case": "torus", "m": 30, "grid": 3},
             {"case": "torus", "n": 100000000000, "grid": 3},
             {"case": "equivariant", "grid": 1000000000000}]


def child(args):
    """The CLI run in a child interpreter that imports the same areaflow as
    the tests, installed or not, with every warning shown."""
    src = str(Path(areaflow.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "always", "-m", "areaflow.cli", *args],
                          capture_output=True, text=True, env=env)


def invoke(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestSpaceSpecs:
    def test_sphere(self):
        sp = parse_space("sphere:3:2")
        assert (sp.kind, sp.dim, sp.scale) == ("sphere", 3, 2.0)

    def test_constant_negative(self):
        sp = parse_space("constant:3:-1")
        assert sp.curvature == -1.0
        assert bounds(sp).tau == -1.0

    def test_custom(self):
        sp = parse_space("custom:4:kappa=1,tau=4,ric_min=6,ric_max=6,"
                         "scal_min=24,scal_max=24,ric3=2,chi=0,einstein=6")
        b = bounds(sp)
        assert b.tau == 4.0 and b.chi_ic1 == 0.0 and b.einstein_const == 6.0

    def test_bad_specs(self):
        for bad in ("sphere:3", "blob:3:1", "custom:4:zap=1"):
            with pytest.raises(ValueError):
                parse_space(bad)


class TestAuditCommand:
    def test_sphere_pair_holds(self, capsys):
        code, out = invoke(["audit", "--m", "sphere:3:1", "--n", "sphere:3:1",
                            "--conditions", "A"], capsys)
        assert code == 0
        rep = json.loads(out)["reports"][0]
        assert rep["holds"] and rep["strict"]
        assert rep["slacks"][1] == {"name": "kappa_sum", "value": 2.0}

    def test_hopf_pair_fails_cleanly(self, capsys):
        code, out = invoke(["audit", "--m", "sphere:3:1", "--n", "fubini:2:4",
                            "--conditions", "A,B"], capsys)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["holds"] for r in reports] == [False, False]
        assert reports[0]["slacks"][0]["value"] == -1.0
        assert reports[1]["slacks"][1]["value"] == -1.0

    def test_unknown_flag_exits_2(self):
        assert child(["audit", "--nope"]).returncode == 2

    def test_bad_spec_exits_1(self, capsys):
        code = main(["audit", "--m", "sphere:3", "--n", "sphere:3:1"])
        assert code == 1

    @pytest.mark.parametrize("args,field", [
        (["pic1", "--space", "sphere:3:nan"], "scale"),
        (["pic1", "--space", "constant:3:inf"], "curvature"),
        (["pic1", "--space", "constant:3:nan"], "curvature"),
        (["pic1", "--space", "fubini:4:nan"], "scale"),
        (["pic1", "--space", "torus:2:-inf"], "scale"),
        (["pic1", "--space", "custom:4:kappa=1,tau=inf,ric_min=6,ric_max=6,"
                             "scal_min=24,scal_max=24,ric3=2,chi=0"], "tau"),
        (["pic1", "--space", "custom:4:kappa=1,tau=4,ric_min=6,ric_max=6,"
                             "scal_min=24,scal_max=24,ric3=2,chi=0,einstein=nan"],
         "einstein_const"),
        (["audit", "--m", "sphere:3:nan", "--n", "sphere:3:1", "--conditions", "A"],
         "scale"),
        (["audit", "--m", "custom:3:kappa=nan,tau=1,ric_min=2,ric_max=2,scal_min=6,"
                          "scal_max=6,ric3=2,chi=2", "--n", "sphere:3:1",
          "--conditions", "A"], "kappa"),
    ])
    def test_nonfinite_spec_exits_1_with_json_error(self, args, field, capsys):
        assert main(args) == 1
        assert f"{field} must be finite" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("kind, value", [("sphere", "1"), ("fubini", "4"),
                                             ("torus", "1"), ("constant", "1")])
    def test_dim_past_the_float_range_exits_1_with_json_error(self, kind, value, capsys):
        spec = f"{kind}:1{'0' * 400}:{value}"
        for args in (["pic1", "--space", spec], ["audit", "--m", spec, "--n", "sphere:3:1"]):
            assert main(args) == 1
            assert "dim" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("spec", ["sphere:1" + "0" * 160 + ":1", "constant:4:5e307"])
    def test_dim_that_overflows_the_bounds_exits_1_with_json_error(self, spec, capsys):
        assert main(["pic1", "--space", spec]) == 1
        assert "dim" in json.loads(capsys.readouterr().err)["error"]

    def test_einstein_off_the_ricci_constant_exits_1_with_json_error(self, capsys):
        # parsed before, yet the ricci path died at 1/7 while the bounds read Ricci 6
        assert main(["pic1", "--space", "custom:4:kappa=1,tau=4,ric_min=6,ric_max=6,"
                     "scal_min=24,scal_max=24,ric3=2,chi=0,einstein=7"]) == 1
        assert "einstein_const" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("spec", [
        "custom:4:kappa=2,kappa=1,tau=4,ric_min=6,ric_max=6,scal_min=24,scal_max=24,"
        "ric3=2,chi=0",
        "custom:4:kappa=1,tau=4,ric_min=6,ric_max=6,scal_min=24,scal_max=24,ric3=2,"
        "chi=0,einstein=6,einstein=6",
    ])
    def test_repeated_custom_key_exits_1_with_json_error(self, spec, capsys):
        # the last value used to win silently, with exit 0
        assert main(["pic1", "--space", spec]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert "given twice" in err and ("'kappa'" in err or "'einstein'" in err)

    def test_missing_custom_keys_named_as_the_parser_reads_them(self, capsys):
        assert main(["pic1", "--space", "custom:4:kappa=1,tau=4"]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        for key in ("ric_min", "ric_max", "scal_min", "scal_max", "ric3", "chi"):
            assert repr(key) in err
        assert "ric3_min" not in err and "chi_ic1" not in err and "einstein" not in err


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out = invoke(["verify-identities", "--sweep", "500", "--seed", "3"],
                           capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"]
        names = {s["suite"] for s in payload["suites"]}
        assert {"profile_algebra", "term_II_oracle", "bound_A", "bound_C"} <= names

    @pytest.mark.parametrize("sweep", ["0", "-1"])
    def test_empty_sweep_exits_1_with_json_error(self, sweep, capsys):
        assert main(["verify-identities", "--sweep", sweep]) == 1
        captured = capsys.readouterr()
        assert "samples" in json.loads(captured.err)["error"]
        assert captured.out == ""

    def test_suite_pass_rule(self):
        assert _suite_pass({"suite": "gap", "samples": 9, "min_gap": GAP_TOL})
        assert not _suite_pass({"suite": "gap", "samples": 9, "min_gap": 2 * GAP_TOL})
        assert _suite_pass({"suite": "defect", "samples": 9, "a": 0.0, "b": 1e-12})
        assert not _suite_pass({"suite": "defect", "samples": 9, "a": 0.0, "b": 2e-12})
        assert not _suite_pass({"suite": "defect", "samples": 9, "a": float("nan")})

    def test_reruns_print_identical_json(self, capsys):
        outs = [invoke(["verify-identities", "--sweep", "1000", "--seed", "7"], capsys)
                for _ in range(2)]
        assert outs[0][0] == 0
        assert outs[0] == outs[1]


class TestReportCommand:
    def test_empty_sweep_exits_1_before_writing(self, tmp_path, capsys):
        assert main(["report", "--sweep", "0", "--out", str(tmp_path / "rep")]) == 1
        assert "samples" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "rep").exists()


class TestFlowCommand:
    def test_run_and_persist(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "case": "torus", "grid": 12, "t_end": 0.01, "preset": "sine",
            "amplitude": 0.1, "monitor_every": 3,
        }))
        code, out = invoke(["flow", "--case", "torus", "--config", str(cfgfile),
                            "--out", str(tmp_path)], capsys)
        assert code == 0
        csv = (tmp_path / "flow_torus.csv").read_text()
        assert csv.splitlines()[0] == "t,m_of_t,lambda_max,max_product,residual,scaleM,scaleN"
        man = json.loads((tmp_path / "flow_torus.manifest.json").read_text())
        assert man["config"]["grid"] == 12
        assert man["abort_reason"] is None

    @pytest.mark.parametrize("case,m,grid", [("equivariant", 3, 24), ("torus", 2, 12)],
                             ids=["equivariant", "torus"])
    def test_byte_identical_reruns(self, case, m, grid, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "case": case, "m": m, "n": 3, "grid": grid, "t_end": 0.05,
            "preset": "sine", "amplitude": 0.5, "monitor_every": 6,
        }))
        blobs = []
        for sub in ("a", "b"):
            outdir = tmp_path / sub
            code, _ = invoke(["flow", "--case", case, "--config",
                              str(cfgfile), "--out", str(outdir)], capsys)
            assert code == 0
            blobs.append(((outdir / f"flow_{case}.csv").read_bytes(),
                          (outdir / f"flow_{case}.manifest.json").read_bytes()))
        assert blobs[0] == blobs[1]
        disc = json.loads(blobs[0][1])["discretization"]
        assert set(disc) == {"h", "steps", "rhs_evals", "t_end", "dt_min", "dt_max",
                             "cfl_refreshes"}
        assert disc["steps"] > 0 and 0 < disc["dt_min"] <= disc["dt_max"]
        assert disc["cfl_refreshes"] == disc["steps"]
        assert disc["rhs_evals"] >= 2 * disc["steps"]

    def test_cfl_key_exits_1_with_json_error(self, tmp_path, capsys):
        # the CFL fraction is a constant of the stepper, not a config key
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "case": "equivariant", "m": 3, "n": 3, "grid": 24, "t_end": 0.05,
            "cfl": 0.4,
        }))
        code = main(["flow", "--case", "equivariant", "--config", str(cfgfile),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "cfl" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("config", [{"t_end": "0.4"}, {"grid": 24.5}, ["torus"]])
    def test_bad_config_types_exit_1_with_json_error(self, config, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        code = main(["flow", "--case", "torus", "--config", str(cfgfile),
                     "--out", str(tmp_path)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("case", ["torus", "equivariant"])
    @pytest.mark.parametrize("grid", [-8, 2])
    def test_degenerate_grid_exits_1_with_json_error(self, case, grid, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"case": case, "m": 3, "n": 3, "grid": grid}))
        code = main(["flow", "--case", case, "--config", str(cfgfile),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "grid" in json.loads(capsys.readouterr().err)["error"]
        assert not list(tmp_path.glob("flow_*"))

    @pytest.mark.parametrize("case,key,value", [
        ("torus", "period", 0), ("torus", "n", 0), ("equivariant", "monitor_every", -5),
        # fields the case never reads
        ("torus", "background_m", "ricci"), ("torus", "radius_m", 5.0),
        ("equivariant", "winding", [[1, 0], [0, 1]]), ("equivariant", "period", 3.0),
        # shapes a run would refuse only once it started
        ("equivariant", "m", 1), ("equivariant", "m", 3), ("torus", "winding", [[1, 0, 0]]),
        # values a run would meet only as an OverflowError
        ("torus", "period", 1e300), ("torus", "winding", [[10**400, 0], [0, 1]]),
        # radii whose sphere has a curvature past the float range
        ("equivariant", "radius_m", 1e-200), ("equivariant", "radius_n", 1e200)])
    def test_bad_field_exits_1_with_json_error(self, case, key, value, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"case": case, "m": 2, "n": 2, "grid": 8, key: value}))
        code = main(["flow", "--case", case, "--config", str(cfgfile),
                     "--out", str(tmp_path)])
        assert code == 1
        assert key in json.loads(capsys.readouterr().err)["error"]
        assert not list(tmp_path.glob("flow_*"))

    def test_nan_metric_exits_0_with_the_abort_reason(self, tmp_path, capsys):
        # an overflowed map gives no rows, and the run says why
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"case": "torus", "grid": 8, "amplitude": 1e300}))
        with np.errstate(over="ignore", invalid="ignore"):
            code, out = invoke(["flow", "--case", "torus", "--config", str(cfgfile),
                                "--out", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["records"] == 0
        assert payload["abort_reason"] == "induced metric is NaN: the map left the float range"
        man = json.loads((tmp_path / "flow_torus.manifest.json").read_text())
        assert man["abort_reason"] == payload["abort_reason"]

    # maps that leave the float range at once: stderr, where NumPy prints its
    # warnings, stays empty
    @pytest.mark.parametrize("config,reason", [
        ({"case": "torus", "amplitude": 1e300},
         "induced metric is NaN: the map left the float range"),
        ({"case": "torus", "m": 4, "n": 2, "grid": 4, "amplitude": 1e160},
         "induced metric is NaN: the map left the float range"),
        ({"case": "equivariant", "preset": "sine", "amplitude": 1e300},
         "lambda_max 1.000e+300 beyond guard"),
    ], ids=["torus", "torus_m4", "equivariant"])
    def test_overflowing_map_exits_0_with_empty_stderr(self, config, reason, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        proc = child(["flow", "--case", config["case"], "--config", str(cfgfile),
                      "--out", str(tmp_path)])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["abort_reason"] == reason

    @pytest.mark.parametrize("entry", [0.5, True, "1"])
    def test_non_integral_winding_exits_1_with_json_error(self, entry, tmp_path, capsys):
        # int() used to truncate 0.5 to 0 and run, and record, the winding [[0, 0], [0, 1]]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"case": "torus", "grid": 8, "t_end": 0.001,
                                       "winding": [[entry, 0], [0, 1]]}))
        code = main(["flow", "--case", "torus", "--config", str(cfgfile),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "winding" in json.loads(capsys.readouterr().err)["error"]
        assert not list(tmp_path.glob("flow_*"))

    @pytest.mark.parametrize("config", OVERSIZED)
    def test_oversized_config_exits_1_with_json_error(self, config, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        code = main(["flow", "--case", config["case"], "--config", str(cfgfile),
                     "--out", str(tmp_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert all(key in err for key in config if key != "case")
        assert not list(tmp_path.glob("flow_*"))

    def test_memory_error_exits_1_with_json_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 7.3 TiB")

        monkeypatch.setattr(cli, "run", exhausted)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"case": "torus", "grid": 8}))
        code = main(["flow", "--case", "torus", "--config", str(cfgfile),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "7.3 TiB" in json.loads(capsys.readouterr().err)["error"]

    def test_outdir_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AREAFLOW_OUTDIR", str(tmp_path / "envout"))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "case": "torus", "grid": 8, "t_end": 0.005, "preset": "zero",
            "monitor_every": 2,
        }))
        code, _ = invoke(["flow", "--case", "torus", "--config", str(cfgfile)],
                         capsys)
        assert code == 0
        assert (tmp_path / "envout" / "flow_torus.csv").exists()


class TestPic1Command:
    def test_sphere(self, capsys):
        code, out = invoke(["pic1", "--space", "sphere:4:1"], capsys)
        assert code == 0
        b = json.loads(out)["bounds"]
        assert abs(b["chi_ic1"] - 1.0) < 1e-3
        assert b["ric_min"] == 3.0

    @pytest.mark.parametrize("args", [
        ["pic1", "--space", "fubini:4:4", "--starts", "4"],
        ["pic1", "--space", "fubini:4:4", "--seed", "0"],
        ["audit", "--m", "sphere:3:1", "--n", "sphere:3:1", "--seed", "0"],
    ], ids=["pic1-starts", "pic1-seed", "audit-seed"])
    def test_removed_optimizer_flags_exit_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2


class TestNoTensorOnAuditPaths:
    """Audits read closed-form bounds: nothing builds a tensor or optimizes frames."""

    @pytest.fixture(autouse=True)
    def forbid_tensors(self, monkeypatch):
        from areaflow import curvature, spaces

        def refuse(*args, **kwargs):
            raise AssertionError("an audit path built a tensor or ran the optimizer")

        monkeypatch.setattr(spaces, "curvature_at", refuse)
        monkeypatch.setattr(curvature, "minimize_over_frames", refuse)

    def test_bounds_of_a_large_projective_space(self):
        b = bounds(ModelSpace("fubini", 40, scale=4.0))
        assert (b.kappa, b.tau, b.ric3_min, b.chi_ic1) == (1.0, 4.0, 2.0, 0.0)
        assert b.ric_min == b.ric_max == 42.0

    def test_demo_audits(self):
        for name, sm, sn, conds, expect in _DEMO_AUDITS:
            reports = audit_conditions(parse_space(sm), parse_space(sn), conds)
            assert {r.condition: r.holds for r in reports} == expect, name

    def test_pic1_command(self, capsys):
        code, out = invoke(["pic1", "--space", "fubini:8:4"], capsys)
        assert code == 0
        assert json.loads(out)["bounds"]["chi_ic1"] == 0.0


class TestPersist:
    def test_empty_series_gives_header_only_csv(self, tmp_path):
        from areaflow.flow import FlowSeries
        from areaflow.persist import persist_series

        csv_path, man_path = persist_series(FlowSeries(), tmp_path, "empty",
                                            version="0.0.0")
        assert csv_path.read_text() == FlowSeries.CSV_HEADER + "\n"
        man = json.loads(man_path.read_text())
        assert man["records"] == 0 and man["summary"]["m_final"] is None

    def test_default_grids_per_case(self):
        from areaflow.flow import FlowConfig

        assert FlowConfig(case="torus").grid == 64
        assert FlowConfig(case="equivariant").grid == 512


# Spec values over the whole float range, and text the parser must refuse.
SPEC_NUMBERS = (hs.floats(allow_nan=True, allow_infinity=True).map(repr)
                | hs.sampled_from(["", "x", "1e400", "-0", "4", "0.25", "1e200", "1e-200",
                                   "5e307", "-5e307"]))


@hs.composite
def space_specs(draw):
    """kind:dim:value specs, valid and not; dims stay small, though the closed-form
    bounds build no tensor (fubini:1000:4 would be 1000^4 floats if one did)."""
    kind = draw(hs.sampled_from(["sphere", "fubini", "torus", "constant", "custom",
                                 "blob", ""]))
    dim = draw(hs.integers(-1, 9).map(str) | hs.sampled_from(["", "x", "2.5"]))
    if kind != "custom":
        return f"{kind}:{dim}:{draw(SPEC_NUMBERS)}"
    # a constant-curvature template, so that some custom specs are consistent
    c, d = draw(hs.floats(-10.0, 10.0)), max(2, int(dim) if dim.lstrip("-").isdigit() else 2)
    values = {"kappa": c, "tau": c, "ric_min": (d - 1) * c, "ric_max": (d - 1) * c,
              "scal_min": d * (d - 1) * c, "scal_max": d * (d - 1) * c, "ric3": 2 * c,
              "chi": c, "einstein": (d - 1) * c}
    items = [f"{k}={v!r}" for k, v in values.items()]
    for _ in range(draw(hs.integers(0, 2))):  # drop, replace or add an item
        i = draw(hs.integers(0, len(items) - 1))
        key = draw(hs.sampled_from(sorted(_CUSTOM_KEYS) + ["zap"]))
        items[i:i + 1] = draw(hs.sampled_from([[], [f"{key}={draw(SPEC_NUMBERS)}"]]))
    return f"custom:{dim}:{','.join(items)}"


def run_cli(args):
    """Exit code and the JSON of stdout (exit 0) or stderr (exit 1)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1), args
    stream = out if code == 0 else err
    return code, json.loads(stream.getvalue())


def numbers(payload, key=None):
    """(key, value) of every number and null in a JSON payload."""
    if isinstance(payload, dict):
        for k, v in payload.items():
            yield from numbers(v, k)
    elif isinstance(payload, list):
        for v in payload:
            yield from numbers(v, key)
    elif payload is None or (isinstance(payload, (int, float)) and not isinstance(payload, bool)):
        yield key, payload


def assert_finite(payload):
    """Every number finite; a null only for ric3_min, undefined on surfaces."""
    for key, v in numbers(payload):
        assert v is None and key == "ric3_min" or v is not None and math.isfinite(v), (key, v)


class TestSpecFuzz:
    @settings(max_examples=300, deadline=1000, derandomize=True)
    @given(space_specs())
    def test_spec_parses_cleanly_or_is_refused(self, spec):
        try:
            b = bounds(parse_space(spec))
        except ValueError:
            return
        assert_finite(json.loads(to_json(b.to_dict())))

    @settings(max_examples=200, deadline=1000, derandomize=True)
    @example("custom:9:kappa=8e307,tau=8e307,ric_min=0,ric_max=0,scal_min=0,scal_max=0,"
             "ric3=1.6e308,chi=0", "sphere:9:1", ["B"])  # finite bounds, sec_gap overflows
    @example("sphere:3:1e200", "sphere:3:1e-200", ["A"])  # 1/scale^2 leaves the float range
    @given(space_specs(), space_specs(),
           hs.lists(hs.sampled_from(CONDITIONS + ("Z",)), min_size=1, max_size=3))
    def test_audit_and_pic1_exit_cleanly(self, spec_m, spec_n, conds):
        for args in (["pic1", "--space", spec_m],
                     ["audit", "--m", spec_m, "--n", spec_n, "--conditions", ",".join(conds)]):
            code, payload = run_cli(args)
            if code == 1:
                assert isinstance(payload["error"], str)
            else:
                assert_finite(payload)


@hs.composite
def flow_sizes(draw):
    """Flow configs over the whole size range (grid up to 1e12, m up to 40, n up
    to 1e11), mostly small or far past the size cap."""
    return {"case": draw(hs.sampled_from(["torus", "equivariant"])),
            "grid": draw(hs.integers(0, 12) | hs.integers(0, 10**12)),
            "m": draw(hs.integers(1, 4) | hs.integers(0, 40)),
            "n": draw(hs.integers(1, 4) | hs.integers(0, 10**11)),
            "t_end": 1e-3, "monitor_every": 2}


def largest_array(d):
    """Entries of a drawn config's largest array as the size cap counts them:
    a torus's ringed Hessian, an equivariant run's nodes."""
    grid = d["grid"] or (64 if d["case"] == "torus" else 512)
    if d["case"] == "equivariant":
        return grid + 1
    return d["m"] ** 2 * d["n"] * (grid + 2) ** min(d["m"], 32)


class TestFlowFuzz:
    @settings(max_examples=100, deadline=5000, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(flow_sizes())
    def test_flow_exits_cleanly(self, d):
        size = largest_array(d)
        assume(size <= 20000 or size > flow.MAX_ENTRIES)  # runs only small configs
        with tempfile.TemporaryDirectory() as tmp:
            cfgfile = Path(tmp) / "cfg.json"
            cfgfile.write_text(json.dumps(d))
            code, payload = run_cli(["flow", "--case", d["case"], "--config", str(cfgfile),
                                     "--out", tmp])
        if code == 1:
            assert isinstance(payload["error"], str)
        else:
            assert size <= flow.MAX_ENTRIES and payload["records"] >= 1


class TestVerifyFuzz:
    @settings(max_examples=40, deadline=2000, derandomize=True)
    @example(8, 2**64 + 1)  # seeds past 64 bits are accepted
    @given(hs.integers(1, 8), hs.integers(0, 10**30))
    def test_small_sweeps_pass_or_fail_cleanly(self, sweep, seed):
        code, payload = run_cli(["verify-identities", "--sweep", str(sweep),
                                 "--seed", str(seed)])
        if code == 1:
            assert isinstance(payload["error"], str)
        else:
            assert payload["pass"] is True and payload["requested_sweep"] == sweep
