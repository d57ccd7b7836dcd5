import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import areaflow
from areaflow.cli import _DEMO_AUDITS, _suite_pass, main, parse_space
from areaflow.conditions import audit_conditions
from areaflow.evolution import GAP_TOL
from areaflow.spaces import ModelSpace, bounds


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
        # the child imports the same areaflow as the tests, installed or not
        src = str(Path(areaflow.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "areaflow.cli", "audit", "--nope"],
            capture_output=True, env=env)
        assert proc.returncode == 2

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

    def test_zero_cfl_exits_1_with_json_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "case": "equivariant", "m": 3, "n": 3, "grid": 24, "t_end": 0.05,
            "cfl": 0,
        }))
        code = main(["flow", "--case", "equivariant", "--config", str(cfgfile),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "cfl" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("config", [{"cfl": "0.4"}, {"grid": 24.5}, ["torus"]])
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
        ("torus", "period", 0), ("torus", "n", 0), ("equivariant", "monitor_every", -5)])
    def test_bad_field_exits_1_with_json_error(self, case, key, value, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"case": case, "m": 2, "n": 2, "grid": 8, key: value}))
        code = main(["flow", "--case", case, "--config", str(cfgfile),
                     "--out", str(tmp_path)])
        assert code == 1
        assert key in json.loads(capsys.readouterr().err)["error"]
        assert not list(tmp_path.glob("flow_*"))

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
