"""End-to-end command tests: artifacts, exit codes, determinism."""

import json
import math
import shutil
import subprocess

import pytest

from sktlab.cli import main

CERT_MODEL = """\
[model]
d1 = 1.0
d2 = 1.0
alpha1 = 0.5
alpha2 = 0.5
a1 = 1.0
a2 = 1.0
b1 = 2.0
b2 = 0.5
c1 = 0.5
c2 = 2.0
"""

GRID_1D = """\
[grid]
dim = 1
lx = 3.141592653589793
nx = 33
"""

CERT_CONFIG = (
    CERT_MODEL
    + GRID_1D
    + """\
[solver]
dt = 0.001
t_end = 0.005

[initial]
kind = constant
u1 = 0.2
u2 = 0.3
"""
)

BLOWUP_CONFIG = """\
[model]
d1 = 1.0
d2 = 1.0
alpha1 = 0.0
alpha2 = 0.0
a1 = 1.0
a2 = 1.0
b1 = 2.0
b2 = 0.5
c1 = 0.5
c2 = 2.0

[grid]
dim = 1
lx = 3.141592653589793
nx = 17

[solver]
dt = 0.005
t_end = 2.0
overflow_cap = 50.0
snapshot_every = 100

[initial]
kind = constant
u1 = 1.2
u2 = 0.8
"""


@pytest.fixture()
def conf(tmp_path):
    def write(text, name="run.conf"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(args, tmp_path, sub="classify", extra=()):
    out = tmp_path / "out"
    rc = main([sub, "--config", args, "--out", str(out), *extra])
    return rc, out


class TestConfigErrors:
    def check(self, capsys, text, tmp_path, conf, needle, sub="classify", extra=()):
        rc, _ = run(conf(text), tmp_path, sub=sub, extra=extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert needle in err

    def test_missing_model_section(self, capsys, tmp_path, conf):
        self.check(capsys, GRID_1D, tmp_path, conf, "[model]: missing required section")

    def test_unknown_key_named(self, capsys, tmp_path, conf):
        text = CERT_CONFIG + "\n[blowup]\nbogus_knob = 1\n"
        self.check(capsys, text, tmp_path, conf, "[blowup] bogus_knob: unknown key")

    def test_unknown_section_named(self, capsys, tmp_path, conf):
        self.check(capsys, CERT_CONFIG + "\n[plotting]\n", tmp_path, conf, "[plotting]")

    def test_malformed_line_located(self, capsys, tmp_path, conf):
        text = "[model]\nd1 0.5\n"
        self.check(capsys, text, tmp_path, conf, "expected 'key = value'")

    def test_duplicate_key_rejected(self, capsys, tmp_path, conf):
        text = CERT_CONFIG + "\n[blowup]\nmu1 = 1\nmu1 = 2\n"
        self.check(capsys, text, tmp_path, conf, "duplicate key")

    def test_nonpositive_model_value(self, capsys, tmp_path, conf):
        text = CERT_CONFIG.replace("b1 = 2.0", "b1 = -2.0")
        self.check(capsys, text, tmp_path, conf, "[model]")

    def test_missing_t_end_for_marching(self, capsys, tmp_path, conf):
        text = CERT_CONFIG.replace("t_end = 0.005\n", "")
        self.check(
            capsys, text, tmp_path, conf,
            "[solver] t_end: missing required key", sub="simulate",
        )

    def test_bad_formats_list(self, capsys, tmp_path, conf):
        text = CERT_CONFIG + "\n[output]\nformats = csv,xml\n"
        self.check(capsys, text, tmp_path, conf, "[output] formats")

    def test_output_cadence_needs_solver(self, capsys, tmp_path, conf):
        text = CERT_MODEL + GRID_1D + "\n[initial]\nkind = constant\nu1 = 0.1\nu2 = 0.1\n"
        text += "\n[output]\nsnapshot_every = 5\n"
        self.check(capsys, text, tmp_path, conf, "[output] snapshot_every")

    def test_expression_whitelist_blocks_calls(self, capsys, tmp_path, conf):
        text = CERT_MODEL + GRID_1D + (
            "\n[initial]\nkind = expression\n"
            "u1 = __import__('os').getpid()\nu2 = 0.1\n"
        )
        self.check(capsys, text, tmp_path, conf, "[initial] u1")

    def test_negative_expression_data(self, capsys, tmp_path, conf):
        text = CERT_MODEL + GRID_1D + (
            "\n[initial]\nkind = expression\nu1 = cos(x) - 2\nu2 = 0.1\n"
        )
        self.check(capsys, text, tmp_path, conf, "nonnegative")

    def test_unknown_sweep_axis(self, capsys, tmp_path, conf):
        self.check(
            capsys, CERT_CONFIG, tmp_path, conf, "unknown sweep axis",
            sub="sweep",
            extra=("--param", "zeta", "--min", "1", "--max", "2", "--count", "2"),
        )

    def test_log_sweep_needs_positive_endpoints(self, capsys, tmp_path, conf):
        self.check(
            capsys, CERT_CONFIG, tmp_path, conf, "log-scale sweep needs positive",
            sub="sweep",
            extra=(
                "--param", "c1", "--min", "-1", "--max", "2",
                "--count", "2", "--scale", "log",
            ),
        )


class TestClassify:
    def test_report_contents(self, capsys, tmp_path, conf):
        rc, out = run(conf(CERT_CONFIG), tmp_path)
        assert rc == 0
        doc = json.loads((out / "regime_report.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["lambda0"] == 0.0
        assert doc["lambda0_mode"] == "principal"
        assert doc["p_hat0"] == pytest.approx(0.5, rel=1e-12)
        assert doc["regime"]["verdict"] == "certified_global"
        cert = doc["blowup_certificate"]
        assert cert["verdict"] == "not_certified"
        assert cert["failing_condition"] == "p_hat0 > threshold"
        assert cert["t0"] is None
        assert doc["searched_certificate"] is None
        stdout = capsys.readouterr().out
        assert "regime: certified_global" in stdout
        assert "blowup: not_certified (failing: p_hat0 > threshold)" in stdout

    def test_lambda0_mode_override(self, tmp_path, conf):
        rc, out = run(conf(CERT_CONFIG), tmp_path, extra=("--lambda0-mode", "first_positive"))
        assert rc == 0
        doc = json.loads((out / "regime_report.json").read_text())
        assert doc["lambda0_mode"] == "first_positive"
        assert 0.9 < doc["lambda0"] < 1.0
        # the positive eigenvalue empties the admissible window
        assert doc["regime"]["verdict"] == "not_certified"

    def test_first_positive_negative_average_not_certified(self, capsys, tmp_path, conf):
        # against phi0 = cos(x) this data averages to -0.05; it must be
        # graded, not rejected
        text = CERT_CONFIG.replace("nx = 33", "nx = 65").replace(
            "kind = constant\nu1 = 0.2", "kind = expression\nu1 = 0.2 - 0.1*cos(x)"
        ) + "\n[blowup]\nsearch_resolution = 8\n"
        rc, out = run(conf(text), tmp_path, extra=("--lambda0-mode", "first_positive"))
        assert rc == 0
        doc = json.loads((out / "regime_report.json").read_text())
        assert doc["p_hat0"] == pytest.approx(-0.05, rel=1e-3)
        assert doc["blowup_certificate"]["verdict"] == "not_certified"
        assert doc["searched_certificate"]["verdict"] == "not_certified"
        assert "blowup: not_certified" in capsys.readouterr().out

    def test_multiplier_search_block(self, tmp_path, conf):
        rc, out = run(conf(CERT_CONFIG + "\n[blowup]\nsearch_resolution = 8\n"), tmp_path)
        assert rc == 0
        doc = json.loads((out / "regime_report.json").read_text())
        searched = doc["searched_certificate"]
        assert searched is not None
        assert searched["verdict"] in ("certified_blowup_if", "not_certified")
        assert min(searched["mu1"], searched["mu2"]) == 1.0

    def test_explicit_report_path_beats_formats(self, tmp_path, conf):
        text = CERT_CONFIG + "\n[output]\nformats = csv\n"
        target = tmp_path / "elsewhere.json"
        rc, out = run(conf(text), tmp_path, extra=("--regime-report", str(target)))
        assert rc == 0
        assert target.exists()
        assert not (out / "regime_report.json").exists()

    def test_json_format_suppression(self, tmp_path, conf):
        text = CERT_CONFIG + "\n[output]\nformats = csv\n"
        rc, out = run(conf(text), tmp_path)
        assert rc == 0
        assert not (out / "regime_report.json").exists()


class TestSimulate:
    def test_certified_run_artifacts(self, capsys, tmp_path, conf):
        rc, out = run(conf(CERT_CONFIG), tmp_path, sub="simulate")
        assert rc == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["termination"] == "completed"
        assert summary["bracket_mode"] == "window"
        assert summary["steps"] == 5
        assert summary["error"] is None
        assert summary["halvings_used"] == 0
        assert summary["final_time"] == pytest.approx(0.005)
        assert all(v < 2.0 / 3.0 for v in summary["final_sup_norms"])
        lines = (out / "snapshots.csv").read_text().splitlines()
        assert lines[0] == "t,x,u1,u2,h1,h2"
        assert len(lines) == 1 + 6 * 33  # initial state plus five steps
        assert "termination: completed" in capsys.readouterr().out

    def test_zero_data_rows_are_exact_zeros(self, tmp_path, conf):
        text = CERT_CONFIG.replace("u1 = 0.2", "u1 = 0.0").replace("u2 = 0.3", "u2 = 0.0")
        rc, out = run(conf(text), tmp_path, sub="simulate")
        assert rc == 0
        lines = (out / "snapshots.csv").read_text().splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            assert cells[2] == "0.0" and cells[3] == "0.0"
            assert cells[4] == "0.0" and cells[5] == "0.0"

    def test_output_cadence_overrides_solver(self, tmp_path, conf):
        text = CERT_CONFIG + "\n[output]\nsnapshot_every = 5\n"
        rc, out = run(conf(text), tmp_path, sub="simulate")
        assert rc == 0
        lines = (out / "snapshots.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 33  # t=0 and t=t_end only

    def test_formats_json_only(self, tmp_path, conf):
        text = CERT_CONFIG + "\n[output]\nformats = json\n"
        rc, out = run(conf(text), tmp_path, sub="simulate")
        assert rc == 0
        assert (out / "run_summary.json").exists()
        assert not (out / "snapshots.csv").exists()

    def test_bracket_failure_exits_3(self, capsys, tmp_path, conf):
        # data peak 1.0 exceeds the 2/3 ceiling while the low average keeps
        # the blow-up certificate off, forcing the window route to fail loudly
        text = CERT_MODEL + GRID_1D + (
            "\n[solver]\ndt = 0.001\nt_end = 0.01\n"
            "\n[initial]\nkind = expression\nu1 = (x/pi)**8\nu2 = 0.1\n"
        )
        rc, _ = run(conf(text), tmp_path, sub="simulate")
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("bracket construction failed:")
        assert "max(u0_1)" in err

    def test_solver_failure_exits_4_with_partial_artifacts(self, capsys, tmp_path, conf):
        text = CERT_CONFIG.replace(
            "dt = 0.001", "dt = 0.001\nmax_inner_iters = 1\nmax_halvings = 0"
        )
        rc, out = run(conf(text), tmp_path, sub="simulate")
        assert rc == 4
        assert "simulation failed:" in capsys.readouterr().err
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["termination"] == "failed"
        assert "gap" in summary["error"]
        assert summary["steps"] == 0

    def test_overflow_exits_0(self, capsys, tmp_path, conf):
        text = BLOWUP_CONFIG.replace("snapshot_every = 100", "snapshot_every = 500")
        rc, out = run(conf(text), tmp_path, sub="simulate")
        assert rc == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["termination"] == "overflowed"
        assert summary["overflow_time"] is not None
        assert summary["bracket_mode"] == "auto"
        assert "overflow_time:" in capsys.readouterr().out


class TestBlowupCommand:
    def test_certified_run_report(self, capsys, tmp_path, conf):
        rc, out = run(conf(BLOWUP_CONFIG), tmp_path, sub="blowup")
        assert rc == 0
        doc = json.loads((out / "blowup_report.json").read_text())
        cert = doc["certificate"]
        assert cert["verdict"] == "certified_blowup_if"
        assert cert["threshold"] == pytest.approx(4.0 / 3.0)
        assert doc["p_hat0"] == pytest.approx(2.0, rel=1e-12)
        assert doc["t0"] == pytest.approx(math.log(3.0), rel=1e-9)
        assert doc["bound_violations"] == 0
        assert doc["within_t0_slack"] is True
        assert doc["detected_blowup_time"] <= 1.1 * doc["t0"]
        assert doc["run_summary"]["termination"] == "overflowed"
        assert len(doc["rows"]) >= 3
        first = doc["rows"][0]
        assert first["t"] == 0.0
        assert first["p_hat"] == pytest.approx(2.0, rel=1e-12)
        assert first["riccati_bound"] == pytest.approx(2.0, rel=1e-12)
        assert first["violation"] is False
        lines = (out / "p_hat_trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,p_hat,riccati_bound,max_u1_plus_u2"
        assert len(lines) == 1 + len(doc["rows"])
        stdout = capsys.readouterr().out
        assert "verdict: certified_blowup_if" in stdout
        assert "detected_blowup_time:" in stdout


class TestSweep:
    def test_branch_flip_at_exact_boundary(self, tmp_path, conf):
        rc, out = run(
            conf(CERT_CONFIG), tmp_path, sub="sweep",
            extra=("--param", "c1", "--min", "3.0", "--max", "4.0", "--count", "5"),
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "param,value,regime_verdict,blowup_verdict,condition_branch,"
            "branch_condition_holds,threshold,p_hat0,t0,detected_blowup_time"
        )
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == "c1"
            value = float(cells[1])
            holds = cells[5]
            # strict inequality: c1 + 0.5 < 4.0 flips exactly at c1 = 3.5
            assert holds == ("true" if value < 3.5 else "false")
        # growth constants degenerate from c1 = 3.5 on: threshold cell empties
        assert lines[3].split(",")[1] == "3.5"
        assert lines[3].split(",")[6] == ""
        assert lines[1].split(",")[6] != ""

    def test_simulating_sweep_records_detection(self, tmp_path, conf):
        rc, out = run(
            conf(BLOWUP_CONFIG), tmp_path, sub="sweep",
            extra=(
                "--param", "d1", "--min", "1.0", "--max", "1.1",
                "--count", "2", "--simulate",
            ),
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(lines) == 2
        for line in lines:
            cells = line.split(",")
            assert cells[3] == "certified_blowup_if"
            detected = float(cells[9])
            assert 0.5 < detected < 1.1 * math.log(3.0)


class TestDeterminism:
    def test_classify_byte_identical(self, tmp_path, conf):
        path = conf(CERT_CONFIG + "\n[blowup]\nsearch_resolution = 6\n")
        rc1, out1 = run(path, tmp_path)
        shutil.move(out1, tmp_path / "first")
        rc2, out2 = run(path, tmp_path)
        assert rc1 == rc2 == 0
        a = (tmp_path / "first" / "regime_report.json").read_bytes()
        b = (out2 / "regime_report.json").read_bytes()
        assert a == b

    def test_simulate_byte_identical(self, tmp_path, conf):
        path = conf(CERT_CONFIG)
        rc1, out1 = run(path, tmp_path, sub="simulate")
        shutil.move(out1, tmp_path / "first")
        rc2, out2 = run(path, tmp_path, sub="simulate")
        assert rc1 == rc2 == 0
        for name in ("snapshots.csv", "run_summary.json"):
            assert (tmp_path / "first" / name).read_bytes() == (out2 / name).read_bytes()


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path, conf):
        exe = shutil.which("sktlab")
        assert exe is not None, "console script not on PATH"
        path = conf(CERT_CONFIG)
        proc = subprocess.run(
            [exe, "classify", "--config", path, "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "regime: certified_global" in proc.stdout
