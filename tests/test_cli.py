"""End-to-end command tests: artifacts, exit codes, determinism."""

import contextlib
import errno
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sktlab
from sktlab import cli
from sktlab.cli import _write_snapshots_csv, main
from sktlab.config import build_initial_fields, load_config
from sktlab.errors import ConfigError, NumericalError
from sktlab.grid import Grid, ScalarField, principal_eigenpair
from sktlab.iteration import SystemState
from sktlab.model import ModelParams

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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


RECTANGLE_CONFIG = CERT_MODEL + """\
[grid]
dim = 2
lx = 3.141592653589793
nx = 9
ly = 2.0
ny = 9

[solver]
dt = 0.001
t_end = 0.002

[initial]
kind = expression
u1 = 0.2 + 0.1*cos(x)*cos(y)
u2 = 0.3 + 0.05*cos(2*y)
"""


def _child_env() -> dict:
    """The environment for a child interpreter that imports this sktlab."""
    # pytest's `pythonpath` setting does not reach child processes.
    src = str(Path(sktlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


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
        # the shift is derived per step, not configured
        text = CERT_CONFIG.replace("[solver]\n", "[solver]\nphi1 = 5.0\n")
        self.check(capsys, text, tmp_path, conf, "[solver] phi1: unknown key")

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

    def test_empty_output_directory(self, capsys, tmp_path, conf):
        text = CERT_CONFIG + "\n[output]\ndirectory =\n"
        self.check(capsys, text, tmp_path, conf, "[output] directory: value must not be empty")
        with pytest.raises(ConfigError) as info:
            load_config(conf(text))
        assert info.value.line == text.splitlines().index("directory =") + 1

    def test_output_path_naming_a_file(self, capsys, tmp_path, conf):
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(["classify", "--config", conf(CERT_CONFIG), "--out", str(taken)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {str(taken)!r}")

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

    @pytest.mark.parametrize("key, value", [("ly", "2.0"), ("ny", "9")])
    def test_rectangle_keys_on_1d_grid(self, capsys, tmp_path, conf, key, value):
        text = CERT_CONFIG.replace("nx = 33\n", f"nx = 33\n{key} = {value}\n")
        self.check(capsys, text, tmp_path, conf, f"{key}: key is meaningless on a 1D grid")

    @pytest.mark.parametrize(
        "config, entry, key, line",
        [(CERT_CONFIG, "nx = 33", "nx", 15), (RECTANGLE_CONFIG, "ny = 9", "ny", 17)],
        ids=["1d-nx", "2d-ny"],
    )
    def test_grid_too_large_for_an_array(self, capsys, tmp_path, conf, config, entry, key, line):
        # 10**20 points do not fit np.intp: a config error naming the key,
        # not numpy's "Maximum allowed dimension exceeded" traceback
        text = config.replace(f"{entry}\n", f"{key} = {10**20}\n")
        most = np.iinfo(np.intp).max // (9 if key == "ny" else 1)
        self.check(
            capsys, text, tmp_path, conf,
            f"[grid] {key}: {key} must be at most {most}, got {10**20}",
        )
        with pytest.raises(ConfigError) as info:
            load_config(conf(text))
        assert (info.value.section, info.value.key, info.value.line) == ("grid", key, line)

    def test_sweep_needs_a_value(self, capsys, tmp_path, conf):
        self.check(
            capsys, CERT_CONFIG, tmp_path, conf, "sweep count must be >= 1, got 0",
            sub="sweep",
            extra=("--param", "c1", "--min", "1", "--max", "2", "--count", "0"),
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


class TestRectangleConfig:
    def test_fields_match_the_expressions(self, conf):
        cfg = load_config(conf(RECTANGLE_CONFIG))
        grid = cfg.grid
        assert grid.compatible(Grid.rectangle(math.pi, 2.0, 9, 9))
        u1, u2 = build_initial_fields(
            cfg.require_initial(), grid, principal_eigenpair(grid, cfg.lambda0_mode)
        )
        want1 = ScalarField.from_function(grid, lambda x, y: 0.2 + 0.1 * np.cos(x) * np.cos(y))
        want2 = ScalarField.from_function(grid, lambda x, y: 0.3 + 0.05 * np.cos(2 * y))
        for got, want in ((u1, want1), (u2, want2)):
            assert got.values.shape == (9, 9)
            assert np.array_equal(got.values, want.values)
        # u2 varies along y only
        assert np.ptp(u2.values[:, 0]) == 0.0 and np.ptp(u2.values[0]) > 0.0

    def test_simulate_writes_both_coordinates(self, tmp_path, conf):
        rc, out = run(conf(RECTANGLE_CONFIG), tmp_path, sub="simulate")
        assert rc == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["termination"] == "completed" and summary["steps"] == 2
        lines = (out / "snapshots.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,u1,u2,h1,h2"
        assert len(lines) == 1 + 3 * 81


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


class TestSnapshotWriter:
    """snapshots.csv against a cell-by-cell reference formatter, written by
    this process alone or split into blocks across forked writers."""

    PARAMS = ModelParams(
        d1=1.0, d2=1.0, alpha1=0.5, alpha2=0.0,
        a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
    )
    GRIDS = pytest.mark.parametrize(
        "grid",
        [Grid.interval(math.pi, 33), Grid.rectangle(math.pi, 2.0, 7, 5)],
        ids=["1d", "2d"],
    )

    @staticmethod
    def reference(grid, snapshots):
        def row(*cells):
            return ",".join(repr(float(c)) for c in cells) + "\n"

        fields = ("u1", "u2", "h1", "h2")
        if grid.dimension == 1:
            text = "t,x,u1,u2,h1,h2\n"
            for s in snapshots:
                for j, x in enumerate(grid.xs):
                    text += row(s.t, x, *(getattr(s, f).values[j] for f in fields))
        else:
            text = "t,x,y,u1,u2,h1,h2\n"
            for s in snapshots:
                for i, x in enumerate(grid.xs):
                    for j, y in enumerate(grid.ys):
                        text += row(s.t, x, y, *(getattr(s, f).values[i, j] for f in fields))
        return text

    @classmethod
    def states(cls, grid, count):
        """`count` snapshots with zero, -0.0 and subnormal cells; the last
        is an overflowed final state, which writes inf and nan cells."""
        rng = np.random.default_rng(2)
        snapshots = []
        for k in range(count):
            u1 = rng.random(grid.shape) * 10.0 ** rng.integers(-12, 9, grid.shape)
            u2 = rng.random(grid.shape)
            u2.flat[:3] = (0.0, -0.0, 5e-324)
            last = k == count - 1
            if last:
                u1 = np.full(grid.shape, np.inf)
                u1.flat[1] = np.nan
            snapshots.append(
                SystemState.from_u_arrays(cls.PARAMS, grid, k / count, u1, u2, overflowed=last)
            )
        return snapshots

    @staticmethod
    def assert_clean(directory):
        """No temp part is left beside the file, and no child unreaped."""
        assert {p.name for p in directory.iterdir()} <= {"snapshots.csv"}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture()
    def split(self, monkeypatch):
        """split(cpus) lets every write split into blocks down to one
        snapshot on `cpus` writers, and returns the list of forks made."""
        forks = []
        fork = os.fork

        def counting():
            forks.append(None)
            return fork()

        def configure(cpus):
            monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)
            monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
            monkeypatch.setattr(os, "fork", counting)
            return forks

        return configure

    @GRIDS
    def test_matches_cell_by_cell_reference(self, grid, tmp_path):
        snapshots = self.states(grid, 4)
        path = tmp_path / "snapshots.csv"
        _write_snapshots_csv(path, grid, snapshots)
        text = path.read_text()
        assert text == self.reference(grid, snapshots)
        for cell in (",-0.0,", ",5e-324,", ",inf,", ",nan,"):
            assert cell in text

    @GRIDS
    @pytest.mark.parametrize(
        "cpus, count, forks",
        [(2, 4, 1), (3, 5, 2), (8, 3, 2), (8, 1, 0), (1, 4, 0)],
        ids=["two-writers", "odd-count", "more-cpus-than-snapshots", "one-snapshot", "one-cpu"],
    )
    def test_split_matches_reference(self, grid, cpus, count, forks, tmp_path, split):
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork on this platform")
        counted = split(cpus)
        snapshots = self.states(grid, count)
        path = tmp_path / "snapshots.csv"
        _write_snapshots_csv(path, grid, snapshots)
        assert len(counted) == forks
        assert path.read_text() == self.reference(grid, snapshots)
        self.assert_clean(tmp_path)

    @pytest.mark.parametrize(
        "marker, error",
        [(0, RuntimeError), (-1, ChildProcessError)],
        ids=["own-block-fails", "child-block-fails"],
    )
    def test_failing_block_raises_and_cleans_up(
        self, marker, error, tmp_path, split, monkeypatch, capfd
    ):
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork on this platform")
        split(2)
        grid = Grid.interval(math.pi, 33)
        snapshots = self.states(grid, 4)
        rows = cli._write_rows

        def failing(fh, points, block):
            if any(s is snapshots[marker] for s in block):
                raise RuntimeError("marker snapshot")
            rows(fh, points, block)

        monkeypatch.setattr(cli, "_write_rows", failing)
        with pytest.raises(error):
            _write_snapshots_csv(tmp_path / "snapshots.csv", grid, snapshots)
        self.assert_clean(tmp_path)
        if error is ChildProcessError:
            # the child printed its own traceback
            assert "RuntimeError: marker snapshot" in capfd.readouterr().err

    @pytest.mark.parametrize("own", [True, False], ids=["own-block-fails", "child-block-fails"])
    def test_failing_block_leaves_no_artifact(self, own, tmp_path, conf, split, monkeypatch, capfd):
        # through the CLI the writer's target is a temp file beside
        # snapshots.csv, renamed only once every block is written
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork on this platform")
        split(2)
        rows = cli._write_rows

        def failing(fh, points, block):
            if (block[0].t == 0.0) == own:  # block 0 is this process's own
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            rows(fh, points, block)

        monkeypatch.setattr(cli, "_write_rows", failing)
        rc, out = run(conf(CERT_CONFIG), tmp_path, sub="simulate")
        assert rc == 2
        err = capfd.readouterr().err.splitlines()[-1]
        reason = os.strerror(errno.ENOSPC) if own else "writer of snapshot block 1 exited"
        assert err.startswith(f"cannot write {out / 'snapshots.csv'}: {reason}")
        assert list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_cli_prints_each_line_once(self, tmp_path, conf):
        # stdout still holds "start" at the fork: a child that flushed its
        # copy of the buffer would print it twice
        script = (
            "import sys; from sktlab import cli; "
            "cli._BLOCK_CELLS = 1; cli._cpu_count = lambda: 3; "
            "print('start'); sys.exit(cli.main(sys.argv[1:]))"
        )
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)  # a pipe's stdout is block-buffered
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", script,
             "simulate", "--config", conf(CERT_CONFIG), "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "start",
            f"wrote {out / 'snapshots.csv'}",
            f"wrote {out / 'run_summary.json'}",
            "termination: completed",
        ]
        lines = (out / "snapshots.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 33
        assert sorted(p.name for p in out.iterdir()) == ["run_summary.json", "snapshots.csv"]


class TestUnwritableArtifact:
    """An artifact path that cannot be written ends the run with one line,
    and leaves no temp file behind."""

    @pytest.mark.parametrize(
        "sub, config, artifact, extra",
        [
            ("classify", CERT_CONFIG, "regime_report.json", ()),
            ("simulate", CERT_CONFIG, "snapshots.csv", ()),
            ("simulate", CERT_CONFIG, "run_summary.json", ()),
            ("blowup", BLOWUP_CONFIG, "blowup_report.json", ()),
            ("blowup", BLOWUP_CONFIG, "p_hat_trajectory.csv", ()),
            ("sweep", CERT_CONFIG, "sweep.csv",
             ("--param", "c1", "--min", "3.0", "--max", "4.0", "--count", "2")),
        ],
        ids=["classify", "simulate-csv", "simulate-json", "blowup-json", "blowup-csv", "sweep"],
    )
    def test_directory_in_the_way_exits_2(self, capsys, tmp_path, conf, sub, config, artifact, extra):
        blocked = tmp_path / "out" / artifact
        blocked.mkdir(parents=True)
        rc, out = run(conf(config), tmp_path, sub=sub, extra=extra)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"cannot write {blocked}: Is a directory\n"
        assert f"wrote {blocked}" not in captured.out
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    @pytest.mark.parametrize(
        "sub, config, artifacts",
        [
            ("simulate", CERT_CONFIG, ("snapshots.csv", "run_summary.json")),
            ("blowup", BLOWUP_CONFIG, ("blowup_report.json", "p_hat_trajectory.csv")),
        ],
        ids=["simulate", "blowup"],
    )
    def test_artifacts_take_the_mode_of_a_plain_open(self, tmp_path, conf, sub, config, artifacts):
        reference = tmp_path / "reference"
        with open(reference, "w"):
            pass
        rc, out = run(conf(config), tmp_path, sub=sub)
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(artifacts)
        for name in artifacts:
            assert (out / name).stat().st_mode == reference.stat().st_mode


class TestSnapshotSpool:
    """`sktlab simulate` keeps its states in a spool, an unlinked file in the
    output directory that no way out of the command leaves open."""

    @staticmethod
    def assert_released(out):
        """No file in `out` is still open in this process, and no child is
        left unreaped."""
        fds = Path("/proc/self/fd")
        if fds.is_dir():
            links = []
            for fd in fds.iterdir():
                with contextlib.suppress(OSError):  # the listing's own fd
                    links.append(os.readlink(fd))
            assert not [link for link in links if link.startswith(str(out))]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_spool_that_cannot_be_made_exits_2_before_simulating(
        self, capsys, tmp_path, conf, monkeypatch
    ):
        def refused(**kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

        calls = []
        monkeypatch.setattr(tempfile, "TemporaryFile", refused)
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: calls.append(a))
        rc, out = run(conf(CERT_CONFIG), tmp_path, sub="simulate")
        assert rc == 2 and calls == []
        path = out / "snapshots.csv"
        assert capsys.readouterr().err == f"cannot write {path}: {os.strerror(errno.EACCES)}\n"
        assert list(out.iterdir()) == []

    def test_spool_that_cannot_be_written_exits_2(self, capsys, tmp_path, conf, monkeypatch):
        writes = []
        pwrite = os.pwrite

        def filling(fd, data, offset):
            writes.append(offset)
            if len(writes) > 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", filling)
        rc, out = run(conf(CERT_CONFIG), tmp_path, sub="simulate")
        assert rc == 2
        path = out / "snapshots.csv"
        assert capsys.readouterr().err == f"cannot write {path}: {os.strerror(errno.ENOSPC)}\n"
        assert list(out.iterdir()) == []
        self.assert_released(out)

    @pytest.mark.parametrize(
        "case, code, artifacts",
        [
            ("bracket-fails", 3, []),
            ("raises-after-the-run", 4, []),
            ("ends-failed", 4, ["run_summary.json", "snapshots.csv"]),
        ],
    )
    def test_failing_run_leaves_no_spool(
        self, capsys, tmp_path, conf, monkeypatch, case, code, artifacts
    ):
        text = CERT_CONFIG
        if case == "bracket-fails":
            # the data peak exceeds the window's ceiling; see
            # TestSimulate.test_bracket_failure_exits_3
            text = text.replace("kind = constant\nu1 = 0.2", "kind = expression\nu1 = (x/pi)**8")
        elif case == "ends-failed":
            text = text.replace("dt = 0.001", "dt = 0.001\nmax_inner_iters = 1\nmax_halvings = 0")
        else:
            inner = cli.simulate

            def raising(*args, **kwargs):
                result = inner(*args, **kwargs)
                assert len(result.snapshots) == 6  # every state was spooled
                raise NumericalError("after the run")

            monkeypatch.setattr(cli, "simulate", raising)
        rc, out = run(conf(text), tmp_path, sub="simulate")
        assert rc == code, capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == artifacts
        self.assert_released(out)

    @pytest.mark.parametrize("missing", [("pwrite",), ("pwrite", "fork")], ids=["no-pwrite", "no-fork"])
    def test_platform_without_pwrite_keeps_a_list(self, tmp_path, conf, monkeypatch, missing):
        rc, out = run(conf(CERT_CONFIG), tmp_path / "spooled", sub="simulate")
        assert rc == 0
        sinks = []
        inner = cli.simulate

        def recording(*args, **kwargs):
            result = inner(*args, **kwargs)
            sinks.append(type(result.snapshots))
            return result

        monkeypatch.setattr(cli, "simulate", recording)
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)  # fork where fork exists
        for name in missing:
            monkeypatch.delattr(os, name)
        rc, listed = run(conf(CERT_CONFIG), tmp_path / "listed", sub="simulate")
        assert rc == 0 and sinks == [list]
        for name in ("snapshots.csv", "run_summary.json"):
            assert (listed / name).read_bytes() == (out / name).read_bytes()
        assert sorted(p.name for p in listed.iterdir()) == ["run_summary.json", "snapshots.csv"]

    def test_run_keeps_at_most_300_bytes_a_snapshot(self, tmp_path, conf, monkeypatch):
        # 400 steps on 65 points, each kept: held in a list, each state's u
        # and h (2 x 2 x 65 float64) and their objects cost about 2.6 KB.
        # Spooled, what is left is the step digests (about 65 bytes a step)
        # and the interpreter's free lists
        short = CERT_CONFIG.replace("nx = 33", "nx = 65")
        text = short.replace("t_end = 0.005", "t_end = 0.4")
        measured = {}
        inner = cli.simulate

        def measuring(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            result = inner(*args, **kwargs)
            measured["retained"] = tracemalloc.get_traced_memory()[0] - before
            measured["kept"] = len(result.snapshots)
            return result

        # the warm-up loads dgtsv and fills the per-grid caches, which are
        # then no part of the count
        assert run(conf(short, "short.conf"), tmp_path / "warm", sub="simulate")[0] == 0
        monkeypatch.setattr(cli, "simulate", measuring)
        tracemalloc.start()
        try:
            rc, out = run(conf(text), tmp_path, sub="simulate")
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert measured["kept"] == 401
        assert measured["retained"] <= 300 * measured["kept"]
        lines = (out / "snapshots.csv").read_text().splitlines()
        assert len(lines) == 1 + 401 * 65


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

    @pytest.mark.parametrize("sub, report", [
        ("simulate", "run_summary.json"), ("blowup", "blowup_report.json"),
    ])
    def test_readme_model_failure_exits_4(self, capsys, tmp_path, conf, sub, report):
        # README's example on 33 points: one inner iterate cannot close the
        # first step's gap, and no halving is left to retry it
        text = CERT_MODEL + GRID_1D + (
            "\n[solver]\ndt = 0.001\nt_end = 0.5\nmax_inner_iters = 1\nmax_halvings = 0\n"
            "\n[initial]\nkind = expression\nu1 = 0.2 + 0.1*cos(x)\nu2 = 0.3 + 0.05*cos(2*x)\n"
        )
        rc, out = run(conf(text), tmp_path, sub=sub)
        assert rc == 4
        captured = capsys.readouterr()
        assert "termination: failed" in captured.out
        assert captured.err.startswith("simulation failed: inner iteration gap")
        doc = json.loads((out / report).read_text())
        summary = doc if sub == "simulate" else doc["run_summary"]
        assert summary["termination"] == "failed" and summary["steps"] == 0

    def test_overflow_exits_0(self, capsys, tmp_path, conf):
        text = BLOWUP_CONFIG.replace("snapshot_every = 100", "snapshot_every = 500")
        rc, out = run(conf(text), tmp_path, sub="simulate")
        assert rc == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["termination"] == "overflowed"
        assert summary["overflow_time"] is not None
        assert summary["bracket_mode"] == "auto"
        assert "overflow_time:" in capsys.readouterr().out

    def test_dt_floor_exits_0_with_its_termination(self, capsys, tmp_path, conf):
        # with no overflow cap in reach, the controller shrinks dt with the
        # blow-up until it reaches its floor, about 1e3 ulps of t; the run
        # ends there and keeps what it made
        text = BLOWUP_CONFIG.replace("overflow_cap = 50.0", "overflow_cap = 1e300").replace(
            "snapshot_every = 100", "snapshot_every = 50\ngrowth_trigger = 0.05"
        )
        rc, out = run(conf(text), tmp_path, sub="simulate")
        assert rc == 0
        assert "termination: dt_floor" in capsys.readouterr().out
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["termination"] == "dt_floor" and summary["error"] is None
        assert summary["final_dt"] < 1e3 * np.finfo(float).eps * max(1.0, summary["final_time"])
        rows = (out / "snapshots.csv").read_text().splitlines()
        assert len(rows) - 1 == 17 * (summary["steps"] // 50 + 2)


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

    def test_log_scale_multiplier_sweep(self, tmp_path, conf):
        rc, out = run(
            conf(CERT_CONFIG), tmp_path, sub="sweep",
            extra=(
                "--param", "mu1", "--min", "0.5", "--max", "8.0",
                "--count", "5", "--scale", "log",
            ),
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        want = np.geomspace(0.5, 8.0, 5).tolist()
        assert [line.split(",")[1] for line in lines] == [repr(v) for v in want]
        for line, mu1 in zip(lines, want):
            cells = line.split(",")
            assert cells[0] == "mu1"
            # constant data (0.2, 0.3) weighted by (mu1, mu2 = 1)
            assert float(cells[7]) == pytest.approx(0.2 * mu1 + 0.3, rel=1e-12)

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

    def test_row_whose_data_exceed_its_window_runs_automatic(
        self, capsys, tmp_path, conf, readme_config, monkeypatch
    ):
        # at b1 = 6.125 README's data peak, max(u0_1) = 0.3, lies above the
        # row's admissible ceiling 0.208333, so its window cannot be built
        windows = []
        inner = cli.simulate

        def recording(params, *args, bracket=None, **kwargs):
            windows.append((params.b1, bracket is not None))
            return inner(params, *args, bracket=bracket, **kwargs)

        monkeypatch.setattr(cli, "simulate", recording)
        rc, out = run(
            conf(readme_config), tmp_path, sub="sweep",
            extra=("--param", "b1", "--min", "0.5", "--max", "8", "--count", "5", "--simulate"),
        )
        assert rc == 0, capsys.readouterr().err
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["0.5", "2.375", "4.25", "6.125", "8.0"]
        assert all(r[2] == "certified_global" and r[9] == "" for r in rows)
        assert windows == [(0.5, True), (2.375, True), (4.25, True), (6.125, False), (8.0, False)]

    def test_simulating_sweep_builds_one_eigenpair(self, tmp_path, conf, monkeypatch):
        # every row simulates from the sweep's own eigenpair and fields
        calls = []
        inner = sktlab.cli.principal_eigenpair

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(sktlab.cli, "principal_eigenpair", counting)
        rc, out = run(
            conf(BLOWUP_CONFIG), tmp_path, sub="sweep",
            extra=(
                "--param", "d1", "--min", "1.0", "--max", "1.1",
                "--count", "2", "--simulate",
            ),
        )
        assert rc == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3
        assert len(calls) == 1


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
    """The declared `sktlab` console script, run the way an installed one runs.

    An installed console script is a wrapper that imports the
    `[project.scripts]` target and passes its return value to `sys.exit`.
    The test builds that wrapper from pyproject.toml and runs it in a fresh
    interpreter, so it needs no install and no executable on PATH.
    """

    def test_entry_point_runs(self, tmp_path, conf):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["sktlab"]
        module, func = target.split(":")
        script = f"import sys; from {module} import {func}; sys.exit({func}())"
        env = _child_env()

        def console(path):
            return subprocess.run(
                [sys.executable, "-c", script,
                 "classify", "--config", path, "--out", str(tmp_path / "out")],
                capture_output=True,
                text=True,
                timeout=120,
                cwd=tmp_path,
                env=env,
            )

        proc = console(conf(CERT_CONFIG))
        assert proc.returncode == 0, proc.stderr
        assert "regime: certified_global" in proc.stdout

        proc = console(conf(GRID_1D, name="broken.conf"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error:")
