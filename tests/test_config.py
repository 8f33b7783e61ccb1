"""Run-config loading: every error the loader raises, and the configs in use.

`TestErrors` pins each ConfigError that sktlab.config raises: its full
message, section, key and line. Where one file holds several faults, the
row pins which one is reported first. `TestConfigsInUse` loads README's
example config and each benchmark workload's config and checks every value
the run reads from them.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from sktlab.config import build_initial_fields, load_config
from sktlab.errors import ConfigError
from sktlab.grid import principal_eigenpair

ROOT = Path(__file__).resolve().parents[1]

MODEL_VALUES = dict(
    d1="1.0", d2="1.0", alpha1="0.5", alpha2="0.5",
    a1="1.0", a2="1.0", b1="2.0", b2="0.5", c1="0.5", c2="2.0",
)


def section(name, entries):
    """A section's text; an entry whose value is None is left out."""
    lines = [f"[{name}]"]
    lines += [f"{k} = {v}" for k, v in entries.items() if v is not None]
    return "\n".join(lines) + "\n"


def model(**changes):
    """[model] on lines 1-11, d1 on line 2 and c2 on line 11."""
    return section("model", {**MODEL_VALUES, **changes})


def grid(**changes):
    """[grid] after model(): header on line 12, dim 13, lx 14, nx 15."""
    return section("grid", {"dim": "1", "lx": "3.0", "nx": "9", **changes})


BASE = model() + grid()  # the next section header is on line 16


def solver(**entries):
    return section("solver", {"dt": "0.001", "t_end": "0.01", **entries})


def initial(**entries):
    return section("initial", entries)


# (id, config text, what is called, message, section, key, line)
ERRORS = [
    # RunConfig.require_*
    ("require-solver", BASE, "solver",
     "[solver]: missing required section", "solver", None, None),
    ("require-initial", BASE, "initial",
     "[initial]: missing required section", "initial", None, None),
    ("require-t-end", BASE + solver(t_end=None), "t_end",
     "[solver] t_end: missing required key", "solver", "t_end", None),
    # the grammar
    ("unterminated-header", "[model\n", "load",
     "line 1: unterminated section header", None, None, 1),
    ("empty-section-name", "[ ]\n", "load",
     "line 1: empty section name", None, None, 1),
    ("duplicate-section", BASE + "[model]\n", "load",
     "[model]: duplicate section", "model", None, 16),
    ("no-equals", "[model]\nd1 1.0\n", "load",
     "line 2: expected 'key = value', got 'd1 1.0'", None, None, 2),
    ("empty-key", "[model]\n= 1.0\n", "load",
     "line 2: empty key", None, None, 2),
    ("entry-before-header", "# lead\nd1 = 1.0\n[model]\n", "load",
     "line 2: entry 'd1' appears before any [section] header", None, None, 2),
    ("duplicate-key", BASE + "nx = 9  # again\n", "load",
     "[grid] nx: duplicate key", "grid", "nx", 16),
    # unknown names, checked before any value is read
    ("unknown-section", BASE + "[plot]\n", "load",
     "[plot]: unknown section", "plot", None, None),
    ("unknown-key", model(e1="1.0") + grid(), "load",
     "[model] e1: unknown key", "model", "e1", 12),
    ("unknown-key-before-bad-value", model(d1="x") + grid(shape="box"), "load",
     "[grid] shape: unknown key", "grid", "shape", 16),
    # required sections and keys
    ("missing-model", grid(), "load",
     "[model]: missing required section", "model", None, None),
    ("missing-grid", model(), "load",
     "[grid]: missing required section", "grid", None, None),
    ("missing-model-key", model(c2=None) + grid(), "load",
     "[model] c2: missing required key", "model", "c2", None),
    ("missing-grid-key", model() + grid(nx=None), "load",
     "[grid] nx: missing required key", "grid", "nx", None),
    ("missing-dt", BASE + section("solver", {"t_end": "0.01"}), "load",
     "[solver] dt: missing required key", "solver", "dt", None),
    ("missing-2d-key", model() + grid(dim="2", ly="2.0"), "load",
     "[grid] ny: missing required key", "grid", "ny", None),
    ("missing-kind", BASE + initial(u1="0.2", u2="0.3"), "load",
     "[initial] kind: missing required key", "initial", "kind", None),
    ("missing-constant-value", BASE + initial(kind="constant", u1="0.2"), "load",
     "[initial] u2: missing required key", "initial", "u2", None),
    ("missing-scale", BASE + initial(kind="eigenfunction", scale2="0.1"), "load",
     "[initial] scale1: missing required key", "initial", "scale1", None),
    ("missing-expression", BASE + initial(kind="expression", u1="x"), "load",
     "[initial] u2: missing required key", "initial", "u2", None),
    ("missing-expression-u1", BASE + initial(kind="expression", u2="x"), "load",
     "[initial] u1: missing required key", "initial", "u1", None),
    # typed values
    ("not-a-number", model(d1="x"), "load",
     "[model] d1: expected a number, got 'x'", "model", "d1", 2),
    ("not-finite", model(c2="inf") + grid(), "load",
     "[model] c2: value must be finite, got 'inf'", "model", "c2", 11),
    ("not-finite-nan", BASE + solver(dt="nan"), "load",
     "[solver] dt: value must be finite, got 'nan'", "solver", "dt", 17),
    ("not-an-integer", model() + grid(nx="9.5"), "load",
     "[grid] nx: expected an integer, got '9.5'", "grid", "nx", 15),
    ("solver-int-field", BASE + solver(max_inner_iters="5e2"), "load",
     "[solver] max_inner_iters: expected an integer, got '5e2'", "solver",
     "max_inner_iters", 19),
    ("bad-kind", BASE + initial(kind="random"), "load",
     "[initial] kind: expected one of constant, eigenfunction, expression; got 'random'",
     "initial", "kind", 17),
    ("bad-lambda0-mode", BASE + section("blowup", {"lambda0_mode": "second"}), "load",
     "[blowup] lambda0_mode: expected one of principal, first_positive; got 'second'",
     "blowup", "lambda0_mode", 17),
    ("bad-search-resolution", BASE + section("blowup", {"search_resolution": "x"}), "load",
     "[blowup] search_resolution: expected an integer, got 'x'",
     "blowup", "search_resolution", 17),
    ("bad-snapshot-every", BASE + solver() + section("output", {"snapshot_every": "1.5"}),
     "load", "[output] snapshot_every: expected an integer, got '1.5'",
     "output", "snapshot_every", 20),
    # keys an [initial] kind does not take
    ("constant-takes-no-scale",
     BASE + initial(kind="constant", u1="0.2", scale1="1.0", u2="0.3"), "load",
     "[initial] scale1: key is not accepted here", "initial", "scale1", 19),
    ("eigenfunction-takes-no-u",
     BASE + initial(u1="0.2", kind="eigenfunction", scale1="1.0", scale2="0.5"), "load",
     "[initial] u1: key is not accepted here", "initial", "u1", 17),
    ("expression-takes-no-scale",
     BASE + initial(kind="expression", u1="x", u2="x", scale2="1.0"), "load",
     "[initial] scale2: key is not accepted here", "initial", "scale2", 20),
    # constraints on values read
    ("model-rejects", model(d1="0") + grid(), "load",
     "[model] d1: d1 must be > 0, got 0.0", "model", "d1", 2),
    ("bad-dim", model() + grid(dim="3"), "load",
     "[grid] dim: dim must be 1 or 2, got 3", "grid", "dim", 13),
    ("ly-on-1d", model() + grid(ly="2.0"), "load",
     "[grid] ly: key is meaningless on a 1D grid", "grid", "ly", 16),
    ("ny-on-1d", model() + grid(ny="5"), "load",
     "[grid] ny: key is meaningless on a 1D grid", "grid", "ny", 16),
    ("grid-rejects", model() + grid(nx="2"), "load",
     "[grid] nx: nx must be >= 3, got 2", "grid", "nx", 15),
    ("lx-rejects", model() + grid(lx="-1"), "load",
     "[grid] lx: lx must be positive, got -1.0", "grid", "lx", 14),
    ("grid-too-large-1d", model() + grid(nx=str(10**20)), "load",
     f"[grid] nx: nx must be at most {2**63 - 1}, got {10**20}", "grid", "nx", 15),
    ("grid-too-large-2d", model() + grid(dim="2", nx="3", ly="2.0", ny=str(2**62)), "load",
     f"[grid] ny: ny must be at most {(2**63 - 1) // 3}, got {2**62}", "grid", "ny", 17),
    ("t-end-not-positive", BASE + solver(t_end="0"), "load",
     "[solver] t_end: t_end must be positive, got 0.0", "solver", "t_end", 18),
    ("solver-rejects", BASE + solver(dt="-1"), "load",
     "[solver] dt: dt must be positive, got -1.0", "solver", "dt", 17),
    ("search-resolution-too-small", BASE + section("blowup", {"search_resolution": "1"}),
     "load", "[blowup] search_resolution: search_resolution must be >= 2, got 1",
     "blowup", "search_resolution", 17),
    ("mu-not-positive", BASE + section("blowup", {"mu1": "1.0", "mu2": "-2"}), "load",
     "[blowup] mu2: mu2 must be positive, got -2.0", "blowup", "mu2", None),
    ("empty-directory", BASE + section("output", {"directory": ""}), "load",
     "[output] directory: value must not be empty", "output", "directory", 17),
    ("bad-formats", BASE + section("output", {"formats": "csv,xml"}), "load",
     "[output] formats: formats must be a comma list drawn from csv, json; got 'csv,xml'",
     "output", "formats", 17),
    ("empty-formats", BASE + section("output", {"formats": ", ,"}), "load",
     "[output] formats: formats must be a comma list drawn from csv, json; got ', ,'",
     "output", "formats", 17),
    ("cadence-needs-solver", BASE + section("output", {"snapshot_every": "5"}), "load",
     "[output] snapshot_every: snapshot_every needs a [solver] section to apply to",
     "output", "snapshot_every", 17),
    ("cadence-rejected", BASE + solver() + section("output", {"snapshot_every": "0"}),
     "load", "[output] snapshot_every: snapshot_every must be >= 1, got 0",
     "output", "snapshot_every", 20),
    # initial data, evaluated on the grid
    ("invalid-expression", BASE + initial(kind="expression", u1="0.2 +", u2="x"), "fields",
     "[initial] u1: invalid expression '0.2 +': invalid syntax", "initial", "u1", None),
    ("string-literal", BASE + initial(kind="expression", u1="x", u2="'x'"), "fields",
     "[initial] u2: only numeric literals are allowed, got 'x'", "initial", "u2", None),
    ("unknown-name", BASE + initial(kind="expression", u1="y", u2="x"), "fields",
     "[initial] u1: unknown name 'y' in expression", "initial", "u1", None),
    ("disallowed-call", BASE + initial(kind="expression", u1="exp(x)", u2="x"), "fields",
     "[initial] u1: disallowed syntax in expression 'exp(x)'", "initial", "u1", None),
    ("division-by-zero", BASE + initial(kind="expression", u1="1/0", u2="x"), "fields",
     "[initial] u1: expression '1/0' failed to evaluate: float division by zero",
     "initial", "u1", None),
    ("not-finite-data", BASE + initial(kind="expression", u1="x", u2="1e200*1e200"),
     "fields", "[initial] u2: initial data is not finite everywhere", "initial", "u2", None),
    ("negative-data", BASE + initial(kind="constant", u1="-1", u2="0.3"), "fields",
     "[initial] u1: initial data must be nonnegative; min is np.float64(-1.0)",
     "initial", "u1", None),
    # which fault is reported first
    ("model-value-before-missing-grid", model(d1="x"), "load",
     "[model] d1: expected a number, got 'x'", "model", "d1", 2),
    ("model-value-before-missing-grid-2", model(b2="0.5.1"), "load",
     "[model] b2: expected a number, got '0.5.1'", "model", "b2", 9),
    ("model-rejects-before-missing-grid", model(c1="-0.5"), "load",
     "[model] c1: c1 must be > 0, got -0.5", "model", "c1", 10),
    ("model-before-grid", model(d2="x") + grid(nx="x"), "load",
     "[model] d2: expected a number, got 'x'", "model", "d2", 3),
    ("grid-before-solver", model() + grid(nx="x") + solver(dt="x"), "load",
     "[grid] nx: expected an integer, got 'x'", "grid", "nx", 15),
    ("missing-value-before-unaccepted-key",
     BASE + initial(kind="constant", scale1="1.0", u1="0.2"), "load",
     "[initial] u2: missing required key", "initial", "u2", None),
    ("bad-value-before-unaccepted-key",
     BASE + initial(kind="constant", scale1="1.0", u1="x", u2="0.3"), "load",
     "[initial] u1: expected a number, got 'x'", "initial", "u1", 19),
    ("bad-scale-before-unaccepted-key",
     BASE + initial(u2="0.3", kind="eigenfunction", scale1="1.0", scale2="-"), "load",
     "[initial] scale2: expected a number, got '-'", "initial", "scale2", 20),
    ("missing-expression-before-unaccepted-key",
     BASE + initial(kind="expression", scale1="1.0", u2="x"), "load",
     "[initial] u1: missing required key", "initial", "u1", None),
    ("first-unaccepted-key-in-file-order",
     BASE + initial(kind="constant", scale2="1.0", u1="0.2", u2="0.3", scale1="1.0"),
     "load", "[initial] scale2: key is not accepted here", "initial", "scale2", 18),
    ("bad-kind-before-unaccepted-key", BASE + initial(scale1="1.0", kind="uniform"), "load",
     "[initial] kind: expected one of constant, eigenfunction, expression; got 'uniform'",
     "initial", "kind", 18),
    ("solver-before-initial", BASE + solver(dt="x") + initial(kind="x"), "load",
     "[solver] dt: expected a number, got 'x'", "solver", "dt", 17),
    ("missing-dt-before-bad-t-end", BASE + section("solver", {"t_end": "x"}), "load",
     "[solver] dt: missing required key", "solver", "dt", None),
    ("search-resolution-before-mu", BASE + section(
        "blowup", {"mu1": "0", "search_resolution": "0"}), "load",
     "[blowup] search_resolution: search_resolution must be >= 2, got 0",
     "blowup", "search_resolution", 18),
    ("blowup-before-output", BASE + section("blowup", {"mu1": "0"})
     + section("output", {"formats": "xml"}), "load",
     "[blowup] mu1: mu1 must be positive, got 0.0", "blowup", "mu1", None),
]


def _raise(text, stage, tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(text)
    cfg = load_config(path)
    if stage == "solver":
        cfg.require_solver()
    elif stage == "initial":
        cfg.require_initial()
    elif stage == "t_end":
        cfg.require_t_end()
    elif stage == "fields":
        eig = principal_eigenpair(cfg.grid, cfg.lambda0_mode)
        build_initial_fields(cfg.require_initial(), cfg.grid, eig)


class TestErrors:
    @pytest.mark.parametrize(
        "text, stage, message, section, key, line",
        [row[1:] for row in ERRORS],
        ids=[row[0] for row in ERRORS],
    )
    def test_error(self, text, stage, message, section, key, line, tmp_path):
        with pytest.raises(ConfigError) as info:
            _raise(text, stage, tmp_path)
        err = info.value
        assert (str(err), err.section, err.key, err.line) == (message, section, key, line)

    def test_unreadable_file(self, tmp_path):
        path = str(tmp_path / "absent.conf")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        err = info.value
        assert str(err) == (
            f"cannot read config file {path!r}: "
            f"[Errno 2] No such file or directory: {path!r}"
        )
        assert (err.section, err.key, err.line) == (None, None, None)


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, loaded from its file and only read."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while being defined
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


CERTIFIED = dict(
    d1=1.0, d2=1.0, alpha1=0.5, alpha2=0.5,
    a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
)
SEMILINEAR = dict(CERTIFIED, alpha1=0.0, alpha2=0.0)
SOLVER_DEFAULTS = dict(
    inner_tol=1e-10, max_inner_iters=500, overflow_cap=1e8,
    snapshot_every=1, growth_trigger=1e-3, max_halvings=20,
)

# name -> (params, (dim, lx, nx, ly, ny), solver fields, t_end, initial kind,
#          (mu1, mu2, lambda0_mode, search_resolution), (output_dir, formats))
IN_USE = {
    "readme": (
        CERTIFIED, (1, math.pi, 65, None, None),
        dict(SOLVER_DEFAULTS, dt=1e-3, snapshot_every=100), 0.5, "expression",
        (1.0, 1.0, "principal", None), ("out", ("csv", "json")),
    ),
    "blowup-1d": (
        SEMILINEAR, (1, math.pi, 33, None, None),
        dict(SOLVER_DEFAULTS, dt=1e-4, snapshot_every=200), 2.0, "constant",
        (1.0, 1.0, "principal", None), (".", ("csv", "json")),
    ),
    "certified-2d": (
        CERTIFIED, (2, math.pi, 65, math.pi, 65),
        dict(SOLVER_DEFAULTS, dt=1e-3), 0.02, "expression",
        (1.0, 1.0, "principal", None), (".", ("csv", "json")),
    ),
    "cli-simulate-1d": (
        CERTIFIED, (1, math.pi, 513, None, None),
        dict(SOLVER_DEFAULTS, dt=1e-3), 0.5, "expression",
        (1.0, 1.0, "principal", None), ("out", ("csv", "json")),
    ),
}

IN_USE_CASES = [("readme", None)] + [
    (name, seed) for name in ("blowup-1d", "certified-2d", "cli-simulate-1d") for seed in (0, 1)
]


class TestConfigsInUse:
    @pytest.mark.parametrize(
        "name, seed", IN_USE_CASES,
        ids=[name if seed is None else f"{name}-seed{seed}" for name, seed in IN_USE_CASES],
    )
    def test_loads(self, name, seed, tmp_path, workloads, readme_config):
        if seed is None:
            text = readme_config
        else:
            text = workloads.WORKLOADS[name].config(seed)
        path = tmp_path / "run.conf"
        path.write_text(text)
        cfg = load_config(path)

        params, shape, solver, t_end, kind, blowup, output = IN_USE[name]
        assert cfg.params.as_dict() == params
        g = cfg.grid
        assert (g.dimension, g.lx, g.nx, g.ly, g.ny) == shape
        assert {f: getattr(cfg.solver, f) for f in solver} == solver
        assert cfg.t_end == t_end
        assert cfg.initial.kind == kind
        assert (cfg.mu1, cfg.mu2, cfg.lambda0_mode, cfg.search_resolution) == blowup
        assert (cfg.output_dir, cfg.formats) == output
