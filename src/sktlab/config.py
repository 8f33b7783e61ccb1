"""Run-configuration files: a strict INI-like grammar and typed loading.

Grammar: `[section]` headers, `key = value` entries, `#` starts a comment
(full-line or trailing). Unknown sections, unknown keys, duplicates, and
type errors are all rejected with the offending location attached, so a
bad file fails loudly on the first problem rather than half-applying.

Sections: [model] (all ten coefficients), [grid], [solver], [initial],
[blowup], [output]. [model] and [grid] are mandatory for every command;
[solver] and [initial] are checked by the commands that need them.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import EigenPair, Grid, ScalarField
from .iteration import SolverConfig
from .model import _PARAM_KEYS, ModelParams

_LAMBDA0_MODES = ("principal", "first_positive")
_INITIAL_KINDS = ("constant", "expression")
_FORMATS = ("csv", "json")
# (section, key) -> (test, rule) for the keys whose range the reader checks
# itself; a value that fails its test is reported as "<key> <rule>, got <value>"
_RANGES = {
    ("grid", "dim"): (lambda v: v in (1, 2), "must be 1 or 2"),
    ("solver", "t_end"): (lambda v: v > 0.0, "must be positive"),
    ("blowup", "search_resolution"): (lambda v: v >= 2, "must be >= 2"),
    ("blowup", "mu1"): (lambda v: v > 0.0, "must be positive"),
    ("blowup", "mu2"): (lambda v: v > 0.0, "must be positive"),
}

_SECTION_KEYS = {
    "model": set(_PARAM_KEYS),
    "grid": {"dim", "lx", "ly", "nx", "ny"},
    "solver": {"t_end", *(f.name for f in dataclasses.fields(SolverConfig))},
    "initial": {"kind", "u1", "u2"},
    "blowup": {"mu1", "mu2", "lambda0_mode", "search_resolution"},
    "output": {"directory", "formats"},
}


@dataclass(frozen=True)
class InitialSpec:
    """Initial-data recipe; evaluation is deferred until the grid exists."""

    kind: str
    u1: float | str | None = None
    u2: float | str | None = None


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run needs, already validated."""

    params: ModelParams
    grid: Grid
    solver: SolverConfig | None
    initial: InitialSpec | None
    t_end: float | None
    mu1: float
    mu2: float
    lambda0_mode: str
    search_resolution: int | None
    output_dir: str
    formats: tuple

    def require_solver(self) -> SolverConfig:
        if self.solver is None:
            raise ConfigError("missing required section", section="solver")
        return self.solver

    def require_initial(self) -> InitialSpec:
        if self.initial is None:
            raise ConfigError("missing required section", section="initial")
        return self.initial

    def require_t_end(self) -> float:
        self.require_solver()
        if self.t_end is None:
            raise ConfigError("missing required key", section="solver", key="t_end")
        return self.t_end


def parse_sections(text: str) -> dict:
    """Raw grammar pass: {section: {key: (value, line)}}, strict on shape."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", line=lineno)
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", line=lineno)
            if name in sections:
                raise ConfigError("duplicate section", section=name, line=lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        if current is None:
            raise ConfigError(
                f"entry {key!r} appears before any [section] header", line=lineno
            )
        if key in sections[current]:
            raise ConfigError("duplicate key", section=current, key=key, line=lineno)
        sections[current][key] = (value, lineno)
    return sections


def _value(sections: dict, section: str, key: str, kind=float, *, required=False,
           default=None, choices=None):
    """`key` of `section` read as `kind`: a finite float, an int, or a str
    (one of `choices`, when given), within its `_RANGES` rule if it has one.
    An absent key gives `default`, unless it is required; then the error
    names the section when that is absent too."""
    entries = sections.get(section, {})
    if key not in entries:
        if not required:
            return default
        if section not in sections:
            raise ConfigError("missing required section", section=section)
        raise ConfigError("missing required key", section=section, key=key)
    value, line = entries[key]
    if kind is str:
        if choices is not None and value not in choices:
            raise ConfigError(
                f"expected one of {', '.join(choices)}; got {value!r}", section, key, line
            )
        return value
    try:
        out = kind(value)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"expected {noun}, got {value!r}", section, key, line) from None
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"value must be finite, got {value!r}", section, key, line)
    test, rule = _RANGES.get((section, key), (None, None))
    if test is not None and not test(out):
        raise ConfigError(f"{key} {rule}, got {out}", section, key, line)
    return out


def _check_known(sections: dict) -> None:
    for name, entries in sections.items():
        if name not in _SECTION_KEYS:
            raise ConfigError("unknown section", section=name)
        known = _SECTION_KEYS[name]
        for key, (_, line) in entries.items():
            if key not in known:
                raise ConfigError("unknown key", section=name, key=key, line=line)


def _build_model(sections: dict) -> ModelParams:
    values = {k: _value(sections, "model", k, required=True) for k in _PARAM_KEYS}
    try:
        return ModelParams.from_dict(values)
    except ValueError as exc:
        raise _rejected(exc, sections, "model") from None


def _rejected(exc, sections: dict, section: str) -> ConfigError:
    """The config error for a value ModelParams, Grid or SolverConfig
    rejected, at the key its message starts with. That key is one the
    section holds: a key it lacks is required or takes a valid default,
    and the builders check dim and a 1D grid's ly and ny themselves."""
    key = str(exc).split(" ", 1)[0]
    return ConfigError(str(exc), section, key, sections[section][key][1])


def _build_grid(sections: dict) -> Grid:
    dim = _value(sections, "grid", "dim", int, required=True)
    entries = sections["grid"]
    kw = dict(
        dimension=dim,
        lx=_value(sections, "grid", "lx", required=True),
        nx=_value(sections, "grid", "nx", int, required=True),
    )
    if dim == 1:
        for key in ("ly", "ny"):
            if key in entries:
                raise ConfigError(
                    "key is meaningless on a 1D grid", "grid", key, entries[key][1]
                )
    else:
        kw.update(
            ly=_value(sections, "grid", "ly", required=True),
            ny=_value(sections, "grid", "ny", int, required=True),
        )
    try:
        return Grid(**kw)
    except (ValueError, OverflowError) as exc:
        raise _rejected(exc, sections, "grid") from None


def _build_solver(sections: dict):
    # every SolverConfig field is a key, parsed by its annotation ("int" or
    # "float"); a field without a default, dt, is required
    kwargs = {
        f.name: _value(
            sections,
            "solver",
            f.name,
            int if f.type in ("int", int) else float,
            required=f.default is dataclasses.MISSING,
            default=f.default,
        )
        for f in dataclasses.fields(SolverConfig)
    }
    t_end = _value(sections, "solver", "t_end")
    try:
        return SolverConfig(**kwargs), t_end
    except ValueError as exc:
        raise _rejected(exc, sections, "solver") from None


def _build_initial(sections: dict) -> InitialSpec:
    kind = _value(sections, "initial", "kind", str, required=True, choices=_INITIAL_KINDS)
    read = str if kind == "expression" else float
    values = {k: _value(sections, "initial", k, read, required=True) for k in ("u1", "u2")}
    return InitialSpec(kind=kind, **values)


def build_run_config(sections: dict) -> RunConfig:
    _check_known(sections)

    params = _build_model(sections)
    grid = _build_grid(sections)
    solver, t_end = _build_solver(sections) if "solver" in sections else (None, None)
    initial = _build_initial(sections) if "initial" in sections else None

    lambda0_mode = _value(
        sections, "blowup", "lambda0_mode", str, default="principal", choices=_LAMBDA0_MODES
    )
    search_resolution = _value(sections, "blowup", "search_resolution", int)
    mu1 = _value(sections, "blowup", "mu1", default=1.0)
    mu2 = _value(sections, "blowup", "mu2", default=1.0)

    output = sections.get("output", {})
    output_dir = _value(sections, "output", "directory", str, default=".")
    if not output_dir:
        raise ConfigError(
            "value must not be empty", "output", "directory", output["directory"][1]
        )
    formats = _FORMATS
    raw_formats = _value(sections, "output", "formats", str)
    if raw_formats is not None:
        parts = tuple(p.strip() for p in raw_formats.split(",") if p.strip())
        bad = [p for p in parts if p not in _FORMATS]
        if bad or not parts:
            raise ConfigError(
                f"formats must be a comma list drawn from {', '.join(_FORMATS)}; "
                f"got {raw_formats!r}",
                "output",
                "formats",
                output["formats"][1],
            )
        formats = tuple(dict.fromkeys(parts))

    return RunConfig(
        params=params,
        grid=grid,
        solver=solver,
        initial=initial,
        t_end=t_end,
        mu1=mu1,
        mu2=mu2,
        lambda0_mode=lambda0_mode,
        search_resolution=search_resolution,
        output_dir=output_dir,
        formats=formats,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return build_run_config(parse_sections(text))


_EXPR_FUNCS = {"sin": np.sin, "cos": np.cos}
# the allowed binary and unary operators, by AST node type
_EXPR_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
    ast.USub: operator.neg, ast.UAdd: operator.pos,
}


def _eval_expression(text: str, grid: Grid, key: str) -> np.ndarray:
    """Evaluate a whitelisted arithmetic expression over the grid points.

    Allowed: numbers, pi, x (plus y in 2D), sin, cos, + - * / ** and unary
    signs. Anything else is rejected by node type, so the config language
    stays a calculator.
    """
    def error(message):
        return ConfigError(message, "initial", key)

    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise error(f"invalid expression {text!r}: {exc.msg}") from None

    names: dict = {"pi": math.pi}
    if grid.dimension == 1:
        names["x"] = grid.xs
    else:
        xx, yy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
        names["x"] = xx
        names["y"] = yy

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                return float(node.value)
            raise error(f"only numeric literals are allowed, got {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            raise error(f"unknown name {node.id!r} in expression")
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
            return _EXPR_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPS:
            return _EXPR_OPS[type(node.op)](ev(node.operand))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCS
            and len(node.args) == 1
            and not node.keywords
        ):
            return _EXPR_FUNCS[node.func.id](ev(node.args[0]))
        raise error(f"disallowed syntax in expression {text!r}")

    try:
        out = np.asarray(ev(tree), dtype=float)
    except (ZeroDivisionError, OverflowError) as exc:
        raise error(f"expression {text!r} failed to evaluate: {exc}") from None
    return np.broadcast_to(out, grid.shape).copy()


def build_initial_fields(
    initial: InitialSpec, grid: Grid, eig: EigenPair
) -> tuple:
    """Materialize the configured initial data as two fields on the grid.

    `eig` is not used; the argument stays because callers pass the
    arguments by position.
    """
    if initial.kind == "constant":
        arrays = (np.full(grid.shape, initial.u1), np.full(grid.shape, initial.u2))
    else:
        arrays = (
            _eval_expression(initial.u1, grid, "u1"),
            _eval_expression(initial.u2, grid, "u2"),
        )
    for key, values in zip(("u1", "u2"), arrays):
        if not np.all(np.isfinite(values)):
            raise ConfigError("initial data is not finite everywhere", "initial", key)
        if values.min() < 0.0:
            raise ConfigError(
                f"initial data must be nonnegative; min is {float(values.min())!r}",
                "initial",
                key,
            )
    return ScalarField(grid, arrays[0]), ScalarField(grid, arrays[1])
