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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import EigenPair, Grid, ScalarField
from .iteration import SolverConfig
from .model import _PARAM_KEYS, ModelParams

_LAMBDA0_MODES = ("principal", "first_positive")
_INITIAL_KINDS = ("constant", "eigenfunction", "expression")
_FORMATS = ("csv", "json")

_SECTION_KEYS = {
    "model": set(_PARAM_KEYS),
    "grid": {"dim", "lx", "ly", "nx", "ny"},
    "solver": {"t_end", *(f.name for f in dataclasses.fields(SolverConfig))},
    "initial": {"kind", "u1", "u2", "scale1", "scale2"},
    "blowup": {"mu1", "mu2", "lambda0_mode", "search_resolution"},
    "output": {"directory", "snapshot_every", "formats"},
}


@dataclass(frozen=True)
class InitialSpec:
    """Initial-data recipe; evaluation is deferred until the grid exists."""

    kind: str
    u1: float | str | None = None
    u2: float | str | None = None
    scale1: float | None = None
    scale2: float | None = None


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


class _SectionView:
    """Typed accessors over one section's raw entries, tracking consumption."""

    def __init__(self, name: str, entries: dict):
        self.name = name
        self.entries = dict(entries)
        self.taken: set = set()

    def has(self, key: str) -> bool:
        return key in self.entries

    def raw(self, key: str, default=None):
        if key not in self.entries:
            return default
        self.taken.add(key)
        return self.entries[key][0]

    def _get(self, key: str, required: bool):
        if key not in self.entries:
            if required:
                raise ConfigError("missing required key", section=self.name, key=key)
            return None
        self.taken.add(key)
        return self.entries[key]

    def float(self, key: str, required: bool = False, default=None):
        got = self._get(key, required)
        if got is None:
            return default
        value, line = got
        try:
            out = float(value)
        except ValueError:
            raise ConfigError(
                f"expected a number, got {value!r}", self.name, key, line
            ) from None
        if not math.isfinite(out):
            raise ConfigError(f"value must be finite, got {value!r}", self.name, key, line)
        return out

    def int(self, key: str, required: bool = False, default=None):
        got = self._get(key, required)
        if got is None:
            return default
        value, line = got
        try:
            return int(value)
        except ValueError:
            raise ConfigError(
                f"expected an integer, got {value!r}", self.name, key, line
            ) from None

    def string(self, key: str, required: bool = False, default=None, choices=None):
        got = self._get(key, required)
        if got is None:
            return default
        value, line = got
        if choices is not None and value not in choices:
            raise ConfigError(
                f"expected one of {', '.join(choices)}; got {value!r}",
                self.name,
                key,
                line,
            )
        return value

    def line_of(self, key: str):
        return self.entries[key][1] if key in self.entries else None

    def reject_leftovers(self) -> None:
        for key in self.entries:
            if key not in self.taken:
                raise ConfigError(
                    "key is not accepted here", self.name, key, self.line_of(key)
                )


def _view(sections: dict, name: str, required: bool) -> _SectionView | None:
    if name not in sections:
        if required:
            raise ConfigError("missing required section", section=name)
        return None
    return _SectionView(name, sections[name])


def _check_known(sections: dict) -> None:
    for name, entries in sections.items():
        if name not in _SECTION_KEYS:
            raise ConfigError("unknown section", section=name)
        known = _SECTION_KEYS[name]
        for key, (_, line) in entries.items():
            if key not in known:
                raise ConfigError("unknown key", section=name, key=key, line=line)


def _build_model(view: _SectionView) -> ModelParams:
    values = {k: view.float(k, required=True) for k in _PARAM_KEYS}
    try:
        return ModelParams.from_dict(values)
    except ValueError as exc:
        raise ConfigError(str(exc), section="model") from None


def _build_grid(view: _SectionView) -> Grid:
    dim = view.int("dim", required=True)
    if dim not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {dim}", "grid", "dim", view.line_of("dim"))
    lx = view.float("lx", required=True)
    nx = view.int("nx", required=True)
    if dim == 1:
        for key in ("ly", "ny"):
            if view.has(key):
                raise ConfigError(
                    "key is meaningless on a 1D grid", "grid", key, view.line_of(key)
                )
        kw = dict(dimension=1, lx=lx, nx=nx)
    else:
        kw = dict(
            dimension=2,
            lx=lx,
            nx=nx,
            ly=view.float("ly", required=True),
            ny=view.int("ny", required=True),
        )
    try:
        return Grid(**kw)
    except ValueError as exc:
        raise ConfigError(str(exc), section="grid") from None


def _build_solver(view: _SectionView):
    # every SolverConfig field is a key, parsed by its annotation ("int" or
    # "float"); a field without a default, dt, is required
    kwargs = {}
    for field in dataclasses.fields(SolverConfig):
        required = field.default is dataclasses.MISSING
        if required or view.has(field.name):
            read = view.int if field.type in ("int", int) else view.float
            kwargs[field.name] = read(field.name, required=required)
    t_end = view.float("t_end") if view.has("t_end") else None
    if t_end is not None and not t_end > 0.0:
        raise ConfigError(
            f"t_end must be positive, got {t_end}", "solver", "t_end", view.line_of("t_end")
        )
    try:
        return SolverConfig(**kwargs), t_end
    except ValueError as exc:
        raise ConfigError(str(exc), section="solver") from None


def _build_initial(view: _SectionView) -> InitialSpec:
    kind = view.string("kind", required=True, choices=_INITIAL_KINDS)
    if kind == "constant":
        built = InitialSpec(
            kind=kind,
            u1=view.float("u1", required=True),
            u2=view.float("u2", required=True),
        )
    elif kind == "eigenfunction":
        built = InitialSpec(
            kind=kind,
            scale1=view.float("scale1", required=True),
            scale2=view.float("scale2", required=True),
        )
    else:
        u1 = view.raw("u1")
        u2 = view.raw("u2")
        if u1 is None or u2 is None:
            missing = "u1" if u1 is None else "u2"
            raise ConfigError("missing required key", section="initial", key=missing)
        built = InitialSpec(kind=kind, u1=u1, u2=u2)
    view.reject_leftovers()
    return built


def build_run_config(sections: dict) -> RunConfig:
    _check_known(sections)

    params = _build_model(_view(sections, "model", required=True))
    grid = _build_grid(_view(sections, "grid", required=True))

    solver_view = _view(sections, "solver", required=False)
    solver, t_end = (None, None)
    if solver_view is not None:
        solver, t_end = _build_solver(solver_view)

    initial_view = _view(sections, "initial", required=False)
    initial = _build_initial(initial_view) if initial_view is not None else None

    mu1, mu2 = 1.0, 1.0
    lambda0_mode = "principal"
    search_resolution = None
    blowup_view = _view(sections, "blowup", required=False)
    if blowup_view is not None:
        mu1 = blowup_view.float("mu1", default=1.0)
        mu2 = blowup_view.float("mu2", default=1.0)
        lambda0_mode = blowup_view.string(
            "lambda0_mode", default="principal", choices=_LAMBDA0_MODES
        )
        if blowup_view.has("search_resolution"):
            search_resolution = blowup_view.int("search_resolution")
            if search_resolution < 2:
                raise ConfigError(
                    f"search_resolution must be >= 2, got {search_resolution}",
                    "blowup",
                    "search_resolution",
                    blowup_view.line_of("search_resolution"),
                )
    for name, value in (("mu1", mu1), ("mu2", mu2)):
        if not value > 0.0:
            raise ConfigError(f"{name} must be positive, got {value}", section="blowup", key=name)

    output_dir = "."
    formats = _FORMATS
    output_view = _view(sections, "output", required=False)
    if output_view is not None:
        output_dir = output_view.string("directory", default=".")
        if not output_dir:
            raise ConfigError(
                "value must not be empty", "output", "directory",
                output_view.line_of("directory"),
            )
        raw_formats = output_view.string("formats")
        if raw_formats is not None:
            parts = tuple(p.strip() for p in raw_formats.split(",") if p.strip())
            bad = [p for p in parts if p not in _FORMATS]
            if bad or not parts:
                raise ConfigError(
                    f"formats must be a comma list drawn from {', '.join(_FORMATS)}; "
                    f"got {raw_formats!r}",
                    "output",
                    "formats",
                    output_view.line_of("formats"),
                )
            formats = tuple(dict.fromkeys(parts))
        if output_view.has("snapshot_every"):
            # when both sections set a cadence the [output] one wins
            every = output_view.int("snapshot_every")
            if solver is None:
                raise ConfigError(
                    "snapshot_every needs a [solver] section to apply to",
                    "output",
                    "snapshot_every",
                    output_view.line_of("snapshot_every"),
                )
            try:
                solver = dataclasses.replace(solver, snapshot_every=every)
            except ValueError as exc:
                raise ConfigError(
                    str(exc), "output", "snapshot_every", output_view.line_of("snapshot_every")
                ) from None

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
_EXPR_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _eval_expression(text: str, grid: Grid, key: str) -> np.ndarray:
    """Evaluate a whitelisted arithmetic expression over the grid points.

    Allowed: numbers, pi, x (plus y in 2D), sin, cos, + - * / ** and unary
    signs. Anything else is rejected by node type, so the config language
    stays a calculator.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(
            f"invalid expression {text!r}: {exc.msg}", "initial", key
        ) from None

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
            raise ConfigError(
                f"only numeric literals are allowed, got {node.value!r}", "initial", key
            )
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            raise ConfigError(f"unknown name {node.id!r} in expression", "initial", key)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _EXPR_BINOPS):
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            return left**right
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            operand = ev(node.operand)
            return -operand if isinstance(node.op, ast.USub) else +operand
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCS
            and len(node.args) == 1
            and not node.keywords
        ):
            return _EXPR_FUNCS[node.func.id](ev(node.args[0]))
        raise ConfigError(
            f"disallowed syntax in expression {text!r}", "initial", key
        )

    try:
        out = np.asarray(ev(tree), dtype=float)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(
            f"expression {text!r} failed to evaluate: {exc}", "initial", key
        ) from None
    return np.broadcast_to(out, grid.shape).copy()


def build_initial_fields(
    initial: InitialSpec, grid: Grid, eig: EigenPair
) -> tuple:
    """Materialize the configured initial data as two fields on the grid."""
    if initial.kind == "constant":
        arrays = (
            np.full(grid.shape, initial.u1),
            np.full(grid.shape, initial.u2),
        )
    elif initial.kind == "eigenfunction":
        arrays = (
            initial.scale1 * eig.phi0.values,
            initial.scale2 * eig.phi0.values,
        )
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
                f"initial data must be nonnegative; min is {values.min()!r}",
                "initial",
                key,
            )
    return ScalarField(grid, arrays[0]), ScalarField(grid, arrays[1])
