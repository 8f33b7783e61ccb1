"""Reaction terms, the self-diffusion transform, and combined growth constants.

Two competing densities u1, u2 >= 0 on a zero-flux domain evolve by

    u1_t - lap[(d1 + alpha1*u1) u1] = f1(u1, u2) = u1 (-a1 + b1 u1 - c1 u2)
    u2_t - lap[(d2 + alpha2*u2) u2] = f2(u1, u2) = u2 (-a2 - b2 u1 + c2 u2)

with d_i > 0, alpha_i >= 0 and positive interaction coefficients. Both
reaction terms are quasimonotone decreasing: f1 is nonincreasing in u2 and
f2 is nonincreasing in u1. The diffusion nonlinearity is removed by the
per-species change of variable

    h = P(u) = (d + alpha*u) * u

whose inverse on u >= 0 is

    q(h) = 2h / (d + sqrt(d^2 + 4*alpha*h)),

the cancellation-free form of (-d + sqrt(d^2 + 4*alpha*h)) / (2*alpha); for
alpha = 0 the limit q(h) = h/d is taken explicitly.

For multipliers mu1, mu2 > 0 define

    psi1 = min(mu1*b1, mu2*c2)
    psi2 = (mu1*c1 + mu2*b2) / 2
    c    = max(mu1*a1, mu2*a2)
    psi  = (psi1 - psi2) / 2.

Whenever psi1 > psi2 > 0 the weighted reaction sum is bounded below by a
quadratic in the total density:

    mu1*f1 + mu2*f2 >= psi*(u1+u2)^2 - c*(u1+u2)   for all u1, u2 >= 0,

with slack (psi1+psi2)/2 * (u1-u2)^2, so equality holds exactly on the
diagonal u1 = u2.

Everything here is pure and allocation-only; instances are immutable and
safe to share across threads. All operations accept scalars or numpy arrays.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

import numpy as np

_PARAM_KEYS = ("d1", "d2", "alpha1", "alpha2", "a1", "a2", "b1", "b2", "c1", "c2")


@dataclass(frozen=True)
class ModelParams:
    """Diffusion, self-diffusion and interaction coefficients.

    d1, d2 > 0; alpha1, alpha2 >= 0; a, b, c coefficients all > 0.
    """

    d1: float
    d2: float
    alpha1: float
    alpha2: float
    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
            object.__setattr__(self, f.name, float(v))
        for name in ("d1", "d2", "a1", "a2", "b1", "b2", "c1", "c2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("alpha1", "alpha2"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # each species' (a, own, other, d, alpha), f_i = u_i (-a + own u_i -
        # other u_j) up to the order of its terms, for float-level callers
        object.__setattr__(self, "species", (
            (self.a1, self.b1, self.c1, self.d1, self.alpha1),
            (self.a2, self.c2, self.b2, self.d2, self.alpha2),
        ))

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in _PARAM_KEYS}

    @classmethod
    def from_dict(cls, mapping) -> "ModelParams":
        missing = [k for k in _PARAM_KEYS if k not in mapping]
        if missing:
            raise ValueError(f"missing model keys: {', '.join(missing)}")
        extra = [k for k in mapping if k not in _PARAM_KEYS]
        if extra:
            raise ValueError(f"unknown model keys: {', '.join(extra)}")
        return cls(**{k: float(mapping[k]) for k in _PARAM_KEYS})

    def replace(self, **changes) -> "ModelParams":
        d = self.as_dict()
        d.update(changes)
        return ModelParams.from_dict(d)


def _reaction_raw(params: ModelParams, u1, u2):
    """Reaction pair without domain checks, for solver internals."""
    f1 = u1 * (-params.a1 + params.b1 * u1 - params.c1 * u2)
    f2 = u2 * (-params.a2 - params.b2 * u1 + params.c2 * u2)
    return f1, f2


def reaction(params: ModelParams, u1, u2):
    """Evaluate (f1, f2) at nonnegative, finite densities.

    Accepts scalars or arrays; raises ValueError on non-finite or negative
    input.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))):
        raise ValueError("reaction: densities must be finite")
    if np.any(u1 < 0.0) or np.any(u2 < 0.0):
        raise ValueError("reaction: densities must be nonnegative")
    f1, f2 = _reaction_raw(params, u1, u2)
    if f1.ndim == 0:
        return float(f1), float(f2)
    return f1, f2


def _transform_raw(d: float, alpha: float, u):
    return (d + alpha * u) * u


def _checked(name: str, d: float, alpha: float, var: str, values):
    """The values as a float array, after the checks transform_forward and
    transform_inverse share: d > 0, alpha >= 0, finite nonnegative values;
    a failing one is a ValueError that starts with the function's name."""
    if not (d > 0.0 and np.isfinite(d)):
        raise ValueError(f"{name}: d must be positive, got {d}")
    if not (alpha >= 0.0 and np.isfinite(alpha)):
        raise ValueError(f"{name}: alpha must be >= 0, got {alpha}")
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name}: {var} must be finite")
    if np.any(values < 0.0):
        raise ValueError(f"{name}: {var} must be nonnegative")
    return values


def transform_forward(d: float, alpha: float, u):
    """h = P(u) = (d + alpha*u) * u for u >= 0."""
    h = _transform_raw(d, alpha, _checked("transform_forward", d, alpha, "u", u))
    return float(h) if h.ndim == 0 else h


def _inverse_raw(d: float, alpha: float, h):
    """q(h) without domain checks; clamps discriminant round-off at zero.

    Tolerates slightly negative h (solver round-off); the result then mirrors
    h/d to first order.
    """
    if alpha == 0.0:
        return h / d
    disc = np.maximum(d * d + 4.0 * alpha * h, 0.0)
    return 2.0 * h / (d + np.sqrt(disc))


def transform_inverse(d: float, alpha: float, h):
    """u = q(h), the inverse of P on u >= 0; for alpha = 0 returns h/d."""
    u = _inverse_raw(d, alpha, _checked("transform_inverse", d, alpha, "h", h))
    return float(u) if u.ndim == 0 else u


@dataclass(frozen=True)
class GrowthConstants:
    """Cached constants of the quadratic lower bound on mu1*f1 + mu2*f2.

    Built by growth_constants(); valid is True exactly when psi1 > psi2 > 0,
    equivalently psi > 0.
    """

    mu1: float
    mu2: float
    psi1: float
    psi2: float
    c: float
    psi: float
    valid: bool

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _check_multipliers(mu1: float, mu2: float) -> None:
    """The multiplier rule every combination mu1*(...) + mu2*(...) keeps:
    ValueError unless both are positive and finite."""
    if not (mu1 > 0.0 and np.isfinite(mu1) and mu2 > 0.0 and np.isfinite(mu2)):
        raise ValueError(f"multipliers must be positive and finite, got {mu1}, {mu2}")


def growth_constants(params: ModelParams, mu1: float, mu2: float) -> GrowthConstants:
    """psi1, psi2, c, psi for multipliers mu1, mu2 > 0."""
    _check_multipliers(mu1, mu2)
    psi1 = min(mu1 * params.b1, mu2 * params.c2)
    psi2 = (mu1 * params.c1 + mu2 * params.b2) / 2.0
    c = max(mu1 * params.a1, mu2 * params.a2)
    psi = (psi1 - psi2) / 2.0
    return GrowthConstants(
        mu1=float(mu1),
        mu2=float(mu2),
        psi1=psi1,
        psi2=psi2,
        c=c,
        psi=psi,
        valid=psi1 > psi2 > 0.0,
    )


def growth_lower_bound(gc: GrowthConstants, u1, u2):
    """psi*(u1+u2)^2 - c*(u1+u2); requires gc.valid."""
    if not gc.valid:
        raise ValueError("growth_lower_bound: constants are not valid (psi1 > psi2 > 0 fails)")
    s = np.asarray(u1, dtype=float) + np.asarray(u2, dtype=float)
    out = gc.psi * s * s - gc.c * s
    return float(out) if out.ndim == 0 else out
