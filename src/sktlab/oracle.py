"""Independent reference solutions: the space-free reduction and the Riccati law.

For spatially constant data the zero-flux problem collapses to the plain ODE
system u1' = f1(u1, u2), u2' = f2(u1, u2), which an adaptive Runge-Kutta
integrator handles without any of the machinery under test. The scalar
comparison law p' + tau*p = psi*p^2 has the closed form (via y = 1/p)

    p(t) = 1 / ((1/p0 - psi/tau) * exp(tau*t) + psi/tau),

finite for all t when p0 <= tau/psi (with tau, psi > 0) and blowing up at
t = (1/tau) * ln(psi*p0 / (psi*p0 - tau)) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .model import ModelParams, _reaction_raw

DIVERGENCE_CAP = 1e12


@dataclass(frozen=True)
class OdeTrajectory:
    """Sampled (u1, u2) trajectory of the space-free system."""

    times: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    termination: str  # "completed" | "diverged"
    diverged_time: float | None = None

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,u1,u2\n")
            for t, a, b in zip(self.times, self.u1, self.u2):
                fh.write(f"{float(t)!r},{float(a)!r},{float(b)!r}\n")


def ode_reduce(
    params: ModelParams,
    u0,
    t_end: float,
    rtol: float,
    t_eval=None,
) -> OdeTrajectory:
    """Integrate the space-free system from u0 over [0, t_end].

    Integration stops early (termination "diverged") when u1 + u2 crosses
    1e12. rtol must lie in [1e-12, 1e-3]; t_eval optionally pins the sample
    times.
    """
    u10, u20 = float(u0[0]), float(u0[1])
    if not (np.isfinite(u10) and np.isfinite(u20)):
        raise ValueError("ode_reduce: u0 must be finite")
    if u10 < 0.0 or u20 < 0.0:
        raise ValueError("ode_reduce: u0 must be nonnegative")
    if not (t_end > 0.0 and np.isfinite(t_end)):
        raise ValueError(f"ode_reduce: t_end must be positive, got {t_end}")
    if not 1e-12 <= rtol <= 1e-3:
        raise ValueError(f"ode_reduce: rtol must lie in [1e-12, 1e-3], got {rtol}")
    # scipy.integrate costs about a second to import and no simulation needs it
    from scipy.integrate import solve_ivp

    def rhs(_t, y):
        f1, f2 = _reaction_raw(params, y[0], y[1])
        return (f1, f2)

    def diverged(_t, y):
        return DIVERGENCE_CAP - (y[0] + y[1])

    diverged.terminal = True
    diverged.direction = -1

    sol = solve_ivp(
        rhs,
        (0.0, float(t_end)),
        (u10, u20),
        method="RK45",
        rtol=rtol,
        atol=rtol * 1e-4,
        t_eval=t_eval,
        events=diverged,
        dense_output=False,
    )
    if sol.status == -1:
        raise NumericalError(f"ode_reduce integration failed: {sol.message}")
    if sol.status == 1:
        return OdeTrajectory(
            times=sol.t,
            u1=sol.y[0],
            u2=sol.y[1],
            termination="diverged",
            diverged_time=float(sol.t_events[0][0]),
        )
    return OdeTrajectory(times=sol.t, u1=sol.y[0], u2=sol.y[1], termination="completed")


def riccati_singularity_time(tau: float, psi: float, p0: float) -> float | None:
    """Blow-up time of the closed form, or None when it stays finite."""
    if tau == 0.0 or psi == 0.0:
        raise ValueError("riccati_singularity_time: tau and psi must be nonzero")
    coeff = 1.0 / p0 - psi / tau
    if coeff >= 0.0:
        return None
    # (1/p0 - psi/tau) e^{tau t} + psi/tau = 0
    arg = (psi / tau) / (-coeff)
    if arg <= 0.0:
        return None
    t_star = np.log(arg) / tau
    return float(t_star) if t_star > 0.0 else None


def riccati_closed_form(tau: float, psi: float, p0: float, t):
    """Exact solution of p' + tau*p = psi*p^2 with p(0) = p0.

    Accepts scalar or array t; raises ValueError when any requested time lies
    at or beyond the solution's blow-up time.
    """
    if tau == 0.0 or psi == 0.0:
        raise ValueError("riccati_closed_form: tau and psi must be nonzero")
    if p0 == 0.0:
        out = np.zeros_like(np.asarray(t, dtype=float))
        return float(out) if out.ndim == 0 else out
    t = np.asarray(t, dtype=float)
    denom = (1.0 / p0 - psi / tau) * np.exp(tau * t) + psi / tau
    if np.any(denom * np.sign(1.0 / p0) <= 0.0):
        raise ValueError("riccati_closed_form: evaluation at or beyond the singularity")
    out = 1.0 / denom
    return float(out) if out.ndim == 0 else out
