"""Weighted-average tracking along a run and the comparison bound it must beat.

The scalar watched for blow-up is the eigenfunction-weighted spatial mean

    p_hat(t) = mu1*p_hat1(t) + mu2*p_hat2(t),
    p_hat_i(t) = integral(phi0 * u_i) / |Omega|.

Under a certificate's conditions, p_hat dominates the solution of
p' + tau_bar*p = psi_under*p^2 started at p_hat(0), which diverges at a
finite time T0 whenever p_hat(0) > tau_bar/psi_under. analyze() samples
p_hat along a simulation's snapshots, compares it against that bound where
the bound exists, and reconciles the solver's overflow time with T0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import EigenPair, Grid, weighted_integral
from .iteration import SimulationResult, SystemState
from .model import _check_multipliers
from .regimes import SCHEMA_VERSION, BlowupCertificate, _t0_or_none, t0_estimate

BOUND_SLACK = 0.98  # tolerated fraction of the bound (quadrature + time error)
T0_SLACK = 1.10  # detection may trail T0 by this factor and still comply


@dataclass(frozen=True)
class WeightedAverage:
    """Both per-species weighted means and their multiplier combination."""

    t: float
    p_hat1: float
    p_hat2: float
    p_hat: float
    mu1: float
    mu2: float


def weighted_average(
    grid: Grid, eig: EigenPair, mu1: float, mu2: float, state: SystemState
) -> WeightedAverage:
    """Eigenfunction-weighted means of the state, combined with multipliers,
    which must be positive and finite (model._check_multipliers)."""
    _check_multipliers(mu1, mu2)
    p1 = weighted_integral(grid, eig.phi0, state.u1) / grid.measure
    p2 = weighted_integral(grid, eig.phi0, state.u2) / grid.measure
    return WeightedAverage(
        t=state.t,
        p_hat1=p1,
        p_hat2=p2,
        p_hat=mu1 * p1 + mu2 * p2,
        mu1=float(mu1),
        mu2=float(mu2),
    )


def riccati_bound(cert: BlowupCertificate, p_hat0: float, t: float) -> float:
    """Comparison lower bound exp(-tau*t) / (1/p0 - (psi/tau)(1 - exp(-tau*t))).

    Defined for 0 <= t < T0 where t0_estimate is; outside that domain
    ValueError, t0_estimate's own for a certificate or p_hat0 outside its.
    """
    t0_estimate(cert, p_hat0)
    if t < 0.0:
        raise ValueError(f"riccati_bound: t must be >= 0, got {t}")
    tau = cert.tau_bar
    psi = cert.psi_under
    decay = math.exp(-tau * t)
    denom = 1.0 / p_hat0 - (psi / tau) * (1.0 - decay)
    if denom <= 0.0:
        raise ValueError(f"riccati_bound: t = {t!r} is at or beyond the blow-up time")
    return decay / denom


@dataclass(frozen=True)
class TrajectoryRow:
    """One sampled time: the weighted average, the bound (if defined), the peak."""

    t: float
    p_hat: float
    bound: float | None
    max_sum: float
    violation: bool


@dataclass(frozen=True)
class BlowupReport:
    """Post-run comparison of p_hat against the certificate's bound."""

    certificate: BlowupCertificate
    p_hat0: float
    t0: float | None
    rows: tuple
    detected_blowup_time: float | None
    bound_violations: int
    within_t0_slack: bool | None

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "certificate": self.certificate.as_dict(),
            "p_hat0": _json_real(self.p_hat0),
            "t0": _json_real(self.t0),
            "rows": [
                {
                    "t": _json_real(r.t),
                    "p_hat": _json_real(r.p_hat),
                    "riccati_bound": _json_real(r.bound),
                    "max_u1_plus_u2": _json_real(r.max_sum),
                    "violation": r.violation,
                }
                for r in self.rows
            ],
            "detected_blowup_time": _json_real(self.detected_blowup_time),
            "bound_violations": self.bound_violations,
            "within_t0_slack": self.within_t0_slack,
        }

    def write_trajectory_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,p_hat,riccati_bound,max_u1_plus_u2\n")
            for r in self.rows:
                bound = "" if r.bound is None else repr(r.bound)
                fh.write(f"{r.t!r},{r.p_hat!r},{bound},{r.max_sum!r}\n")


def _json_real(v):
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else None


def analyze(
    result: SimulationResult,
    cert: BlowupCertificate,
    grid: Grid,
    eig: EigenPair,
) -> BlowupReport:
    """Sample p_hat over a run and grade it against the certificate's bound.

    The initial weighted average is always recomputed from the run's first
    snapshot; the bound and T0 exist only when the certificate's structural
    conditions hold and that initial average clears the threshold. A sample
    counts as a violation when p_hat < 0.98 * bound.
    """
    states = list(result.snapshots)
    if result.termination == "overflowed" and result.final_state is not states[-1]:
        states.append(result.final_state)

    averages = [weighted_average(grid, eig, cert.mu1, cert.mu2, s) for s in states]
    p_hat0 = averages[0].p_hat

    t0 = _t0_or_none(cert, p_hat0)

    rows = []
    violations = 0
    for s, wa in zip(states, averages):
        max_sum = float((s.u[0] + s.u[1]).max())
        bound = None
        violation = False
        if t0 is not None and wa.t < t0 and math.isfinite(wa.p_hat):
            bound = riccati_bound(cert, p_hat0, wa.t)
            violation = wa.p_hat < BOUND_SLACK * bound
            if violation:
                violations += 1
        rows.append(TrajectoryRow(wa.t, wa.p_hat, bound, max_sum, violation))

    detected = result.overflow_time
    within = None
    if detected is not None and t0 is not None:
        within = detected <= T0_SLACK * t0
    return BlowupReport(
        certificate=cert,
        p_hat0=p_hat0,
        t0=t0,
        rows=tuple(rows),
        detected_blowup_time=detected,
        bound_violations=violations,
        within_t0_slack=within,
    )
