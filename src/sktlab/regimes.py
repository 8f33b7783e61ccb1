"""Closed-form parameter certificates: global confinement and forced blow-up.

Global side: for an eigenvalue lambda0 >= 0 of the zero-flux Laplacian, a
constant ceiling pair (N1, N2) confines the dynamics when it lies in the
window whose endpoints solve the linear corner system

    (2*alpha1*lambda0 - b1) N1 + c1 N2 = -a1
    b2 N1 + (2*alpha2*lambda0 - c2) N2 = -a2

(Cramer's rule with D = (2*alpha2*lambda0 - c2)(2*alpha1*lambda0 - b1) - b2*c1)
and below the ratio caps (a1*c2 + a2*c1)/(c2*b1 - c1*b2),
(a1*b2 + a2*b1)/(c2*b1 - c1*b2). All inequalities are evaluated exactly as
stated, non-strict where written; at lambda0 = 0 both windows collapse to
single points and the certificate hinges on the two determinant prerequisites
alone.

Blow-up side: with multipliers mu1, mu2 > 0 and growth constants psi, c (see
model.growth_constants), define

    tau_bar   = lambda0 * max(d1, d2) + c / min(mu1, mu2)
    psi_under = psi / max(mu1, mu2)^2 - lambda0 * (alpha1 + alpha2) / max(mu1, mu2).

If psi1 > psi2 > 0, psi_under > 0, the ordering-consistent interaction
inequality holds (c1 + b2 < 2*b1 when mu1 <= mu2 picks the b1 term, else
c1 + b2 < 2*c2), and the initial weighted average exceeds tau_bar/psi_under,
then the weighted average dominates a Riccati solution that diverges no later
than

    T0 = (1/tau_bar) * ln(psi_under*p_hat0 / (psi_under*p_hat0 - tau_bar)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GrowthConstants, ModelParams, growth_constants

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class InequalityRecord:
    """One evaluated condition; lhs/rhs are None when guards prevented evaluation."""

    name: str
    lhs: float | None
    rhs: float | None
    holds: bool
    strict: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "strict": self.strict,
        }


def _record(name: str, lhs: float, rhs: float, strict: bool) -> InequalityRecord:
    holds = lhs < rhs if strict else lhs <= rhs
    return InequalityRecord(name, float(lhs), float(rhs), bool(holds), strict)


def _record_gt(name: str, lhs: float, rhs: float) -> InequalityRecord:
    """Record for a strict lhs > rhs condition."""
    return InequalityRecord(name, float(lhs), float(rhs), bool(lhs > rhs), True)


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the global-confinement certificate."""

    lambda0: float
    lambda0_mode: str | None
    inequalities: tuple
    window: tuple | None  # ((n1_lo, n1_hi), (n2_lo, n2_hi))
    verdict: str  # "certified_global" | "not_certified"

    @property
    def certified(self) -> bool:
        return self.verdict == "certified_global"

    def as_dict(self) -> dict:
        window = None
        if self.window is not None:
            (n1_lo, n1_hi), (n2_lo, n2_hi) = self.window
            window = {"n1": [n1_lo, n1_hi], "n2": [n2_lo, n2_hi]}
        return {
            "schema_version": SCHEMA_VERSION,
            "lambda0": self.lambda0,
            "lambda0_mode": self.lambda0_mode,
            "inequalities": [r.as_dict() for r in self.inequalities],
            "window": window,
            "verdict": self.verdict,
        }


def classify_global(
    params: ModelParams, lambda0: float, lambda0_mode: str | None = None
) -> RegimeReport:
    """Evaluate the global-confinement conditions at the given eigenvalue.

    Division-guarded: when D <= 0 or c2*b1 <= c1*b2 the window endpoints are
    unevaluable and recorded as such rather than raising.
    """
    if not (lambda0 >= 0.0 and np.isfinite(lambda0)):
        raise ValueError(f"lambda0 must be >= 0, got {lambda0}")
    p = params
    e1 = 2.0 * p.alpha1 * lambda0 - p.b1
    e2 = 2.0 * p.alpha2 * lambda0 - p.c2
    det = e2 * e1 - p.b2 * p.c1
    cross = p.c2 * p.b1 - p.c1 * p.b2

    recs = [
        _record("2*alpha1*lambda0 <= b1", 2.0 * p.alpha1 * lambda0, p.b1, strict=False),
        _record("2*alpha2*lambda0 <= c2", 2.0 * p.alpha2 * lambda0, p.c2, strict=False),
        _record_gt("D > 0", det, 0.0),
        _record_gt("c2*b1 > c1*b2", p.c2 * p.b1, p.c1 * p.b2),
    ]

    window = None
    if det > 0.0 and cross > 0.0:
        n1_lo = (-p.a1 * e2 + p.a2 * p.c1) / det
        n2_lo = (-p.a2 * e1 + p.a1 * p.b2) / det
        n1_hi = (p.a1 * p.c2 + p.a2 * p.c1) / cross
        n2_hi = (p.a1 * p.b2 + p.a2 * p.b1) / cross
        window = ((n1_lo, n1_hi), (n2_lo, n2_hi))
        recs.append(_record("N1_lower <= N1_upper", n1_lo, n1_hi, strict=False))
        recs.append(_record("N2_lower <= N2_upper", n2_lo, n2_hi, strict=False))
    else:
        recs.append(InequalityRecord("N1_lower <= N1_upper", None, None, False, False))
        recs.append(InequalityRecord("N2_lower <= N2_upper", None, None, False, False))

    verdict = "certified_global" if all(r.holds for r in recs) else "not_certified"
    return RegimeReport(
        lambda0=float(lambda0),
        lambda0_mode=lambda0_mode,
        inequalities=tuple(recs),
        window=window,
        verdict=verdict,
    )


@dataclass(frozen=True)
class BlowupCertificate:
    """Outcome of the forced-blow-up sufficient conditions for one (mu1, mu2)."""

    lambda0: float
    mu1: float
    mu2: float
    growth: GrowthConstants
    condition_branch: str  # "mu1_lt_mu2" (b1 form) | "mu1_gt_mu2" (c2 form)
    tau_bar: float
    psi_under: float
    threshold: float | None  # tau_bar/psi_under, None when psi_under <= 0
    p_hat0: float
    conditions: tuple
    verdict: str  # "certified_blowup_if" | "not_certified"
    failing_condition: str | None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified_blowup_if"

    @property
    def conditions_hold(self) -> bool:
        """Structural conditions only, ignoring the p_hat0 threshold test."""
        return all(r.holds for r in self.conditions if r.name != "p_hat0 > threshold")

    @property
    def margin(self) -> float:
        """psi_under*p_hat0 - tau_bar; positive exactly when the threshold test passes."""
        return self.psi_under * self.p_hat0 - self.tau_bar

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "lambda0": self.lambda0,
            "mu1": self.mu1,
            "mu2": self.mu2,
            "growth": self.growth.as_dict(),
            "condition_branch": self.condition_branch,
            "tau_bar": self.tau_bar,
            "psi_under": self.psi_under,
            "threshold": self.threshold,
            "p_hat0": self.p_hat0,
            "margin": self.margin,
            "conditions": [r.as_dict() for r in self.conditions],
            "verdict": self.verdict,
            "failing_condition": self.failing_condition,
        }


def classify_blowup(
    params: ModelParams, lambda0: float, mu1: float, mu2: float, p_hat0: float
) -> BlowupCertificate:
    """Evaluate the blow-up sufficient conditions for one multiplier pair.

    p_hat0 may be any finite value: the average against a sign-changing
    eigenfunction can be negative, and then fails the threshold test.
    """
    if not (lambda0 >= 0.0 and np.isfinite(lambda0)):
        raise ValueError(f"lambda0 must be >= 0, got {lambda0}")
    if not np.isfinite(p_hat0):
        raise ValueError(f"p_hat0 must be finite, got {p_hat0}")
    p = params
    gc = growth_constants(params, mu1, mu2)
    mu_max = max(gc.mu1, gc.mu2)
    mu_min = min(gc.mu1, gc.mu2)
    tau_bar = lambda0 * max(p.d1, p.d2) + gc.c / mu_min
    psi_under = gc.psi / mu_max**2 - lambda0 * (p.alpha1 + p.alpha2) / mu_max
    threshold = tau_bar / psi_under if psi_under > 0.0 else None

    # the interaction inequality follows whichever term realizes psi1
    if gc.mu1 < gc.mu2 or (gc.mu1 == gc.mu2 and gc.mu1 * p.b1 <= gc.mu2 * p.c2):
        branch = "mu1_lt_mu2"
        branch_rec = _record("c1 + b2 < 2*b1", p.c1 + p.b2, 2.0 * p.b1, strict=True)
    else:
        branch = "mu1_gt_mu2"
        branch_rec = _record("c1 + b2 < 2*c2", p.c1 + p.b2, 2.0 * p.c2, strict=True)

    conditions = [
        InequalityRecord("psi1 > psi2 > 0", gc.psi1, gc.psi2, gc.valid, True),
        _record_gt("psi_under > 0", psi_under, 0.0),
        branch_rec,
        InequalityRecord(
            "p_hat0 > threshold",
            float(p_hat0),
            threshold,
            threshold is not None and p_hat0 > threshold,
            True,
        ),
    ]

    failing = next((r.name for r in conditions if not r.holds), None)
    verdict = "certified_blowup_if" if failing is None else "not_certified"
    return BlowupCertificate(
        lambda0=float(lambda0),
        mu1=gc.mu1,
        mu2=gc.mu2,
        growth=gc,
        condition_branch=branch,
        tau_bar=tau_bar,
        psi_under=psi_under,
        threshold=threshold,
        p_hat0=float(p_hat0),
        conditions=tuple(conditions),
        verdict=verdict,
        failing_condition=failing,
    )


def search_multipliers(
    params: ModelParams,
    lambda0: float,
    p_hat10: float,
    p_hat20: float,
    grid_resolution: int,
) -> BlowupCertificate:
    """Scan multiplier ratios for the certificate with the best margin.

    Ratios mu1/mu2 cover [1e-3, 1e3] log-uniformly with grid_resolution
    subdivisions (so doubling the resolution yields a superset grid); ratio 1
    is always included. The smaller multiplier is pinned at 1 and the
    weighted initial average mu1*p_hat10 + mu2*p_hat20 is recomputed per
    candidate. Returns the certified candidate maximizing
    psi_under*p_hat0 - tau_bar, or the best not-certified candidate when none
    passes.
    """
    if int(grid_resolution) != grid_resolution or grid_resolution < 2:
        raise ValueError(f"grid_resolution must be an integer >= 2, got {grid_resolution}")
    if not (np.isfinite(p_hat10) and np.isfinite(p_hat20)):
        raise ValueError("initial averages must be finite")
    r = int(grid_resolution)
    ratios = sorted({10.0 ** (-3.0 + 6.0 * k / r) for k in range(r + 1)} | {1.0})

    best = None
    best_key = None
    for ratio in ratios:
        if ratio >= 1.0:
            mu1, mu2 = ratio, 1.0
        else:
            mu1, mu2 = 1.0, 1.0 / ratio
        p_hat0 = mu1 * p_hat10 + mu2 * p_hat20
        cert = classify_blowup(params, lambda0, mu1, mu2, p_hat0)
        key = (cert.certified, cert.margin)
        if best is None or key > best_key:
            best, best_key = cert, key
    return best


def t0_estimate(cert: BlowupCertificate, p_hat0: float) -> float:
    """Upper bound on the blow-up time implied by the certificate.

    Requires the certificate's structural conditions and p_hat0 strictly
    above the threshold; raises ValueError otherwise.
    """
    if not cert.conditions_hold or cert.threshold is None:
        raise ValueError("t0_estimate: certificate conditions do not hold")
    if not p_hat0 > cert.threshold:
        raise ValueError(
            f"t0_estimate: p_hat0 {p_hat0!r} does not exceed threshold {cert.threshold!r}"
        )
    q = cert.psi_under * p_hat0
    return math.log(q / (q - cert.tau_bar)) / cert.tau_bar
