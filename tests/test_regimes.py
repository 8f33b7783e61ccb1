"""Confinement window, blow-up certificate, multiplier search, T0."""

import math

import numpy as np
import pytest

from sktlab.model import ModelParams, growth_constants
from sktlab.regimes import (
    classify_blowup,
    classify_global,
    search_multipliers,
    t0_estimate,
)


def params(**overrides):
    base = dict(
        d1=1.0, d2=1.0, alpha1=0.5, alpha2=0.5,
        a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
    )
    base.update(overrides)
    return ModelParams(**base)


def window_by_hand(p, lam):
    """Independent evaluation of the window endpoints.

    The lower endpoints solve the 2x2 equality system
        (2 a1' lam - b1) N1 + c1 N2 = -a1
        b2 N1 + (2 a2' lam - c2) N2 = -a2
    by Cramer's rule (a_i' denoting the self-diffusion weights); the upper
    endpoints come from the cross-coupled cap pair solved the same way.
    """
    e1 = 2.0 * p.alpha1 * lam - p.b1
    e2 = 2.0 * p.alpha2 * lam - p.c2
    det = e2 * e1 - p.b2 * p.c1
    cross = p.c2 * p.b1 - p.c1 * p.b2
    n1_lo = (-p.a1 * e2 + p.a2 * p.c1) / det
    n2_lo = (-p.a2 * e1 + p.a1 * p.b2) / det
    n1_hi = (p.a1 * p.c2 + p.a2 * p.c1) / cross
    n2_hi = (p.a1 * p.b2 + p.a2 * p.b1) / cross
    return (n1_lo, n1_hi), (n2_lo, n2_hi), det, cross


class TestClassifyGlobal:
    def test_certified_at_zero_eigenvalue(self):
        r = classify_global(params(), 0.0, "principal")
        assert r.verdict == "certified_global"
        assert r.certified
        _, _, det, cross = window_by_hand(params(), 0.0)
        assert det == pytest.approx(3.75)
        assert cross == pytest.approx(3.75)
        # at lam = 0 both windows collapse to the point 2/3
        assert r.window[0][0] == pytest.approx(2.0 / 3.0)
        assert r.window[0][1] == pytest.approx(2.0 / 3.0)
        assert r.window[1][0] == pytest.approx(2.0 / 3.0)
        assert r.window[1][1] == pytest.approx(2.0 / 3.0)

    def test_positive_eigenvalue_window_empty(self):
        p = params(alpha1=0.1, alpha2=0.1)
        r = classify_global(p, 1.0)
        assert r.verdict == "not_certified"
        (n1, _), _, det, _ = window_by_hand(p, 1.0)
        assert det == pytest.approx(2.99)
        assert n1 == pytest.approx(2.3 / 2.99)
        assert r.window[0][0] == pytest.approx(2.3 / 2.99)
        assert r.window[0][1] == pytest.approx(2.5 / 3.75)
        # lower endpoint exceeds upper, so the nonemptiness record fails
        rec = {q.name: q for q in r.inequalities}
        assert not rec["N1_lower <= N1_upper"].holds

    def test_degenerate_determinant_short_circuits(self):
        p = params(b1=1.0, c1=1.0, b2=1.0, c2=1.0)
        r = classify_global(p, 0.0)
        assert r.verdict == "not_certified"
        assert r.window is None
        rec = {q.name: q for q in r.inequalities}
        assert not rec["c2*b1 > c1*b2"].holds

    def test_all_records_recompute(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vals = rng.uniform(0.2, 3.0, 10)
            p = ModelParams(*vals)
            lam = float(rng.uniform(0.0, 2.0))
            r = classify_global(p, lam)
            rec = {q.name: q for q in r.inequalities}
            e1 = 2.0 * p.alpha1 * lam - p.b1
            e2 = 2.0 * p.alpha2 * lam - p.c2
            assert rec["2*alpha1*lambda0 <= b1"].lhs == 2.0 * p.alpha1 * lam
            assert rec["2*alpha2*lambda0 <= c2"].rhs == p.c2
            assert rec["D > 0"].lhs == e2 * e1 - p.b2 * p.c1
            assert rec["c2*b1 > c1*b2"].lhs == p.c2 * p.b1
            assert rec["c2*b1 > c1*b2"].rhs == p.c1 * p.b2
            if r.window is not None:
                (n1, h1), (n2, h2), det, cross = window_by_hand(p, lam)
                assert r.window[0] == (pytest.approx(n1), pytest.approx(h1))
                assert r.window[1] == (pytest.approx(n2), pytest.approx(h2))
            certified_by_hand = all(q.holds for q in r.inequalities)
            assert r.certified == certified_by_hand

    def test_zero_eigenvalue_depends_only_on_prerequisites(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            p = ModelParams(*rng.uniform(0.2, 3.0, 10))
            r = classify_global(p, 0.0)
            det_ok = p.c2 * p.b1 - p.b2 * p.c1 > 0.0  # D at lam=0
            cross_ok = p.c2 * p.b1 > p.c1 * p.b2
            assert r.certified == (det_ok and cross_ok)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            classify_global(params(), -0.5)

    def test_report_serializes(self):
        d = classify_global(params(), 0.0).as_dict()
        assert d["schema_version"] == 1
        assert d["verdict"] == "certified_global"
        assert d["window"]["n1"][1] == pytest.approx(2.0 / 3.0)
        assert all(
            set(q) >= {"name", "lhs", "rhs", "holds"} for q in d["inequalities"]
        )


class TestClassifyBlowup:
    def test_reference_certificate(self):
        c = classify_blowup(params(alpha1=0.0, alpha2=0.0), 0.0, 1.0, 1.0, 2.0)
        assert c.verdict == "certified_blowup_if"
        assert c.tau_bar == 1.0
        assert c.psi_under == 0.75
        assert c.threshold == pytest.approx(4.0 / 3.0)
        assert c.condition_branch == "mu1_lt_mu2"
        assert c.failing_condition is None

    def test_condition_order_and_first_failure(self):
        # growth constants invalid -> first listed condition is the failure
        p = params(c1=10.0, b2=10.0)
        c = classify_blowup(p, 0.0, 1.0, 1.0, 5.0)
        assert [q.name for q in c.conditions] == [
            "psi1 > psi2 > 0",
            "psi_under > 0",
            "c1 + b2 < 2*b1",
            "p_hat0 > threshold",
        ]
        assert c.failing_condition == "psi1 > psi2 > 0"
        assert c.verdict == "not_certified"

    def test_threshold_boundary_is_strict(self):
        c = classify_blowup(params(alpha1=0.0, alpha2=0.0), 0.0, 1.0, 1.0, 4.0 / 3.0)
        assert c.failing_condition == "p_hat0 > threshold"
        with pytest.raises(ValueError):
            t0_estimate(c, 4.0 / 3.0)

    def test_any_finite_average_accepted(self):
        # a sign-changing eigenfunction can give a negative average; it
        # simply fails the threshold test, in both entry points
        p = params(alpha1=0.0, alpha2=0.0)
        c = classify_blowup(p, 0.0, 1.0, 1.0, -0.05)
        assert c.verdict == "not_certified"
        assert c.failing_condition == "p_hat0 > threshold"
        assert not search_multipliers(p, 0.0, -0.05, -4.4e-18, 8).certified
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                classify_blowup(p, 0.0, 1.0, 1.0, bad)
            with pytest.raises(ValueError, match="finite"):
                search_multipliers(p, 0.0, bad, 0.8, 8)

    def test_branch_follows_multiplier_order(self):
        p = params()
        lo = classify_blowup(p, 0.0, 1.0, 2.0, 2.0)
        hi = classify_blowup(p, 0.0, 2.0, 1.0, 2.0)
        assert lo.condition_branch == "mu1_lt_mu2"
        assert hi.condition_branch == "mu1_gt_mu2"
        names_lo = {q.name for q in lo.conditions}
        names_hi = {q.name for q in hi.conditions}
        assert "c1 + b2 < 2*b1" in names_lo
        assert "c1 + b2 < 2*c2" in names_hi

    def test_eigenvalue_drag_on_psi_under(self):
        # psi_under = psi/mu_max^2 - lam*(alpha1+alpha2)/mu_max
        p = params(alpha1=0.3, alpha2=0.2)
        c = classify_blowup(p, 1.0, 1.0, 1.0, 5.0)
        gc = growth_constants(p, 1.0, 1.0)
        assert c.psi_under == pytest.approx(gc.psi - 1.0 * 0.5)
        assert c.tau_bar == pytest.approx(1.0 * 1.0 + gc.c)

    def test_scaling_invariance(self):
        p = params(alpha1=0.0, alpha2=0.0)
        base = classify_blowup(p, 0.0, 1.0, 1.0, 2.0)
        for s in (2.0, 10.0, 0.25):
            scaled = classify_blowup(p, 0.0, s, s, s * 2.0)
            assert scaled.certified == base.certified
            assert scaled.tau_bar == pytest.approx(base.tau_bar)
            assert scaled.threshold == pytest.approx(s * base.threshold)
            assert t0_estimate(scaled, s * 2.0) == pytest.approx(
                t0_estimate(base, 2.0)
            )

    def test_serialization(self):
        d = classify_blowup(params(alpha1=0.0, alpha2=0.0), 0.0, 1.0, 1.0, 2.0).as_dict()
        assert d["schema_version"] == 1
        assert d["verdict"] == "certified_blowup_if"
        assert d["threshold"] == pytest.approx(4.0 / 3.0)


class TestT0:
    def test_reference_values(self):
        # tau_bar=1, psi_under=3/4, p0=2: q=3/2, ln(q/(q-1)) = ln 3
        p = params(alpha1=0.0, alpha2=0.0, b1=2.0, c2=2.0)
        c = classify_blowup(p, 0.0, 1.0, 1.0, 2.0)
        assert t0_estimate(c, 2.0) == pytest.approx(math.log(3.0), abs=1e-12)
        # tau_bar=1, psi_under=1, p0=2: q=2, ln(q/(q-1)) = ln 2
        p2 = params(alpha1=0.0, alpha2=0.0, b1=2.5, c2=2.5)
        c2 = classify_blowup(p2, 0.0, 1.0, 1.0, 2.0)
        assert c2.psi_under == pytest.approx(1.0)
        assert t0_estimate(c2, 2.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_monotone_in_p0_and_tau(self):
        p = params(alpha1=0.0, alpha2=0.0)
        c = classify_blowup(p, 0.0, 1.0, 1.0, 2.0)
        t_lo = t0_estimate(c, 1.5)
        t_mid = t0_estimate(c, 2.0)
        t_hi = t0_estimate(c, 3.0)
        assert t_lo > t_mid > t_hi
        # larger a_i drives tau_bar up and delays the certified time
        c_fast = classify_blowup(params(alpha1=0.0, alpha2=0.0, a1=0.5, a2=0.5), 0.0, 1.0, 1.0, 2.0)
        assert c_fast.tau_bar < c.tau_bar
        assert t0_estimate(c_fast, 2.0) < t0_estimate(c, 2.0)

    def test_requires_certified_conditions(self):
        c = classify_blowup(params(c1=10.0, b2=10.0), 0.0, 1.0, 1.0, 5.0)
        with pytest.raises(ValueError):
            t0_estimate(c, 5.0)


class TestSearchMultipliers:
    def test_finds_certificate_reference(self):
        p = params(alpha1=0.0, alpha2=0.0)
        best = search_multipliers(p, 0.0, 1.2, 0.8, 24)
        assert best.certified
        assert best.p_hat0 == pytest.approx(best.mu1 * 1.2 + best.mu2 * 0.8)

    def test_minimum_multiplier_pinned_to_one(self):
        best = search_multipliers(params(alpha1=0.0, alpha2=0.0), 0.0, 1.2, 0.8, 16)
        assert min(best.mu1, best.mu2) == 1.0

    def test_never_certified_when_cross_terms_dominate(self):
        # psi2 >= psi1 for every multiplier ratio
        p = params(c1=10.0, b2=10.0, b1=1.0, c2=1.0)
        best = search_multipliers(p, 0.0, 10.0, 10.0, 40)
        assert not best.certified

    def test_refinement_never_loses_the_best(self):
        p = params(alpha1=0.0, alpha2=0.0)
        coarse = search_multipliers(p, 0.0, 1.2, 0.8, 12)
        fine = search_multipliers(p, 0.0, 1.2, 0.8, 24)
        assert fine.certified >= coarse.certified
        assert fine.margin >= coarse.margin - 1e-15

    def test_deterministic(self):
        p = params(alpha1=0.0, alpha2=0.0)
        a = search_multipliers(p, 0.0, 1.2, 0.8, 24)
        b = search_multipliers(p, 0.0, 1.2, 0.8, 24)
        assert (a.mu1, a.mu2, a.margin) == (b.mu1, b.mu2, b.margin)

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            search_multipliers(params(), 0.0, 1.0, 1.0, 1)
