"""Spatially homogeneous ODE reduction and the scalar comparison solution."""

import math

import numpy as np
import pytest

from sktlab.model import ModelParams
from sktlab.oracle import (
    OdeTrajectory,
    ode_reduce,
    riccati_closed_form,
    riccati_singularity_time,
)


def certified_params():
    return ModelParams(
        d1=1.0, d2=1.0, alpha1=0.5, alpha2=0.5,
        a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
    )


def blowup_params():
    return ModelParams(
        d1=1.0, d2=1.0, alpha1=0.0, alpha2=0.0,
        a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
    )


class TestOdeReduce:
    def test_decaying_trajectory_completes(self):
        traj = ode_reduce(certified_params(), (0.2, 0.3), 1.0, 1e-10)
        assert traj.termination == "completed"
        assert traj.diverged_time is None
        assert traj.u1[-1] < 0.2 and traj.u2[-1] < 0.3
        assert np.all(traj.u1 >= 0.0) and np.all(traj.u2 >= 0.0)

    def test_t_eval_respected(self):
        ts = np.linspace(0.0, 0.5, 11)
        traj = ode_reduce(certified_params(), (0.2, 0.3), 0.5, 1e-10, t_eval=ts)
        assert np.allclose(traj.times, ts)

    def test_write_csv(self, tmp_path):
        # one row per sample, each float the shortest repr that round-trips
        traj = OdeTrajectory(
            np.array([0.0, 0.1]), np.array([0.2, 1.0 / 3.0]), np.array([0.3, 2e-17]),
            "completed",
        )
        path = tmp_path / "ode.csv"
        traj.write_csv(path)
        assert path.read_text() == (
            "t,u1,u2\n0.0,0.2,0.3\n0.1,0.3333333333333333,2e-17\n"
        )

    def test_zero_initial_state_stays_zero(self):
        traj = ode_reduce(certified_params(), (0.0, 0.0), 1.0, 1e-10)
        assert np.all(traj.u1 == 0.0) and np.all(traj.u2 == 0.0)

    def test_single_species_logistic_closed_form(self):
        # with u2 = 0 the first species obeys u' = u(-a + b*u); for
        # u0 < a/b the closed form is a*u0 / (b*u0 + (a - b*u0) e^{a t})
        p = certified_params()
        u0, t_end = 0.25, 1.0
        ts = np.linspace(0.0, t_end, 21)
        traj = ode_reduce(p, (u0, 0.0), t_end, 1e-12, t_eval=ts)
        a, b = p.a1, p.b1
        exact = a * u0 / (b * u0 + (a - b * u0) * np.exp(a * ts))
        assert np.all(np.abs(traj.u1 - exact) <= 1e-9 * (1.0 + np.abs(exact)))
        assert np.all(traj.u2 == 0.0)

    def test_blowup_flagged_as_diverged(self):
        traj = ode_reduce(blowup_params(), (1.2, 0.8), 2.0, 1e-10)
        assert traj.termination == "diverged"
        assert traj.diverged_time is not None
        assert 0.0 < traj.diverged_time < 1.0

    def test_input_validation(self):
        p = certified_params()
        with pytest.raises(ValueError):
            ode_reduce(p, (-0.1, 0.2), 1.0, 1e-10)
        with pytest.raises(ValueError):
            ode_reduce(p, (0.1, 0.2), 0.0, 1e-10)
        with pytest.raises(ValueError):
            ode_reduce(p, (0.1, 0.2), 1.0, 1e-2)


class TestRiccatiClosedForm:
    def test_singularity_time(self):
        # p' = -tau p + psi p^2 blows up iff p0 > tau/psi, at
        # t = ln(psi p0 / (psi p0 - tau)) / tau
        assert riccati_singularity_time(1.0, 1.0, 2.0) == pytest.approx(math.log(2.0))
        assert riccati_singularity_time(1.0, 0.75, 2.0) == pytest.approx(math.log(3.0))
        assert riccati_singularity_time(1.0, 1.0, 0.5) is None

    def test_value_at_zero_and_monotone_growth(self):
        assert riccati_closed_form(1.0, 1.0, 2.0, 0.0) == pytest.approx(2.0, abs=1e-14)
        ts = np.linspace(0.0, 0.9 * math.log(2.0), 50)
        vals = riccati_closed_form(1.0, 1.0, 2.0, ts)
        assert np.all(np.diff(vals) > 0.0)

    def test_decay_when_below_threshold(self):
        ts = np.linspace(0.0, 5.0, 50)
        vals = riccati_closed_form(1.0, 1.0, 0.5, ts)
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < 0.01

    def test_rejects_evaluation_at_singularity(self):
        t_star = math.log(2.0)
        with pytest.raises(ValueError):
            riccati_closed_form(1.0, 1.0, 2.0, t_star + 0.01)

    def test_matches_derivative_definition(self):
        # finite-difference check of p' = -tau p + psi p^2
        tau, psi, p0 = 1.3, 0.7, 2.5
        t = 0.2
        eps = 1e-6
        pm = riccati_closed_form(tau, psi, p0, t - eps)
        pp = riccati_closed_form(tau, psi, p0, t + eps)
        pc = riccati_closed_form(tau, psi, p0, t)
        deriv = (pp - pm) / (2 * eps)
        assert deriv == pytest.approx(-tau * pc + psi * pc * pc, rel=1e-6)

    def test_zero_initial_value(self):
        ts = np.linspace(0.0, 2.0, 9)
        assert np.all(riccati_closed_form(1.0, 1.0, 0.0, ts) == 0.0)
