"""Parameter container, transform pair, reaction terms, growth constants."""

import numpy as np
import pytest

from sktlab.model import (
    GrowthConstants,
    ModelParams,
    growth_constants,
    growth_lower_bound,
    reaction,
    transform_forward,
    transform_inverse,
)


def default_params(**overrides):
    base = dict(
        d1=1.0, d2=1.0, alpha1=0.5, alpha2=0.5,
        a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
    )
    base.update(overrides)
    return ModelParams(**base)


class TestModelParams:
    def test_roundtrip_dict(self):
        p = default_params()
        assert ModelParams.from_dict(p.as_dict()) == p

    def test_missing_key_rejected(self):
        d = default_params().as_dict()
        del d["c2"]
        with pytest.raises(ValueError, match="c2"):
            ModelParams.from_dict(d)

    def test_unknown_key_rejected(self):
        d = default_params().as_dict()
        d["beta1"] = 1.0
        with pytest.raises(ValueError, match="beta1"):
            ModelParams.from_dict(d)

    @pytest.mark.parametrize("key", ["d1", "d2", "a1", "a2", "b1", "b2", "c1", "c2"])
    def test_positive_coefficients_enforced(self, key):
        with pytest.raises(ValueError, match=key):
            default_params(**{key: 0.0})

    def test_alpha_may_be_zero_but_not_negative(self):
        default_params(alpha1=0.0, alpha2=0.0)
        with pytest.raises(ValueError, match="alpha1"):
            default_params(alpha1=-0.1)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            default_params(b1=float("nan"))

    def test_replace(self):
        p = default_params().replace(c1=3.0)
        assert p.c1 == 3.0
        assert p.b1 == 2.0


class TestTransform:
    def test_forward_values(self):
        # (d + alpha*u)*u at hand-picked points
        assert transform_forward(2.0, 0.0, 3.0) == 6.0
        assert transform_forward(1.0, 0.5, 2.0) == 4.0

    def test_inverse_linear_branch(self):
        # alpha = 0 reduces to h/d with no square root involved
        assert transform_inverse(4.0, 0.0, 8.0) == 2.0

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = float(rng.uniform(0.1, 10.0))
            alpha = float(rng.uniform(0.0, 10.0))
            u = rng.uniform(0.0, 1e6, 10)
            back = transform_inverse(d, alpha, transform_forward(d, alpha, u))
            assert np.all(np.abs(back - u) <= 1e-10 * (1.0 + u))

    def test_zero_maps_to_zero_exactly(self):
        assert transform_forward(3.0, 2.0, 0.0) == 0.0
        assert transform_inverse(3.0, 2.0, 0.0) == 0.0

    def test_inverse_monotone(self):
        h = np.linspace(0.0, 50.0, 2001)
        u = transform_inverse(1.5, 2.0, h)
        assert np.all(np.diff(u) > 0.0)

    def test_forward_rejects_negative_u(self):
        with pytest.raises(ValueError):
            transform_forward(1.0, 1.0, -0.5)

    def test_inverse_rejects_invalid_d(self):
        with pytest.raises(ValueError):
            transform_inverse(0.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "fn, var", [(transform_forward, "u"), (transform_inverse, "h")],
        ids=["forward", "inverse"],
    )
    @pytest.mark.parametrize(
        "d, alpha, values, message",
        [
            (0.0, 1.0, 1.0, "d must be positive, got 0.0"),
            (np.inf, 1.0, 1.0, "d must be positive, got inf"),
            (1.0, -0.5, 1.0, "alpha must be >= 0, got -0.5"),
            (1.0, np.nan, 1.0, "alpha must be >= 0, got nan"),
            (1.0, 1.0, [0.5, np.inf], "{var} must be finite"),
            (1.0, 1.0, [0.5, -1e-300], "{var} must be nonnegative"),
            # the arguments are checked in that order
            (-1.0, -1.0, np.nan, "d must be positive, got -1.0"),
            (1.0, -1.0, np.nan, "alpha must be >= 0, got -1.0"),
            (1.0, 1.0, [np.nan, -1.0], "{var} must be finite"),
        ],
    )
    def test_argument_errors(self, fn, var, d, alpha, values, message):
        expected = f"{fn.__name__}: {message.format(var=var)}"
        with pytest.raises(ValueError) as info:
            fn(d, alpha, values)
        assert str(info.value) == expected


class TestReaction:
    def test_signs_at_reference_point(self):
        # f1 = u1(-a1 + b1 u1 - c1 u2), f2 = u2(-a2 - b2 u1 + c2 u2)
        p = default_params()
        f1, f2 = reaction(p, 1.0, 1.0)
        assert f1 == pytest.approx(1.0 * (-1.0 + 2.0 - 0.5))
        assert f2 == pytest.approx(1.0 * (-1.0 - 0.5 + 2.0))

    def test_zero_state_is_equilibrium(self):
        f1, f2 = reaction(default_params(), 0.0, 0.0)
        assert f1 == 0.0 and f2 == 0.0

    def test_array_broadcast(self):
        p = default_params()
        u = np.array([0.0, 0.5, 1.0])
        f1, f2 = reaction(p, u, u)
        assert f1.shape == (3,)
        assert f1[0] == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            reaction(default_params(), -1.0, 0.0)


class TestGrowthConstants:
    def test_reference_values(self):
        # psi1 = min(mu1 b1, mu2 c2), psi2 = (mu1 c1 + mu2 b2)/2, c = max(mu1 a1, mu2 a2)
        gc = growth_constants(default_params(), 1.0, 1.0)
        assert gc.psi1 == 2.0
        assert gc.psi2 == 0.5
        assert gc.c == 1.0
        assert gc.psi == 0.75
        assert gc.valid

    def test_invalid_when_cross_terms_dominate(self):
        p = default_params(c1=10.0, b2=10.0, b1=1.0, c2=1.0)
        gc = growth_constants(p, 1.0, 1.0)
        assert not gc.valid

    def test_lower_bound_inequality_random(self):
        rng = np.random.default_rng(11)
        hits = 0
        while hits < 20:
            vals = rng.uniform(0.1, 5.0, 10)
            try:
                p = ModelParams(*vals)
            except ValueError:
                continue
            mu1, mu2 = rng.uniform(0.2, 5.0, 2)
            gc = growth_constants(p, mu1, mu2)
            if not gc.valid:
                continue
            hits += 1
            u1 = rng.uniform(0.0, 50.0, 1000)
            u2 = rng.uniform(0.0, 50.0, 1000)
            f1 = u1 * (-p.a1 + p.b1 * u1 - p.c1 * u2)
            f2 = u2 * (-p.a2 - p.b2 * u1 + p.c2 * u2)
            combined = mu1 * f1 + mu2 * f2
            s = u1 + u2
            bound = growth_lower_bound(gc, u1, u2)
            assert np.all(combined - bound >= -1e-9 * (1.0 + s * s))
            assert np.allclose(bound, gc.psi * s * s - gc.c * s)

    def test_diagonal_slack_identity(self):
        # on u1 == u2 the pointwise slack (psi1+psi2)(u1-u2)^2/2 vanishes,
        # so the bound is tight up to the linear-term overestimate
        p = default_params()
        gc = growth_constants(p, 1.0, 1.0)
        u = np.linspace(0.0, 10.0, 101)
        f1 = u * (-p.a1 + p.b1 * u - p.c1 * u)
        f2 = u * (-p.a2 - p.b2 * u + p.c2 * u)
        combined = f1 + f2
        s = 2.0 * u
        slack = combined - (gc.psi * s * s - gc.c * s)
        # psi1 != psi2 contributes (psi1-psi2)/2 * 0 here; remaining slack is
        # (c - a_i) * u terms, zero for equal a's: bound is exact on the diagonal
        assert np.allclose(slack, 0.0, atol=1e-12)

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            growth_constants(default_params(), 0.0, 1.0)

    def test_lower_bound_requires_valid(self):
        gc = GrowthConstants(
            mu1=1.0, mu2=1.0, psi1=0.5, psi2=2.0, c=1.0, psi=-0.75, valid=False
        )
        with pytest.raises(ValueError):
            growth_lower_bound(gc, 1.0, 1.0)
