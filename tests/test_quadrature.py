"""Tests for the integration helpers."""

import math

import numpy as np
import pytest

from riskbounds.errors import QuadratureFailure
from riskbounds.quadrature import adaptive_simpson, golden_section_max


def test_polynomial_exact():
    value = adaptive_simpson(lambda x: x ** 2, 0.0, 1.0)
    assert math.isclose(value, 1.0 / 3.0, rel_tol=1e-12)


def test_kinked_integrand():
    # |x - 1/3| has the kink off the initial panel edges
    value = adaptive_simpson(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0,
                             atol=1e-12, rtol=1e-11)
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    assert math.isclose(value, exact, rel_tol=1e-9)


def test_narrow_bump_with_points_hint():
    center, width = 0.7123, 1e-4
    f = lambda x: np.exp(-0.5 * ((x - center) / width) ** 2)
    value = adaptive_simpson(f, 0.0, 1.0, points=(center,), atol=1e-14)
    assert math.isclose(value, width * math.sqrt(2 * math.pi), rel_tol=1e-8)

    # without the hint the default 16 panels still catch a 1e-4 bump,
    # so shrink drastically to show the failure mode is the budget
    with pytest.raises(QuadratureFailure):
        adaptive_simpson(lambda x: np.abs(x - 0.1234567) ** -0.5 + 0 * x,
                         0.0, 1.0, atol=1e-15, rtol=1e-15, max_depth=4)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_simpson(lambda x: x, 1.0, 1.0)


def test_golden_section_on_parabola():
    x, fx, evals = golden_section_max(lambda x: -(x - 0.3) ** 2 + 2.0,
                                      0.0, 1.0, tol=1e-12)
    assert abs(x - 0.3) < 1e-6
    assert math.isclose(fx, 2.0, abs_tol=1e-12)
    assert evals > 2
